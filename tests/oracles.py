"""Dense solvers shared by the oracle tests; the engine decides solvability
from triples through `linalg.sparse_solvable`, never through these."""

import numpy as np

from comodfilt.linalg import rref


def solve(mat: np.ndarray, rhs: np.ndarray, p: int) -> np.ndarray | None:
    """One solution x of mat @ x = rhs, or None if inconsistent: it has none
    iff the rhs column is a pivot of rref([mat | rhs])."""
    a = np.mod(np.asarray(mat, dtype=np.int64), p)
    b = np.mod(np.asarray(rhs, dtype=np.int64), p).reshape(-1)
    red, piv = rref(np.hstack([a, b[:, None]]), p)
    n = a.shape[1]
    if n in piv:
        return None
    x = np.zeros(n, dtype=np.int64)
    x[piv] = red[:, n]
    return x
