"""Dense solvers shared by the oracle tests; the engine decides solvability
from triples through `linalg.sparse_solvable`, and ranks its cobar
differentials through `linalg.peel`, never through these."""

from dataclasses import dataclass

import numpy as np

from comodfilt.linalg import matmul_mod, matrank, rref


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


@dataclass
class DenseComplex:
    """A cochain complex over F_p with each d^n: CH^n -> CH^(n+1) a dense
    matrix, n = 0..n_max; d^(n+1) d^n = 0 is checked by one dense product."""

    p: int
    dims: list
    diffs: list

    def __post_init__(self):
        for n in range(len(self.diffs) - 1):
            if np.any(matmul_mod(self.diffs[n + 1], self.diffs[n], self.p)):
                raise AssertionError(f"d^{n + 1} after d^{n} is nonzero")

    def cohomology_dims(self) -> list[int]:
        """dim H^n = dim CH^n - rank d^n - rank d^(n-1), each rank by `matrank`."""
        ranks = [matrank(d, self.p) for d in self.diffs]
        return [dim - rank - prev for dim, rank, prev in zip(self.dims, ranks, [0] + ranks)]
