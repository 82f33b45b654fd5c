"""Reference answers for every benchmark job.

Two kinds of reference, kept apart:

* oracles: closed forms from the mathematics, sharing no code with the
  engine (level dimensions of GL/SL/U/M/Ga/Gm, the ladder of regular(n),
  polyaffine and primitives growth, H^1 of Ga with trivial coefficients,
  semisimplicity of Gm, injectivity of regular(n), validity);
* pins: the payload rows and verdicts the engine gave at the commit that
  defined the benchmark, stored in pins.json.  They record behaviour, they
  do not prove it.

An oracle may leave entries open (ANY); every job whose oracle does not fix
its whole payload carries a pin.  Regenerate the pins with
`python3 bench/reference.py --write-pins` (from the repository root), and
only when a change of the answers is intended.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys

from workloads import WORKLOADS, argv_of

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")


class _Any:
    def __repr__(self):
        return "ANY"


ANY = _Any()


def level_dim(spec: str, d: int) -> int:
    """dim O(G)_{<=d} from the closed formulas of the catalog groups."""
    kind, n = re.match(r"(Ga|Gm|GL|SL|U|M)(?::(\d+))?@", spec).groups()
    if kind == "Ga":
        return d + 1
    if kind == "Gm":
        return 2 * d + 1
    n = int(n)
    if kind == "U":
        k = n * (n - 1) // 2
        return math.comb(d + k, k)
    n2 = n * n
    poly = math.comb(d + n2, n2)
    shifted = math.comb(d - n + n2, n2) if d >= n else 0
    return {"M": poly, "GL": poly + shifted, "SL": poly - shifted}[kind]


def _prime(spec: str) -> int:
    return int(spec.rsplit("=", 1)[1])


def _log_floor(p: int, d: int) -> int:
    k = 0
    while p ** (k + 1) <= d:
        k += 1
    return k


def oracle(job: str):
    """Expected {"rows", "verdicts"} from a closed form, or None.

    Entries the closed form does not determine are ANY.
    """
    argv = argv_of(job)
    command = argv[0]
    opts = dict(zip(argv[1::2], argv[2::2]))
    if command == "validate":
        if "--suite" in argv:
            return None  # row names come from the suite: pinned, ok checked below
        return {"rows": ANY, "verdicts": {"valid": True}}
    spec = opts["--group"]
    module = opts.get("--module")
    dmax = int(opts["--dmax"])
    levels = range(dmax + 1)
    if command == "dims":
        return {"rows": [{"d": d, "dim": level_dim(spec, d)} for d in levels],
                "verdicts": {}}
    if command == "closure":
        return {"rows": [{"d": d, "dim": level_dim(spec, d), "subcoalgebra": True,
                          "equals_level": True} for d in levels],
                "verdicts": {}}
    if command == "filter" and (m := re.fullmatch(r"regular\((\d+)\)", module)):
        n = int(m.group(1))
        return {"rows": [{"d": d, "dim": level_dim(spec, min(n, d))} for d in levels],
                "verdicts": {"stabilized_at": n} if n <= dmax else {}}
    if command == "growth" and (m := re.fullmatch(r"polyaffine\((\d+)\)", module)):
        k = int(m.group(1))
        return {"rows": [{"d": d, "dim": math.comb(k + d, d)} for d in levels],
                "verdicts": {"class": "polynomial", "parameter": k}}
    if command == "growth" and module == "primitives":
        p = _prime(spec)
        return {"rows": [{"d": d, "dim": _log_floor(p, d) + 1 if d else 1}
                         for d in levels],
                "verdicts": {"class": "logarithmic", "parameter": None}}
    if command == "growth" and module == "twiststream(1)" and dmax >= 16:
        known = {1: 2, 16: 62}
        return {"rows": [{"d": d, "dim": known.get(d, ANY)} for d in levels],
                "verdicts": {"class": "exponential", "parameter": 1}}
    if command == "cobar":
        nmax = int(opts["--nmax"])
        h = [ANY] * (nmax + 1)
        if spec.startswith("Gm@"):
            h[1:] = [0] * nmax  # Gm is linearly reductive: H^n = 0 for n >= 1
        if spec.startswith("Ga@") and module == "triv":
            h[0] = 1
            h[1] = _log_floor(_prime(spec), dmax) + 1  # primitives t^(p^i), p^i <= d
        return {"rows": [{"dim": x, "n": n} for n, x in enumerate(h)],
                "verdicts": {"coalgebra_dim": level_dim(spec, dmax)}}
    if command == "inject" and re.fullmatch(r"regular\(\d+\)", module or ""):
        return {"rows": [{"d": d, "injective": True} for d in levels],
                "verdicts": {"all_injective": True}}
    return None


def _open(expected) -> bool:
    if expected is ANY:
        return True
    if isinstance(expected, dict):
        return any(_open(v) for v in expected.values())
    if isinstance(expected, list):
        return any(_open(v) for v in expected)
    return False


def needs_pin(job: str) -> bool:
    ref = oracle(job)
    return ref is None or _open(ref)


def _mismatches(expected, actual, path: str) -> list[str]:
    if expected is ANY:
        return []
    if isinstance(expected, dict) and isinstance(actual, dict):
        if set(expected) != set(actual):
            return [f"{path}: keys {sorted(actual)} != {sorted(expected)}"]
        return [m for k in expected for m in _mismatches(expected[k], actual[k],
                                                         f"{path}.{k}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: {len(actual)} entries != {len(expected)}"]
        return [m for i, (e, a) in enumerate(zip(expected, actual))
                for m in _mismatches(e, a, f"{path}[{i}]")]
    if type(expected) is not type(actual) or expected != actual:
        return [f"{path}: {actual!r} != {expected!r}"]
    return []


def load_pins() -> dict:
    with open(PINS_PATH) as fh:
        return json.load(fh)["pins"]


def check(job: str, payload_text: str, pins: dict) -> list[str]:
    """Problems with one job's CLI output; empty when it matches every reference."""
    try:
        payload = json.loads(payload_text)
        body = {"rows": payload["rows"], "verdicts": payload["verdicts"]}
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        return [f"unreadable payload: {exc}"]
    problems = []
    expected = oracle(job)
    if expected is not None:
        problems += [f"oracle {m}" for m in _mismatches(expected, body, "")]
    if job == "validate --suite" and not all(r.get("ok") for r in body["rows"]):
        problems.append("oracle: a property check failed")
    if needs_pin(job):
        if job not in pins:
            problems.append("no pin stored for this job")
        else:
            problems += [f"pin {m}" for m in _mismatches(pins[job], body, "")]
    return problems


def write_pins():
    """Run every job that needs a pin once and store its rows and verdicts."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import contextlib
    import io

    from comodfilt import cli

    jobs = sorted({j for w in WORKLOADS.values() for j in w.jobs if needs_pin(j)})
    pins = {}
    for job in jobs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv_of(job) + ["--no-cache"])
        if code != 0:
            raise SystemExit(f"pinning failed: {job} exited {code}")
        payload = json.loads(buf.getvalue())
        pins[job] = {"rows": payload["rows"], "verdicts": payload["verdicts"]}
    with open(PINS_PATH, "w") as fh:
        json.dump({"note": "pins: engine output recorded when the benchmark was "
                           "defined; they are not oracles", "pins": pins},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-pins"]:
        raise SystemExit("usage: python3 bench/reference.py --write-pins")
    write_pins()
