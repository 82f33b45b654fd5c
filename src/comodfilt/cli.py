"""Command-line front end: dims, filter, closure, growth, cobar, inject, validate.

Emits JSON (default) or CSV, caches results by job fingerprint, and maps
failure classes to exit codes: 0 success, 1 usage/parse error, 2 resource
ceiling or out of memory, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import tempfile
import time

from . import __version__
from .cobar import SubCoalgebra, cobar_complex, cohomology_dims, injectivity_profile
from .comodules import ModuleExprError, StreamModule, build_module, trivial
from .config import ResourceLimitError, load_limits
from .coordalg import GroupSpecError, UnsupportedOperation, group_from_spec
from .filtration import (CanonicalLevel, InternalInvariantError,
                         coalgebra_closure, filtration_dims)
from .growth import classify
from .linalg import DimensionMismatch
from .suites import run_property_suite

CACHE_ENV = "COMODFILT_CACHE"


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="comodfilt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, group=True, module=False, dmax=False, nmax=False):
        if group:
            p.add_argument("--group", required=True,
                           help="group spec, e.g. Ga@p=2 or GL:2@p=5")
        if module:
            p.add_argument("--module", help="module expression, e.g. tensor(natural,triv)")
        if dmax:
            p.add_argument("--dmax", type=int, required=True,
                           help="largest filtration level")
        if nmax:
            p.add_argument("--nmax", type=int, default=2,
                           help="top cobar degree (default 2)")
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--cache", help="cache directory (default: $COMODFILT_CACHE)")
        p.add_argument("--no-cache", action="store_true")

    common(sub.add_parser("dims", help="dimensions of O(G)_{<=d}"), dmax=True)
    common(sub.add_parser("filter", help="dimensions of M_{O(G)_{<=d}}"),
           module=True, dmax=True)
    common(sub.add_parser("closure", help="coalgebra closures of the canonical levels"),
           dmax=True)
    gp = sub.add_parser("growth", help="growth class of a dimension sequence")
    common(gp, module=True, dmax=True)
    gp.add_argument("--window", type=int,
                    help="test for polynomial growth on the trailing WINDOW >= 2 "
                         "levels only; the other growth classes read every level")
    common(sub.add_parser("cobar", help="cobar cohomology over O(G)_{<=d}"),
           module=True, dmax=True, nmax=True)
    common(sub.add_parser("inject", help="levelwise injectivity profile"),
           module=True, dmax=True)
    vp = sub.add_parser("validate", help="validate a module or run the property suite")
    vp.add_argument("--suite", action="store_true",
                    help="run the full property suite instead of one module")
    common(vp, group=False, module=True)
    vp.add_argument("--group", help="group spec (required without --suite)")
    return parser


def _jobspec(args) -> dict:
    keys = ["command", "group", "module", "dmax", "nmax", "window", "suite"]
    return {k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}


@functools.cache
def _engine_digest() -> str:
    """sha256 of the package's source files, read once per process, so that a
    cached answer is served only to the engine that computed it."""
    digest = hashlib.sha256()
    here = os.path.dirname(os.path.abspath(__file__))
    for name in sorted(os.listdir(here)):
        if name.endswith(".py"):
            with open(os.path.join(here, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def _fingerprint(job: dict) -> str:
    canon = json.dumps({**job, "engine": __version__, "source": _engine_digest()},
                       sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()


def _cache_dir(args):
    if args.no_cache:
        return None
    return args.cache or os.environ.get(CACHE_ENV)


def _well_formed(record) -> bool:
    """Whether a parsed cache record has the shape `cache_store` writes and
    `_emit` reads: an object whose `engine` is an object and whose `payload`
    is an object holding a list `rows` of objects with one set of keys."""
    if not isinstance(record, dict) or not isinstance(record.get("engine"), dict):
        return False
    payload = record.get("payload")
    rows = payload.get("rows") if isinstance(payload, dict) else None
    return isinstance(rows, list) and all(
        isinstance(row, dict) and row.keys() == rows[0].keys() for row in rows)


def cache_lookup(directory: str, fingerprint: str):
    """The cached payload, or None on a miss.  A cache file is outside input:
    one that cannot be read or is not a record is reported in one warning
    line and treated as a miss, and a record from another engine version is
    a silent miss."""
    path = os.path.join(directory, fingerprint + ".json")
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            record = json.load(fh)
    except (ValueError, OSError, RecursionError) as exc:
        print(f"warning: corrupt cache record {path}: {exc}", file=sys.stderr)
        return None
    if not _well_formed(record):
        print(f"warning: corrupt cache record {path}: not a cache record", file=sys.stderr)
        return None
    if record["engine"].get("version") != __version__:
        return None
    return record["payload"]


def cache_store(directory: str, fingerprint: str, payload: dict):
    os.makedirs(directory, exist_ok=True)
    record = {"fingerprint": fingerprint,
              "engine": {"version": __version__},
              "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "payload": payload}
    # write a temp file beside the record, then rename it into place, so an
    # interrupted store never leaves a partial record at the fingerprint path
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=fingerprint, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(record, fh, sort_keys=True)
        os.replace(tmp, os.path.join(directory, fingerprint + ".json"))
    except BaseException:
        os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# command payloads (pure library calls; the CLI adds no computation)

def _run_dims(args, limits) -> dict:
    g = group_from_spec(args.group)
    return {"rows": [{"d": d, "dim": g.filtration_dim(d)}
                     for d in range(args.dmax + 1)], "verdicts": {}}


def _run_filter(args, limits) -> dict:
    g = group_from_spec(args.group)
    if not args.module:
        raise UsageError("filter requires --module")
    m = build_module(args.module, g)
    result = filtration_dims(m, args.dmax)
    verdicts = {}
    if result.stabilized_at is not None:
        verdicts["stabilized_at"] = result.stabilized_at
    return {"rows": [{"d": d, "dim": dim} for d, dim in enumerate(result.dims)],
            "verdicts": verdicts}


def _run_closure(args, limits) -> dict:
    g = group_from_spec(args.group)
    rows = []
    for d in range(args.dmax + 1):
        res = coalgebra_closure(g, CanonicalLevel(g, d))
        rows.append({"d": d, "dim": res.dim,
                     "subcoalgebra": res.is_subcoalgebra,
                     "equals_level": res.dim == g.filtration_dim(d)})
    return {"rows": rows, "verdicts": {}}


def _run_growth(args, limits) -> dict:
    if args.window is not None and args.window < 2:
        raise UsageError("--window must be >= 2")
    g = group_from_spec(args.group)
    if args.module:
        m = build_module(args.module, g)
        dims = filtration_dims(m, args.dmax).dims
    else:
        dims = [g.filtration_dim(d) for d in range(args.dmax + 1)]
    burn_in = None if args.window is None else max(0, len(dims) - args.window)
    report = classify(dims, p=g.p, start=0, burn_in=burn_in)
    return {"rows": [{"d": d, "dim": dim} for d, dim in enumerate(dims)],
            "verdicts": {"class": report.kind, "parameter": report.parameter}}


def _run_cobar(args, limits) -> dict:
    g = group_from_spec(args.group)
    m = build_module(args.module, g) if args.module else trivial(g)
    if isinstance(m, StreamModule):
        raise UsageError("cobar needs a finite module (streams not supported)")
    c = SubCoalgebra.canonical(g, args.dmax, limits=limits)
    cohom = cohomology_dims(cobar_complex(c, m, args.nmax, limits=limits))
    return {"rows": [{"n": n, "dim": h} for n, h in enumerate(cohom)],
            "verdicts": {"coalgebra_dim": c.dim}}


def _run_inject(args, limits) -> dict:
    g = group_from_spec(args.group)
    m = build_module(args.module, g) if args.module else trivial(g)
    profile = injectivity_profile(g, m, args.dmax, limits=limits)
    return {"rows": [{"d": d, "injective": flag} for d, flag in enumerate(profile)],
            "verdicts": {"all_injective": all(profile)}}


def _run_validate(args, limits) -> dict:
    if args.suite:
        results = run_property_suite()
        if any(not r["ok"] for r in results):
            raise InternalInvariantError(
                "; ".join(r["name"] for r in results if not r["ok"]))
        return {"rows": [{"name": r["name"], "ok": r["ok"]} for r in results],
                "verdicts": {"all_ok": True}}
    if not args.group or not args.module:
        raise UsageError("validate requires --group and --module (or --suite)")
    g = group_from_spec(args.group)
    m = build_module(args.module, g)
    targets = ([(f"generation {n}", m.generate(n)) for n in range(3)]
               if isinstance(m, StreamModule) else [("module", m)])
    rows = []
    ok = True
    for label, target in targets:
        report = target.validate()
        ok = ok and report.ok
        rows.append({"target": label, "dim": target.dim, "ok": report.ok,
                     "failure": report.failures[0] if report.failures else ""})
    return {"rows": rows, "verdicts": {"valid": ok}}


_RUNNERS = {"dims": _run_dims, "filter": _run_filter, "closure": _run_closure,
            "growth": _run_growth, "cobar": _run_cobar, "inject": _run_inject,
            "validate": _run_validate}


def _emit(payload: dict, fmt: str):
    if fmt == "json":
        out = dict(payload)
        out["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        print(json.dumps(out, indent=2, sort_keys=True))
        return
    rows = payload.get("rows", [])
    if rows:
        keys = list(rows[0].keys())
        print(",".join(keys))
        for row in rows:
            print(",".join(_csv_cell(row[k]) for k in keys))


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def main(argv=None) -> int:
    args = None
    try:
        args = _build_parser().parse_args(argv)
        limits = load_limits()
        dmax = getattr(args, "dmax", None)
        if dmax is not None:
            if dmax < 0:
                raise UsageError("--dmax must be >= 0")
            if dmax > limits.max_dmax:
                raise ResourceLimitError(
                    f"dmax = {dmax} exceeds the configured ceiling {limits.max_dmax}")
        if getattr(args, "nmax", 1) < 1:
            raise UsageError("--nmax must be >= 1")
        job = _jobspec(args)
        cache = _cache_dir(args)
        fingerprint = _fingerprint(job) if cache else None
        payload = cache_lookup(cache, fingerprint) if cache else None
        if payload is None:
            body = _RUNNERS[args.command](args, limits)
            payload = {"job": job, "rows": body["rows"],
                       "verdicts": body["verdicts"],
                       "engine": {"version": __version__}}
            if cache:
                try:
                    cache_store(cache, fingerprint, payload)
                except OSError as exc:
                    print(f"warning: cannot store cache record: {exc}", file=sys.stderr)
        _emit(payload, args.format)
        return 0
    except (InternalInvariantError, AssertionError, DimensionMismatch) as exc:
        # DimensionMismatch is a ValueError, but only an engine bug raises it
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    except (UsageError, GroupSpecError, ModuleExprError, UnsupportedOperation,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # an allocation no ceiling foresaw, such as numpy's _ArrayMemoryError
        command = getattr(args, "command", "comodfilt")
        print(f"resource limit: out of memory in {command}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
