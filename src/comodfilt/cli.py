"""Command-line front end: dims, filter, closure, growth, cobar, inject, validate.

Emits JSON (default) or CSV, caches results by job fingerprint, and maps
failure classes to exit codes: 0 success, 1 usage/parse error, 2 resource
ceiling or out of memory, 3 internal invariant violation.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
import tempfile
import time
from types import SimpleNamespace

from . import __version__
from .cobar import SubCoalgebra, cobar_complex, cohomology_dims, injectivity_profile
from .comodules import ModuleExprError, StreamModule, build_module, trivial
from .config import ResourceLimitError, load_limits
from .coordalg import GroupSpecError, UnsupportedOperation, group_from_spec
# coalgebra_closure stays bound here: bench/test_bench.py checks the tracer wraps it
from .filtration import (InternalInvariantError, closure_ladder,  # noqa: F401
                         coalgebra_closure, filtration_dims)
from .growth import classify
from .linalg import DimensionMismatch
from .suites import run_property_suite

CACHE_ENV = "COMODFILT_CACHE"


class UsageError(ValueError):
    pass


class _Option:
    """One option of a subcommand: its flag, the attribute `dest` it sets,
    its kind ("str", "int", "flag" for present or absent, or a tuple of the
    accepted values), whether it is required, its default and its help."""
    __slots__ = ("flag", "dest", "kind", "required", "default", "help")

    def __init__(self, flag: str, kind, required=False, default=None, help=None):
        self.flag, self.dest = flag, flag[2:].replace("-", "_")
        self.kind, self.required, self.default, self.help = kind, required, default, help


_GROUP = _Option("--group", "str", required=True, help="group spec, e.g. Ga@p=2 or GL:2@p=5")
_MODULE = _Option("--module", "str", help="module expression, e.g. tensor(natural,triv)")
_DMAX = _Option("--dmax", "int", required=True, help="largest filtration level")
_OUTPUT = (_Option("--format", ("json", "csv"), default="json"),
           _Option("--cache", "str", help="cache directory (default: $COMODFILT_CACHE)"),
           _Option("--no-cache", "flag", default=False))

# The CLI's grammar: each subcommand's summary and its options, in the order
# that help lists them.  `_parse` reads canonical argv off it and
# `_build_parser` builds argparse from it, so the two accept the same options.
_GRAMMAR = {
    "dims": ("dimensions of O(G)_{<=d}", (_GROUP, _DMAX, *_OUTPUT)),
    "filter": ("dimensions of M_{O(G)_{<=d}}", (_GROUP, _MODULE, _DMAX, *_OUTPUT)),
    "closure": ("coalgebra closures of the canonical levels", (_GROUP, _DMAX, *_OUTPUT)),
    "growth": ("growth class of a dimension sequence", (
        _GROUP, _MODULE, _DMAX, *_OUTPUT,
        _Option("--window", "int",
                help="test for polynomial growth on the trailing WINDOW >= 2 "
                     "levels only; the other growth classes read every level"))),
    "cobar": ("cobar cohomology over O(G)_{<=d}", (
        _GROUP, _MODULE, _DMAX,
        _Option("--nmax", "int", default=2, help="top cobar degree (default 2)"),
        *_OUTPUT)),
    "inject": ("levelwise injectivity profile", (_GROUP, _MODULE, _DMAX, *_OUTPUT)),
    "validate": ("validate a module or run the property suite", (
        _Option("--suite", "flag", default=False,
                help="run the full property suite instead of one module"),
        _MODULE, *_OUTPUT,
        _Option("--group", "str", help="group spec (required without --suite)"))),
}
_OPTIONS = {command: {opt.flag: opt for opt in options}
            for command, (_, options) in _GRAMMAR.items()}
_DEFAULTS = {command: {"command": command, **{opt.dest: opt.default for opt in options}}
             for command, (_, options) in _GRAMMAR.items()}


def _parse(argv):
    """The namespace argparse would give for `argv`, read straight off
    `_GRAMMAR`, or None when `argv` is not in canonical form: a subcommand,
    then its options spelled in full, each valued one followed by a value
    that does not begin with "-" and that its kind accepts, with every
    required option present.  Abbreviations, `--option=value`, `-h`, `--`,
    values such as -1 and every usage error are handed on to argparse, which
    decides them and words their messages."""
    options = _OPTIONS.get(argv[0]) if argv else None
    if options is None:
        return None
    values = dict(_DEFAULTS[argv[0]])
    i = 1
    while i < len(argv):
        opt = options.get(argv[i])
        if opt is None:
            return None
        if opt.kind == "flag":
            values[opt.dest] = True
            i += 1
            continue
        if i + 1 == len(argv) or argv[i + 1].startswith("-"):
            return None
        value = argv[i + 1]
        if opt.kind == "int":
            try:
                value = int(value)
            except ValueError:
                return None
        elif opt.kind != "str" and value not in opt.kind:
            return None
        values[opt.dest] = value
        i += 2
    # a required option defaults to None, and a given value is never None
    if any(opt.required and values[opt.dest] is None for opt in options.values()):
        return None
    return SimpleNamespace(**values)


@functools.cache
def _build_parser():
    """The argparse parser of `_GRAMMAR`, built once per process, and only
    for the argv that `_parse` hands on; parsing leaves it unchanged.  Its
    usage errors raise UsageError."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise UsageError(message)

    parser = Parser(prog="comodfilt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, options) in _GRAMMAR.items():
        p = sub.add_parser(command, help=summary)
        for opt in options:
            if opt.kind == "flag":
                p.add_argument(opt.flag, action="store_true", help=opt.help)
            else:
                p.add_argument(opt.flag, type=int if opt.kind == "int" else None,
                               choices=None if opt.kind in ("str", "int") else opt.kind,
                               required=opt.required, default=opt.default, help=opt.help)
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
    line and treated as a miss.  A record that does not exist (also when the
    cache path names a file) and a record from another engine version are
    silent misses.  The record is opened with no existence probe first, so
    one removed while it is looked up is a miss, not a read failure."""
    path = os.path.join(directory, fingerprint + ".json")
    try:
        with open(path) as fh:
            record = json.load(fh)
    except (FileNotFoundError, NotADirectoryError):
        return None
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
    rows = [{"d": d, "dim": res.dim, "subcoalgebra": res.is_subcoalgebra,
             "equals_level": res.dim == g.filtration_dim(d)}
            for d, res in enumerate(closure_ladder(g, args.dmax))]
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
    """Run one job from `argv` (default: sys.argv[1:]), print its answer and
    return the exit code.  Canonical argv is parsed by `_parse`; argparse is
    imported and built only for the rest, such as abbreviations, `-h` and
    usage errors."""
    args = None
    try:
        if argv is None:
            argv = sys.argv[1:]
        args = _parse(argv)
        if args is None:
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
