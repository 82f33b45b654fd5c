"""comodfilt benchmark: time to an exact, checked answer for fixed job mixes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One closed-loop client runs passes over the
workload's job list, each pass in a fresh interpreter (bench/child.py) that
imports comodfilt from ./src and calls `comodfilt.cli.main(argv)` once per
job.  Passes start until S seconds have gone by.  Every answer is checked
against the references in bench/reference.py.

Times are reported at a fixed reference speed of the host: each pass also
times a fixed calibration piece after set-up and after every job, and each
wall time is divided by how much slower than CAL_REF_S the pieces around it
ran.  The wall times themselves are printed on the `wall` line.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced passes (bench/tracer.py wraps the layers from outside) and reports
the per-layer metrics, the tracing overhead and coverage, and checks that
tracing changes no payload byte.  The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it give the
machine and run facts and each metric with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP = os.path.join(ROOT, ".bench_tmp")
sys.path.insert(0, HERE)

from reference import check, load_pins  # noqa: E402
from workloads import WORKLOADS, argv_of, groups_of, pass_requests  # noqa: E402

# a run must end well inside the 180 s a caller allows it
DEADLINE_S = 170.0
# set-up is sampled at least this many times per run (extra set-up-only
# interpreters are started when there are fewer passes)
MIN_SETUP_SAMPLES = 7
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}

# Seconds one bench/child.py calibrate() call takes at the reference speed,
# about the host's median speed when the benchmark was defined.  On a shared
# host the CPU speed can swing by 30-40% for minutes at a time; scaling by the
# pass's own calibration times removes most of that swing (bench/README.md,
# "Noise and the speed reference").
CAL_REF_S = 0.0015

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "job_p50_s": "s",
                    "job_tail_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> (unit, how to read it from a traced pass's summary)
LAYER_METRICS = {
    "coordalg.coproduct_mono.calls": ("count", ("calls", "coordalg.coproduct_mono")),
    "coordalg.coproduct_mono.self_s": ("s", ("self_s", "coordalg.coproduct_mono")),
    "coordalg.reduce_dict.calls": ("count", ("calls", "coordalg.reduce_dict")),
    "coordalg.reduce_dict.self_s": ("s", ("self_s", "coordalg.reduce_dict")),
    "coordalg.product.calls": ("count", ("calls", "coordalg.product")),
    "coordalg.antipode.self_s": ("s", ("self_s", "coordalg.antipode")),
    "comodules.build_module.self_s": ("s", ("self_s", "comodules.build_module")),
    "comodules.validate.calls": ("count", ("calls", "comodules.validate")),
    "comodules.validate.self_s": ("s", ("self_s", "comodules.validate")),
    "comodules.generate.self_s": ("s", ("self_s", "comodules.generate")),
    "linalg.rref.calls": ("count", ("calls", "linalg.rref")),
    "linalg.rref.self_s": ("s", ("self_s", "linalg.rref")),
    "linalg.rref.cells": ("count", ("counter", "linalg.rref.cells")),
    "linalg.kernel.calls": ("count", ("calls", "linalg.kernel")),
    "linalg.kernel.self_s": ("s", ("self_s", "linalg.kernel")),
    "linalg.coords.calls": ("count", ("calls", "linalg.coords")),
    "linalg.coords.self_s": ("s", ("self_s", "linalg.coords")),
    "linalg.intersect.self_s": ("s", ("self_s", "linalg.intersect")),
    "linalg.preimage.self_s": ("s", ("self_s", "linalg.preimage")),
    "linalg.add_rows.calls": ("count", ("calls", "linalg.add_rows")),
    "linalg.add_rows.self_s": ("s", ("self_s", "linalg.add_rows")),
    "linalg.add_rows.rows": ("count", ("counter", "linalg.add_rows.rows")),
    "linalg.matmul_mod.calls": ("count", ("calls", "linalg.matmul_mod")),
    "linalg.matmul_mod.flops": ("flop", ("counter", "linalg.matmul_mod.flops")),
    "filtration.restrict.calls": ("count", ("calls", "filtration.restrict")),
    "filtration.restrict.self_s": ("s", ("self_s", "filtration.restrict")),
    "filtration.restrict.iterations": ("count",
                                       ("counter", "filtration.restrict.iterations")),
    "filtration.restrict.validate_s": ("s", ("restrict_validate_s", None)),
    "filtration.coalgebra_closure.calls": ("count",
                                           ("calls", "filtration.coalgebra_closure")),
    "filtration.coalgebra_closure.self_s": ("s",
                                            ("self_s", "filtration.coalgebra_closure")),
    "cobar.subcoalgebra.self_s": ("s", ("self_s", "cobar.subcoalgebra")),
    "cobar.cobar_complex.self_s": ("s", ("self_s", "cobar.cobar_complex")),
    "cobar.cobar_complex.diff_bytes": ("B", ("counter", "cobar.cobar_complex.diff_bytes")),
    "cobar.cohomology_dims.self_s": ("s", ("self_s", "cobar.cohomology_dims")),
    "cobar.injective_test.calls": ("count", ("calls", "cobar.injective_test")),
    "cobar.injective_test.self_s": ("s", ("self_s", "cobar.injective_test")),
    "growth.classify.self_s": ("s", ("self_s", "growth.classify")),
    "suites.run_property_suite.s": ("s", ("s", "suites.run_property_suite")),
    "cli.main.self_s": ("s", ("self_s", "cli.main")),
    "cli.cache_lookup.calls": ("count", ("calls", "cli.cache_lookup")),
    "cli.cache_lookup.self_s": ("s", ("self_s", "cli.cache_lookup")),
    "cli.cache_store.calls": ("count", ("calls", "cli.cache_store")),
    "cli.cache_store.self_s": ("s", ("self_s", "cli.cache_store")),
    "cli.cache_hit_ratio": ("ratio", ("hit_ratio", None)),
}


class BenchError(RuntimeError):
    pass


def _layer_value(summary: dict, how) -> float:
    kind, key = how
    if kind == "counter":
        return summary["counters"].get(key, 0)
    if kind == "restrict_validate_s":
        return summary["restrict_validate_s"]
    if kind == "hit_ratio":
        lookups = summary["spans"].get("cli.cache_lookup", {}).get("calls", 0)
        hits = summary["counters"].get("cli.cache_lookup.hits", 0)
        return hits / lookups if lookups else 0.0
    return summary["spans"].get(key, {}).get(kind, 0)


def midmean(values) -> float:
    """Mean of the middle half of a non-empty sample (the interquartile mean).

    Pass times on a shared host fall into a fast and a slow mode whose mix
    drifts; the median jumps between the modes when the mix is near even,
    while the middle-half mean moves with the mix and still drops outliers.
    """
    xs = sorted(values)
    cut = len(xs) // 4
    return statistics.fmean(xs[cut:len(xs) - cut])


def ref_times(result: dict) -> list[float]:
    """A pass's job times at the reference speed: each job's wall time divided
    by the slowdown that the calibration pieces just before and just after
    it measured.  The piece before the first job is the last set-up one."""
    cals = [result["setup_cal"][-1]] + result["cals"]
    return [t * 2 * CAL_REF_S / (before + after)
            for t, before, after in zip(result["times"], cals, cals[1:])]


def ref_setup_s(result: dict) -> float:
    """Set-up time at the reference speed, from the pieces run after set-up."""
    return result["setup_s"] * CAL_REF_S / statistics.median(result["setup_cal"])


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolation percentile of a non-empty sample."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Runner:
    """Starts the pass interpreters of one run and keeps their results."""

    def __init__(self, workload, seed: int, pins: dict):
        self.workload = workload
        self.seed = seed
        self.pins = pins
        self.groups = groups_of(workload)
        self.started = time.perf_counter()
        self.passes = 0
        self.env = {**os.environ, **BLAS_ENV}
        for key in ("PYTHONPATH", "COMODFILT_CONFIG", "COMODFILT_CACHE"):
            self.env.pop(key, None)

    def child(self, jobs: list[list[str]], trace: bool) -> dict:
        left = DEADLINE_S - (time.perf_counter() - self.started)
        if left <= 0:
            raise BenchError("run exceeded its deadline")
        request = json.dumps({"src": SRC, "groups": self.groups, "jobs": jobs,
                              "trace": trace})
        try:
            proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py")],
                                  input=request, capture_output=True, text=True,
                                  env=self.env, cwd=ROOT, timeout=left)
        except subprocess.TimeoutExpired as exc:
            raise BenchError("a pass did not finish before the deadline") from exc
        if proc.returncode != 0:
            raise BenchError(f"pass interpreter failed ({proc.returncode}):\n"
                             f"{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def one_pass(self, trace: bool, requests: list[str]) -> dict:
        """Run the requests in a fresh interpreter; cache jobs get a fresh dir."""
        cache_dir = None
        if self.workload.repeats:
            os.makedirs(TMP, exist_ok=True)
            cache_dir = tempfile.mkdtemp(prefix="cache-", dir=TMP)
        flags = ["--cache", cache_dir] if cache_dir else ["--no-cache"]
        try:
            result = self.child([argv_of(job) + flags for job in requests], trace)
        finally:
            if cache_dir:
                shutil.rmtree(cache_dir, ignore_errors=True)
                with contextlib.suppress(OSError):  # another run may still use it
                    os.rmdir(TMP)
        result["requests"] = requests
        return result

    def next_requests(self) -> list[str]:
        requests = pass_requests(self.workload, self.seed, self.passes)
        self.passes += 1
        return requests

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def failures(self, result: dict, untraced: dict | None = None) -> list[str]:
        """One line per failed job of a pass.  A traced pass is also compared
        byte for byte with the untraced pass that ran the same requests."""
        out = []
        for i, (job, code, text) in enumerate(zip(
                result["requests"], result["codes"], result["payloads"])):
            msgs = [f"exit code {code}"] if code != 0 else check(job, text, self.pins)
            if untraced is not None and text != untraced["payloads"][i]:
                msgs.append("traced payload differs from untraced")
            if msgs:
                out.append(f"{job}: " + "; ".join(msgs))
        return out


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 pins: dict | None = None) -> dict:
    """Run one workload for `seconds`; returns metrics, counts and facts."""
    workload = WORKLOADS[name]
    runner = Runner(workload, seed, load_pins() if pins is None else pins)
    plain, traced, problems = [], [], []
    while not plain or runner.elapsed() < seconds:
        requests = runner.next_requests()
        plain.append(runner.one_pass(False, requests))
        problems += runner.failures(plain[-1])
        if trace:
            traced.append(runner.one_pass(True, requests))
            problems += runner.failures(traced[-1], untraced=plain[-1])
    setup_runs = plain + traced
    while not trace and len(setup_runs) < MIN_SETUP_SAMPLES:
        setup_runs.append(runner.child([], trace=False))
    setups = [ref_setup_s(r) for r in setup_runs]
    for r in plain + traced:
        r["ref_times"] = ref_times(r)
        r["ref_run_s"] = sum(r["ref_times"])

    attempted = sum(len(r["requests"]) for r in plain + traced)
    per_job: dict[str, list[float]] = {}
    for r in plain:
        for job, t in zip(r["requests"], r["ref_times"]):
            per_job.setdefault(job, []).append(t)
    times = [t for ts in per_job.values() for t in ts]
    tail = percentile(times, workload.tail_pct)
    first = plain[0]
    facts = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "nproc": os.cpu_count(), "python": first["python"],
        "numpy": first["numpy"], "blas_threads": first["blas_threads"],
        "blas_env": BLAS_ENV, "commit": git_commit(),
        "passes": len(plain), "traced_passes": len(traced),
        "jobs_per_pass": len(first["requests"]),
        "setup_samples": len(setups),
        "job_tail_pct": workload.tail_pct, "job_samples": len(times),
        "job_samples_beyond_tail": sum(t > tail for t in times),
        "failed_frac": len(problems) / attempted,
        "job_median_s": {job: statistics.median(ts) for job, ts in per_job.items()},
        "slowdown": statistics.median(r["run_s"] / r["ref_run_s"] for r in plain),
        "wall_run_s": midmean(r["run_s"] for r in plain),
        "wall_setup_s": statistics.median(r["setup_s"] for r in setup_runs),
    }
    if workload.repeats:
        facts["cache_hit_ratio"] = 1 - 1 / workload.repeats
    if trace:
        metrics = {metric: (statistics.median(_layer_value(r["trace"], how)
                                              for r in traced), unit)
                   for metric, (unit, how) in LAYER_METRICS.items()}
        traced_run = midmean(r["ref_run_s"] for r in traced)
        metrics["trace.coverage"] = (statistics.median(
            r["trace"]["top_level_s"] / r["run_s"] for r in traced), "ratio")
        metrics["trace.overhead_s"] = (
            traced_run - midmean(r["ref_run_s"] for r in plain), "s")
    else:
        values = {
            "setup_s": statistics.median(setups),
            "run_s": midmean(r["ref_run_s"] for r in plain),
            "job_p50_s": statistics.median(times),
            "job_tail_s": tail,
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    return {"metrics": metrics, "attempted": attempted, "problems": problems,
            "facts": facts}


def git_commit() -> str:
    """HEAD of the repository at ROOT, or "unknown" outside a git checkout."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "comodfilt", "__init__.py")):
        print(f"error: no comodfilt sources under {SRC}", file=sys.stderr)
        return 2
    try:
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("facts " + json.dumps(out["facts"], sort_keys=True))
    for problem in out["problems"]:
        print(f"FAILED {problem}")
    facts = out["facts"]
    print(f"wall run_s {facts['wall_run_s']} s, setup_s {facts['wall_setup_s']} s "
          f"(unscaled; host slowdown {facts['slowdown']:.3f})")
    print(f"failed_frac {facts['failed_frac']} ratio "
          f"({len(out['problems'])} of {out['attempted']} jobs)")
    for name, (value, unit) in out["metrics"].items():
        note = ""
        if name == "job_tail_s":
            note = (f" (p{facts['job_tail_pct']} of {facts['job_samples']} job "
                    f"samples, {facts['job_samples_beyond_tail']} beyond it)")
        print(f"{name} {value} {unit}{note}")
    failed = len(out["problems"])
    print(json.dumps({
        "correct": failed == 0, "attempted": out["attempted"], "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
