"""Checks of the benchmark itself: python3 -m pytest bench/test_bench.py -q"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

import reference
import run
from tracer import Tracer
from workloads import WORKLOADS


def test_every_job_has_a_reference():
    pins = reference.load_pins()
    for workload in WORKLOADS.values():
        for job in workload.jobs:
            assert reference.oracle(job) is not None or job in pins, job
            if reference.needs_pin(job):
                assert job in pins, job


def test_oracle_rejects_a_wrong_row():
    job = "closure SL:2@p=65521 d3"
    rows = [{"d": d, "dim": reference.level_dim("SL:2@p=65521", d),
             "equals_level": True, "subcoalgebra": True} for d in range(4)]
    good = json.dumps({"rows": rows, "verdicts": {}})
    assert reference.check(job, good, {}) == []
    rows[2]["dim"] += 1
    bad = json.dumps({"rows": rows, "verdicts": {}})
    assert reference.check(job, bad, {}) == ["oracle .rows[2].dim: 15 != 14"]


def test_corrupted_pin_row_is_reported_as_failure():
    pins = copy.deepcopy(reference.load_pins())
    job = "cobar Ga@p=2 triv d8 n2"
    pins[job]["rows"][2]["dim"] += 1
    out = run.run_workload("cache_replay", seed=0, seconds=0, trace=False, pins=pins)
    repeats = WORKLOADS["cache_replay"].repeats
    assert len(out["problems"]) == repeats
    assert all(p.startswith(job + ": pin .rows[2].dim") for p in out["problems"])
    assert out["facts"]["failed_frac"] == repeats / out["attempted"]


def test_traced_run_keeps_payloads_and_reports_every_layer():
    out = run.run_workload("module_algebra", seed=3, seconds=0, trace=True)
    assert out["problems"] == []
    names = set(run.LAYER_METRICS) | {"trace.coverage", "trace.overhead_s"}
    assert set(out["metrics"]) == names
    assert out["metrics"]["trace.coverage"][0] >= 0.9
    assert out["metrics"]["coordalg.coproduct_mono.calls"][0] > 0


def test_tracer_patches_imported_bindings():
    sys.path.insert(0, run.SRC)
    try:
        from comodfilt import cli, cobar, filtration, linalg
    finally:
        sys.path.remove(run.SRC)
    originals = (filtration.kernel, cobar.matrank, cli.coalgebra_closure)
    tracer = Tracer()
    tracer.install()
    try:
        for fn in (filtration.kernel, filtration.preimage, cobar.kernel,
                   cobar.matrank, cobar.restrict, cli.coalgebra_closure,
                   linalg.Subspace.coords, linalg.IncrementalRREF.add_rows):
            assert hasattr(fn, "__wrapped__"), fn
        linalg.kernel(linalg.as_matrix([[1, 1]], 2, 2), 2)
    finally:
        tracer.uninstall()
    assert (filtration.kernel, cobar.matrank, cli.coalgebra_closure) == originals
    names = [span[0] for span in tracer.spans]
    assert names[0] == "linalg.kernel" and "linalg.rref" in names


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    bench_json = os.path.join(run.ROOT, "BENCHMARK.json")
    if os.path.exists(bench_json):
        shutil.copy(bench_json, tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "cache_replay", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("pct,expected", [(0, 1.0), (50, 2.5), (100, 4.0)])
def test_percentile(pct, expected):
    assert run.percentile([4.0, 1.0, 3.0, 2.0], pct) == expected


@pytest.mark.parametrize("values,expected", [([5.0], 5.0), ([1.0, 9.0], 5.0),
                                             ([100.0, 2.0, 1.0, 3.0], 2.5)])
def test_midmean_drops_the_outer_quarters(values, expected):
    assert run.midmean(values) == expected
