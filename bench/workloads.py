"""The benchmark's job mixes.

Why each workload exists is in bench/README.md.  A job is written as
`command group [module] dN [nN]`, for example `filter GL:2@p=2 regular(4) d3`
or `validate --suite`.  The engine only ever sees the CLI argv built from it
by `argv_of`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple[str, ...]
    # percentile reported as job_tail_s; fixed per workload so that a run of
    # the benchmark's run_seconds leaves at least ten job samples beyond it
    tail_pct: int
    # cache_replay only: every distinct job is requested this many times
    repeats: int = 0


FILTRATION_SWEEP = Workload(
    "filtration_sweep",
    (
        "filter GL:2@p=2 regular(4) d3",
        "filter SL:3@p=2 regular(2) d3",
        "filter U:3@p=3 regular(4) d4",
        "filter Gm@p=3 tensor(regular(2),dual(regular(2))) d4",
        "filter GL:2@p=5 tensor(natural,detpow(-1)) d3",
        "closure GL:2@p=2 d4",
        "closure SL:3@p=2 d2",
        "closure U:3@p=2 d4",
        "closure SL:2@p=65521 d3",
        "growth GL:2@p=2 twiststream(1) d16",
        "growth Ga@p=2 polyaffine(3) d7",
        "growth Ga@p=3 primitives d27",
    ),
    tail_pct=70,
)

COBAR_INJECT = Workload(
    "cobar_inject",
    (
        "cobar Gm@p=3 dual(regular(2)) d2 n3",
        "cobar Ga@p=2 regular(2) d4 n3",
        "cobar U:3@p=2 natural d2 n2",
        "cobar GL:2@p=2 natural d1 n3",
        "cobar Ga@p=2 triv d8 n2",
        "inject U:3@p=3 regular(3) d3",
        "inject SL:2@p=2 regular(3) d3",
        "inject GL:2@p=2 regular(2) d2",
        "inject Ga@p=2 translationinvariants d8",
    ),
    tail_pct=70,
)

MODULE_ALGEBRA = Workload(
    "module_algebra",
    (
        "validate GL:3@p=2 tensor(natural,dual(natural))",
        "validate SL:3@p=2 tensor(natural,dual(natural))",
        "validate GL:2@p=2 regular(4)",
        "validate U:4@p=2 regular(3)",
        "validate GL:2@p=3 sym(2,natural)",
        "validate GL:2@p=5 tensor(natural,detpow(-1))",
        "validate SL:2@p=3 sym(3,natural)",
        "validate SL:2@p=5 dual(sym(2,natural))",
        "validate U:3@p=3 tensor(natural,dual(natural))",
        "validate U:2@p=5 regular(3)",
        "validate M:2@p=3 sym(2,natural)",
        "validate M:3@p=2 tensor(natural,natural)",
        "validate Gm@p=5 sum(regular(2),dual(regular(2)))",
        "validate Gm@p=3 tensor(regular(2),regular(1))",
        "validate Ga@p=2 twist(1,regular(2))",
        "validate Ga@p=3 sum(regular(3),twist(1,regular(1)))",
        "validate Ga@p=5 tensor(regular(2),dual(regular(2)))",
        "validate GL:2@p=2 twiststream(1)",
        "validate Ga@p=2 polyaffine(2)",
        "validate Ga@p=3 primitives",
        "validate Ga@p=2 translationinvariants",
        "validate U:2@p=2 sum(natural,twist(1,natural))",
        "dims GL:3@p=2 d12",
        "dims SL:3@p=3 d12",
        "validate --suite",
    ),
    tail_pct=95,
)

CACHE_REPLAY = Workload(
    "cache_replay",
    (
        "filter Gm@p=3 tensor(regular(2),dual(regular(2))) d4",
        "filter GL:2@p=5 tensor(natural,detpow(-1)) d3",
        "growth Ga@p=3 primitives d27",
        "cobar Ga@p=2 triv d8 n2",
        "cobar GL:2@p=2 natural d1 n3",
        "inject Ga@p=2 translationinvariants d8",
        "validate GL:2@p=3 sym(2,natural)",
        "validate SL:2@p=3 sym(3,natural)",
        "validate U:3@p=3 tensor(natural,dual(natural))",
        "validate Ga@p=3 sum(regular(3),twist(1,regular(1)))",
        "validate GL:2@p=2 twiststream(1)",
        "dims SL:3@p=3 d12",
    ),
    tail_pct=99,
    repeats=5,
)

WORKLOADS = {w.name: w for w in (FILTRATION_SWEEP, COBAR_INJECT, MODULE_ALGEBRA,
                                 CACHE_REPLAY)}


def argv_of(job: str) -> list[str]:
    """CLI argv for a job, without the cache flags."""
    command, *rest = job.split()
    argv = [command]
    if rest == ["--suite"]:
        return argv + rest
    argv += ["--group", rest[0]]
    for token in rest[1:]:
        if token[0] in "dn" and token[1:].isdigit():
            argv += ["--dmax" if token[0] == "d" else "--nmax", token[1:]]
        else:
            argv += ["--module", token]
    return argv


def groups_of(workload: Workload) -> list[str]:
    """Group specs named by the workload's jobs, in first-use order."""
    seen = {}
    for job in workload.jobs:
        rest = job.split()[1:]
        if rest != ["--suite"]:
            seen.setdefault(rest[0], None)
    return list(seen)


def pass_requests(workload: Workload, seed: int, index: int) -> list[str]:
    """The job sequence of one pass: a seeded shuffle of the job list.

    Odd passes replay the previous pass in reverse.  Jobs that share lazily
    built state (a group's reducers, cached antipodes) then pay the cold cost
    once each per pair of passes, so the seed moves the medians less.
    For cache_replay every job appears `repeats` times, so the first request
    of each job misses and the hit ratio is fixed at 1 - 1/repeats.
    """
    rng = random.Random(seed * 1_000_003 + index // 2)
    requests = list(workload.jobs) * max(1, workload.repeats)
    rng.shuffle(requests)
    return requests[::-1] if index % 2 else requests
