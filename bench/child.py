"""One pass of a workload in a fresh interpreter.

Reads a JSON request on stdin:
    {"src": <dir holding the comodfilt package>, "groups": [...],
     "jobs": [[argv...], ...], "trace": bool}
imports comodfilt, builds the groups (timed as set-up), then calls
`comodfilt.cli.main(argv)` once per job with stdout captured, and prints one
JSON line with the timings, exit codes and payloads.  A fresh process per
pass matters: the group cache, the normal-form reducers and the cached
antipodes are process-wide, so every CLI call and user script starts cold.

After set-up and after every job, outside the timed intervals, the pass runs
`calibrate()`, a fixed piece of work that shares no code with comodfilt.  Its
times record how fast the host ran while the pass ran (see bench/README.md,
"Noise and the speed reference").
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import resource
import sys
import time
import traceback

_TIMESTAMP = re.compile(r'^\s*"timestamp": "[^"]*",?\n', re.MULTILINE)
# set-up is one interval, so it gets several calibrations of its own
SETUP_CALIBRATIONS = 5


def blas_threads() -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, if it can be asked."""
    import ctypes
    import glob

    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def calibrate() -> float:
    """Seconds taken by a fixed mix of dict-heavy Python and small numpy
    products, the two kinds of work the engine does."""
    import numpy as np

    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(3000):
        key = i * 7919 % 1021
        counts[key] = counts.get(key, 0) + i * i % 13
    a = np.arange(1024, dtype=np.int64).reshape(32, 32) % 5
    for _ in range(10):
        a = (a @ a + 1) % 5
    return time.perf_counter() - t0


def main() -> int:
    request = json.load(sys.stdin)
    start = time.perf_counter()
    sys.path.insert(0, request["src"])
    import comodfilt
    from comodfilt import cli
    from comodfilt.coordalg import group_from_spec

    for spec in request["groups"]:
        group_from_spec(spec)
    setup_s = time.perf_counter() - start
    setup_cal = [calibrate() for _ in range(SETUP_CALIBRATIONS)]
    src = os.path.realpath(request["src"])
    if not os.path.realpath(comodfilt.__file__).startswith(src + os.sep):
        print(f"comodfilt imported from {comodfilt.__file__}, not {src}",
              file=sys.stderr)
        return 1

    tracer = None
    if request["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    times, codes, payloads, cals = [], [], [], []
    for argv in request["jobs"]:
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        except Exception:  # an escaped exception is a failed job, not a crash
            traceback.print_exc()
            code = -1
        times.append(time.perf_counter() - t0)
        codes.append(code)
        payloads.append(_TIMESTAMP.sub("", buf.getvalue()))
        cals.append(calibrate())

    import numpy as np

    result = {
        "setup_s": setup_s,
        "setup_cal": setup_cal,
        "run_s": sum(times),
        "times": times,
        "cals": cals,
        "codes": codes,
        "payloads": payloads,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "trace": tracer.summary() if tracer else None,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
