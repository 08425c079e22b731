"""Reference figure for ``nlwe --threads``: ``upb check`` on the unextendible
product UPBs of the upb-decide workload at 1 and at 2 threads.

    OPENBLAS_NUM_THREADS=1 python3 perfbench/threads_ref.py

This is a measurement, not a workload, so that the benchmark keeps working
if the option goes away.  Thread counts alternate within each of
``REPEATS`` repeats; the medians of wall time per input are printed as JSON.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import nlwe.cli  # noqa: E402

import inputs  # noqa: E402
import workloads  # noqa: E402

REPEATS = 5


def timed_check(path, threads):
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        rc = nlwe.cli.main(["--threads", str(threads), "upb", "check", "--in", path])
    elapsed = time.perf_counter() - start
    if rc != 0 or not out.getvalue().startswith("unextendible"):
        raise RuntimeError(f"{path} at {threads} threads: exit {rc}")
    return elapsed


def main():
    report = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for name in workloads.DECIDE_PRODUCTS:
            path = os.path.join(tmp, f"{name}.json")
            inputs.write_upb(path, inputs.product_upb(name))
            times = {1: [], 2: []}
            for r in range(REPEATS):
                for threads in ((1, 2) if r % 2 == 0 else (2, 1)):
                    times[threads].append(timed_check(path, threads))
            report[name] = {f"threads_{t}_s": statistics.median(v) for t, v in times.items()}
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
