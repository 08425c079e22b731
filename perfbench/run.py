"""Benchmark driver: times the ``nlwe`` CLI on one workload.

    python3 perfbench/run.py --workload <verify-basis|upb-decide|bestate-ppt> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from
``src/``.  Each pass runs in a fresh interpreter (``one_pass.py``) with BLAS
pinned to one thread, and passes are repeated until ``--seconds`` have gone
by (at least three untraced passes, or one untraced and one traced).  All
passes must end within ``RUN_LIMIT_S`` of the run's start: no pass starts
with less time left than the longest one took, and a pass still running at
the limit stops there, its unfinished cases counted as failed and its time
as measured so far.  The last line of standard output is one JSON object,
with each metric's unit as ``BENCHMARK.json`` declares it:

- ``--trace 0``: medians over the passes of ``pass_s`` (wall time of the
  pass's cases), ``setup_s`` (fresh interpreter to ready: imports and input
  files) and ``peak_rss_mb`` (peak resident set of a pass process);
- ``--trace 1``: medians over traced passes of the per-layer metrics of
  ``spans.py``, plus ``trace.pass_s`` and ``trace.overhead_s`` (traced
  minus untraced median pass time).

``attempted`` counts CLI cases over all passes and ``failed`` those that
raised, exited 2, or whose output the oracle rejected; ``correct`` is false
when any output was rejected.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
ONE_PASS = os.path.join(HERE, "one_pass.py")
MIN_PASSES = 3
MIN_SETUPS = 7
RUN_LIMIT_S = 150
# Time a pass process gets past the limit to stop on its own before it is
# killed (a long numpy call delays the alarm until it returns).
GRACE_S = 15


def with_units(values, kind):
    """The ``kind`` metrics of BENCHMARK.json, each with its value and unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)[kind]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


class PassError(RuntimeError):
    pass


def run_pass(workload, seed, workdir, end_by, *options):
    """Spawn one pass process that stops its cases at monotonic time
    ``end_by``, and return its result with ``setup_s``."""
    os.makedirs(workdir)
    result_path = os.path.join(workdir, "result.json")
    cmd = [sys.executable, ONE_PASS, "--workload", workload, "--seed", str(seed),
           "--workdir", workdir, "--result", result_path, "--end-by", repr(end_by), *options]
    pythonpath = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=pythonpath, PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(end_by - spawned, 0.0) + GRACE_S)
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise PassError(f"pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_s"] = result["ready"] - spawned
    shutil.rmtree(workdir)
    return result


def summary(passes, metrics):
    failures = [f for p in passes for f in p["failures"]]
    for line in failures[:20]:
        print("FAILED:", line, file=sys.stderr)
    return {
        "correct": not any(p["wrong"] for p in passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }


def repeat(round_fn, min_rounds, seconds, end_by):
    """Call ``round_fn(index)`` until ``min_rounds`` calls are done and
    ``seconds`` have gone by, starting none with less time left before
    ``end_by`` than the longest call took."""
    rounds, longest = [], 0.0
    start = time.monotonic()
    while len(rounds) < min_rounds or time.monotonic() - start < seconds:
        if rounds and end_by - time.monotonic() < longest:
            break
        began = time.monotonic()
        rounds.append(round_fn(len(rounds)))
        longest = max(longest, time.monotonic() - began)
    return rounds


def timed_run(workload, seed, seconds, workdir, end_by):
    passes = repeat(lambda i: run_pass(workload, seed, os.path.join(workdir, f"pass-{i}"),
                                       end_by),
                    MIN_PASSES, seconds, end_by)
    setups = [p["setup_s"] for p in passes]
    while len(setups) < MIN_SETUPS:
        setups.append(run_pass(workload, seed, os.path.join(workdir, f"setup-{len(setups)}"),
                               end_by, "--setup-only")["setup_s"])
    print(f"{workload}: {len(passes)} passes, pass_s "
          + " ".join(f"{p['pass_s']:.3f}" for p in passes), file=sys.stderr)
    metrics = {
        "pass_s": statistics.median(p["pass_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return summary(passes, with_units(metrics, "end_to_end"))


def traced_run(workload, seed, seconds, workdir, spans_path, end_by):
    def pair(i):
        return (run_pass(workload, seed, os.path.join(workdir, f"plain-{i}"), end_by),
                run_pass(workload, seed, os.path.join(workdir, f"traced-{i}"), end_by,
                         "--spans", spans_path))

    plain, traced = zip(*repeat(pair, 1, seconds, end_by))
    values = {
        name: statistics.median(p["metrics"][name] for p in traced)
        for name in traced[0]["metrics"]
    }
    values["trace.pass_s"] = statistics.median(p["pass_s"] for p in traced)
    values["trace.overhead_s"] = values["trace.pass_s"] - statistics.median(
        p["pass_s"] for p in plain)
    return summary(plain + traced, with_units(values, "per_layer"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify-basis", "upb-decide", "bestate-ppt"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nlwe", "cli.py")):
        print(f"error: no nlwe sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    workdir = os.path.join(HERE, "work", f"{args.workload}-{os.getpid()}")
    end_by = time.monotonic() + RUN_LIMIT_S
    try:
        if args.trace:
            spans_dir = os.path.join(HERE, "traces")
            os.makedirs(spans_dir, exist_ok=True)
            spans_path = os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.json")
            result = traced_run(args.workload, args.seed, args.seconds, workdir, spans_path,
                                end_by)
        else:
            result = timed_run(args.workload, args.seed, args.seconds, workdir, end_by)
    except (PassError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
