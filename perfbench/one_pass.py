"""One pass over a workload's cases in a fresh interpreter.

    python3 perfbench/one_pass.py --workload W --seed N --workdir DIR \
        --result FILE --end-by T [--spans FILE | --setup-only]

Set-up imports ``nlwe.cli`` (and numpy) and writes the pass's input files;
the monotonic clock reading when set-up ends is reported as ``ready``, so
the launching process can time it from the spawn.  The cases then run
in-process through ``nlwe.cli.main``, one after another, and are timed
together; the peak resident set is read before the oracle checks the
outputs.  The cases stop at monotonic time ``--end-by``: the case running
then and every later one count as failed, and the pass time is the time
until then.  With ``--spans`` the program is traced and the spans are written
to that file; with ``--setup-only`` the process stops once it is ready.
The result is one JSON object written to ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import time
import traceback


class PassTimeout(BaseException):
    """Raised by the alarm at ``--end-by``; not an ``Exception``, so that
    no handler in the program under test takes it for its own error."""


def _time_out(signum, frame):
    raise PassTimeout


def run_case(main, argv):
    """(exit code or None if the command raised, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash of the program under test is a failed case
        rc = None
        err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--end-by", type=float, required=True)
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import nlwe.cli

    import workloads

    cases = workloads.build(args.workload, args.seed, args.workdir)
    ready = time.monotonic()
    if args.setup_only:
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump({"ready": ready}, fh)
        return

    tracer = None
    if args.spans:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    outputs = []
    signal.signal(signal.SIGALRM, _time_out)
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, max(args.end_by - time.monotonic(), 1e-3))
        for index, case in enumerate(cases):
            if tracer:
                tracer.case = index
            outputs.append(run_case(nlwe.cli.main, case["argv"]))
        signal.setitimer(signal.ITIMER_REAL, 0)
    except PassTimeout:
        pass
    pass_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()

    failures = [f"{' '.join(case['argv'])}: stopped at the run's time limit after "
                f"{pass_s:.1f} s" for case in cases[len(outputs):]]
    wrong = False
    for case, (rc, stdout, stderr) in zip(cases, outputs):
        command = " ".join(case["argv"])
        if rc not in (0, 1):
            failures.append(f"{command}: exit {rc}: {stderr.strip()[-400:]}")
            continue
        try:
            problems = case["check"](rc, stdout)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            problems = [f"output unreadable: {exc!r}"]
        if problems:
            wrong = True
            failures.append(f"{command}: " + "; ".join(problems))

    result = {
        "ready": ready,
        "pass_s": pass_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(cases),
        "failed": len(failures),
        "wrong": wrong,
        "failures": failures,
    }
    if tracer:
        result["metrics"] = tracer.metrics()
        tracer.dump(args.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
