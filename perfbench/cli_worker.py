"""Solve a plan of instance files through `bnsl.cli.main`, one at a time.

Runs in a fresh interpreter per benchmark run, so its peak RSS belongs to
the solver and not to instance generation.  The peak is VmHWM, which
belongs to the memory map that exec made for this interpreter; getrusage's
ru_maxrss would carry over the parent's high-water mark through fork and
exec.  For each solve it records the wall time of `cli.main`, its exit
code, stdout and stderr (the solver's info line), and the time of a fixed
pure-Python reference loop run right before and right after it (the loop
after one solve is the loop before the next).  The benchmark divides solve
times by the reference loop, which follows the speed changes of a shared
machine within seconds.

Usage: python3 perfbench/cli_worker.py PLAN.json RESULTS.json
"""

import contextlib
import gc
import io
import json
import sys
import time

REF_ITERATIONS = 1_000_000


def reference_loop() -> float:
    t0 = time.perf_counter()
    x = 0
    for i in range(REF_ITERATIONS):
        x += i & 7
    return time.perf_counter() - t0


def peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024  # kB
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(plan_path: str, results_path: str) -> int:
    with open(plan_path, encoding="utf-8") as f:
        plan = json.load(f)
    from bnsl import cli

    results = []
    ref = reference_loop()
    for item in plan:
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        code, error = None, None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(item["argv"])
        except SystemExit as e:  # argparse usage errors
            code = e.code
        except Exception as e:  # a crash is a counted failure, not the end of the run
            error = f"{type(e).__name__}: {str(e)[:200]}"
        seconds = time.perf_counter() - t0
        after = reference_loop()
        results.append({
            "id": item["id"],
            "seconds": seconds,
            "ref_before": ref,
            "ref_after": after,
            "code": code,
            "error": error,
            "stdout": out.getvalue(),
            "stderr": err.getvalue(),
        })
        ref = after
    with open(results_path, "w", encoding="utf-8") as f:
        json.dump({"solves": results, "peak_rss_mb": peak_rss_mb()}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
