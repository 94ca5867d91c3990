"""Seeded solve benchmark for `bnsl solve`.

    python3 perfbench/run.py --workload dag-explicit --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; `bnsl` is imported from `src/`.
Set-up generates the workload's instance files from the seed.  The solves
then run in a fresh interpreter (perfbench/cli_worker.py), one at a time,
through `bnsl.cli.main(["solve", ...])`: a closed loop with one caller and
no threads.  Every solve is checked afterwards (perfbench/checks.py).

--trace 0 prints the end-to-end metrics.  --trace 1 also replays the same
instances layer by layer in another fresh interpreter
(perfbench/trace_worker.py) and prints the per-layer metrics instead.

Human-readable lines come first; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}.  Any fault of the benchmark
itself exits with a non-zero code and prints no JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from cli_worker import reference_loop

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEADLINE_S = 170  # every run must end within 180 s

# setup_s is in seconds at the machine speed where the reference loop takes
# this long: the machine's speed drifts by 30% and more over minutes, and
# set-up times are compared between runs made far apart.
REF_LOOP_S = 0.05

# End-to-end metrics in the result line (BENCHMARK.json "end_to_end").  The
# others are printed only: on a shared 2-core machine their run-to-run spread
# exceeds any allowed bound (see README.md).
GATED = ("setup_s", "wall_ref", "ok_frac", "peak_rss_mb")

# per-layer metric -> span name whose self time it sums
SPAN_METRICS = {
    "instances.parse_s": "instances.parse",
    "instances.check_s": "instances.check",
    "kernel.kernelize_s": "kernel.kernelize",
    "kernel.lift_s": "kernel.lift",
    "graphs.lfen_search_s": "graphs.lfen_search",
    "graphs.td_s": "graphs.td",
    "lfen_dp.solve_s": "lfen_dp.solve",
    "tw_dp.solve_s": "tw_dp.solve",
    "polytree.matroid_s": "polytree.matroid",
    "polytree.mst_s": "polytree.mst",
}


def in_ref_units(step):
    """Run step(); return its result, its seconds, and its seconds divided by
    the mean of the reference loops timed right before and after it."""
    before = reference_loop()
    t0 = time.perf_counter()
    result = step()
    seconds = time.perf_counter() - t0
    return result, seconds, seconds / ((before + reference_loop()) / 2)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["dag-explicit", "dag-additive", "polytree"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def run_worker(script, plan_path, out_path, deadline):
    """Run a worker in a fresh interpreter and load what it wrote."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("time budget used up before " + script)
    proc = subprocess.run(
        [sys.executable, str(HERE / script), str(plan_path), str(out_path)],
        cwd=ROOT, env=env, timeout=timeout, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{script} exited with {proc.returncode}:\n{proc.stderr}")
    with open(out_path, encoding="utf-8") as f:
        return json.load(f)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(setup_s, solves, peak_rss_mb, failed):
    """Every end-to-end figure; the gated ones are listed in GATED."""
    times = [s["seconds"] for s in solves]
    # each solve in units of the reference loop timed around it
    in_ref = [s["seconds"] / ((s["ref_before"] + s["ref_after"]) / 2) for s in solves]
    return {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(sum(times), "s"),
        "wall_ref": metric(sum(in_ref), "ref"),
        "solve_s.p50": metric(statistics.median(times), "s"),
        "solve_s.max": metric(max(times), "s"),
        "ok_frac": metric((len(solves) - failed) / len(solves), "frac"),
        "fail_frac": metric(failed / len(solves), "frac"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }


def per_layer(trace, wall_s):
    spans = trace["spans"]
    self_s = [end - start for _, _, _, start, end in spans]
    for _, _, parent, start, end in spans:
        if parent is not None:
            self_s[parent] -= end - start
    by_name = Counter()
    for (name, *_), s in zip(spans, self_s):
        by_name[name] += s
    out = {m: metric(by_name[name], "s") for m, name in SPAN_METRICS.items()}

    counts = [r["counts"] for r in trace["replays"]]

    def total(layer, key):
        return sum(c[layer][key] for c in counts if layer in c)

    def peak(layer, key):
        return max((c[layer][key] for c in counts if layer in c), default=0)

    lfen = [c["lfen"] for c in counts if "lfen" in c]
    out.update({
        "kernel.n_in": metric(total("kernel", "n_in"), "count"),
        "kernel.n_out": metric(total("kernel", "n_out"), "count"),
        "kernel.steps": metric(total("kernel", "steps"), "count"),
        "graphs.lfen_max": metric(peak("lfen", "value"), "count"),
        "graphs.lfen_exact_frac": metric(
            sum(w["exact"] for w in lfen) / len(lfen) if lfen else 0.0, "frac"),
        "graphs.td_width_max": metric(peak("td", "width"), "count"),
        "graphs.td_nodes": metric(total("td", "nodes"), "count"),
        "lfen_dp.states_kept": metric(total("lfen_dp", "states_kept"), "count"),
        "lfen_dp.peak_table": metric(peak("lfen_dp", "peak_table"), "count"),
        "tw_dp.states_kept": metric(total("tw_dp", "states_kept"), "count"),
        "tw_dp.peak_table": metric(peak("tw_dp", "peak_table"), "count"),
        "polytree.ground_arcs": metric(total("matroid", "ground_arcs"), "count"),
        "polytree.oracle_calls": metric(total("matroid", "oracle_calls"), "count"),
    })
    traced = sum(end - start for name, _, parent, start, end in spans
                 if name == "solve" and parent is None)
    out["trace.overhead_frac"] = metric(traced / wall_s - 1, "frac")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not (SRC / "bnsl" / "__init__.py").is_file():
        print(f"error: no bnsl sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S

    sys.path.insert(0, str(SRC))
    # imports bnsl; timed as part of set-up
    _, import_s, import_ref = in_ref_units(lambda: importlib.import_module("ladders"))

    workdir = ROOT / ".perfbench" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return run(args, workdir, import_s, import_ref, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir, import_s, import_ref, deadline) -> int:
    import checks
    import ladders

    rounds = ladders.rounds_for(args.workload, args.seconds)
    cases, gen_s, gen_ref = [], [], []
    for r in range(rounds):
        made, seconds, in_ref = in_ref_units(
            lambda: ladders.make_round(args.workload, args.seed, r, workdir))
        cases += made
        gen_s.append(seconds)
        gen_ref.append(in_ref)
    setup_s = REF_LOOP_S * (import_ref + statistics.median(gen_ref))
    # Same seed, same files: a digest that differs between two checkouts
    # means their runs solved different instances (the generator or writers changed).
    digest = hashlib.sha256(b"".join(c.path.read_bytes() for c in cases)).hexdigest()[:16]

    plan_path = workdir / "plan.json"
    plan = [{"id": c.id, "argv": c.argv, "path": str(c.path), "rep": c.rep,
             "mode": c.mode, "algo": c.algo} for c in cases]
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    cli = run_worker("cli_worker.py", plan_path, workdir / "cli.json", deadline)
    solves = cli["solves"]
    if [s["id"] for s in solves] != [c.id for c in cases]:
        raise RuntimeError("worker results do not match the plan")

    t0 = time.perf_counter()
    kinds = Counter()
    cli_scores = {}
    report = []
    for case, res in zip(cases, solves):
        kind, score = checks.check_solve(case, res)
        cli_scores[case.id] = score if kind is None else None
        if kind is not None:
            kinds[kind] += 1
            detail = {"exception": res["error"], "exit": f"exit code {res['code']}",
                      "dispatch": f"expected {case.algo}, info {res['stderr'].strip()[:80]!r}",
                      }.get(kind, f"printed {res['stdout'].strip()[:80]!r}")
            report.append(f"  FAIL {case.id} [{case.label}] {kind}: {detail}")
        else:
            report.append(f"  ok   {case.id} [{case.label}] {res['seconds']:.3f} s "
                          f"(reference loop {res['ref_before']:.3f} / {res['ref_after']:.3f} s) "
                          f"max_score={score}")
    check_s = time.perf_counter() - t0
    failed = sum(kinds.values())
    correct = not any(kinds[k] for k in checks.WRONG_KINDS)
    e2e = end_to_end(setup_s, solves, cli["peak_rss_mb"], failed)

    print(f"workload {args.workload} seed {args.seed}: {len(cases)} solves in "
          f"{rounds} round(s); import {import_s:.3f} s, generate "
          + ", ".join(f"{g:.3f}" for g in gen_s) + f" s per round; files {digest}")
    print("\n".join(report))
    print(f"  checks took {check_s:.1f} s")
    for name, m in e2e.items():
        print(f"  {name:12s} {m['value']:.6g} {m['unit']}")
    print(f"  samples {len(solves)}; failed {failed}"
          + "".join(f"; {k}={v}" for k, v in sorted(kinds.items())))

    metrics = {name: e2e[name] for name in GATED}
    if args.trace:
        trace = run_worker("trace_worker.py", plan_path, workdir / "trace.json", deadline)
        mismatched = [
            r["id"] for r in trace["replays"]
            if cli_scores[r["id"]] is not None and r["score"] != cli_scores[r["id"]]
        ]
        if mismatched:
            correct = False
            print("  replay score differs from the CLI on " + ", ".join(mismatched))
        shutil.copy(workdir / "trace.json", ROOT / ".perfbench" / f"spans-{args.workload}.json")
        metrics = per_layer(trace, e2e["wall_s"]["value"])
        for name, m in metrics.items():
            print(f"  {name:24s} {m['value']:.6g} {m['unit']}")

    print(json.dumps({"correct": correct, "attempted": len(solves),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
