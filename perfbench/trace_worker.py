"""Traced replay of the `bnsl solve` pipeline, layer by layer.

For each instance of the plan this replays what `cli.cmd_solve` does,
through each module's public functions, with a span around every call:

  instances.parse     parse_nonzero / parse_additive (file read included)
  kernel.kernelize    kernelize_bnsl / kernelize_pl
  graphs.lfen_search  lfen_search
  graphs.td           tree_decomposition
  lfen_dp.solve       solve_bnsl_lfen / solve_pl_lfen
  tw_dp.solve         solve_bnsl_additive / solve_pl_additive_tw
  polytree.mst        solve_pl_additive_mst
  polytree.matroid    solve_pl_additive_bounded
  kernel.lift         KernelResult.lift
  instances.check     validate + score_of

all under one `solve` span per instance.  A span is (name, instance id,
parent index, start, end); spans are held in memory and written at exit.

After each timed replay an untimed pass takes counts: record and snapshot
table sizes (`record_tables`, `pl_record_tables`, `snapshot_tables`) and
matroid oracle calls (a counting `MatroidOracles` passed to
`weighted_matroid_intersection`).

Usage: python3 perfbench/trace_worker.py PLAN.json TRACE.json
"""

import contextlib
import gc
import json
import sys
import time

from bnsl import graphs, kernel, lfen_dp, polytree, tw_dp
from bnsl.instances import parse_additive, parse_nonzero, score_of, superstructure, validate


class Tracer:
    def __init__(self):
        self.spans = []  # [name, instance id, parent index, start, end]
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, cid):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, cid, parent, time.perf_counter(), None])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][4] = time.perf_counter()
            self._stack.pop()


class CountingOracles:
    """MatroidOracles that count independence queries."""

    def __init__(self, n, q):
        self.inner = polytree.MatroidOracles(n, q)
        self.calls = 0

    def graphic_independent(self, elements):
        self.calls += 1
        return self.inner.graphic_independent(elements)

    def partition_independent(self, elements):
        self.calls += 1
        return self.inner.partition_independent(elements)


def replay(item, tr):
    """Timed replay; returns (score, state the counting pass needs)."""
    cid, mode, algo = item["id"], item["mode"], item["algo"]
    with tr.span("instances.parse", cid):
        with open(item["path"], encoding="utf-8") as f:
            text = f.read()
        inst = parse_additive(text) if item["rep"] == "additive" else parse_nonzero(text)
    state = {"instance": inst}
    if algo == "kernel-lfen":
        with tr.span("kernel.kernelize", cid):
            kr = kernel.kernelize_pl(inst) if mode == "polytree" else kernel.kernelize_bnsl(inst)
        g = superstructure(kr.reduced)
        with tr.span("graphs.lfen_search", cid):
            witness = graphs.lfen_search(g)
        with tr.span("lfen_dp.solve", cid):
            solve = lfen_dp.solve_pl_lfen if mode == "polytree" else lfen_dp.solve_bnsl_lfen
            score, net = solve(kr.reduced, witness.forest)
        with tr.span("kernel.lift", cid):
            net = kr.lift(net)
        state.update(kernel=kr, witness=witness)
    elif algo == "twdp":
        g = superstructure(inst)
        with tr.span("graphs.td", cid):
            td = graphs.tree_decomposition(g)
        with tr.span("tw_dp.solve", cid):
            if mode == "polytree":
                score, net = tw_dp.solve_pl_additive_tw(inst, td)
            else:
                score, net = tw_dp.solve_bnsl_additive(inst, td)
        state.update(td=td)
    elif algo == "mst":
        with tr.span("polytree.mst", cid):
            score, net = polytree.solve_pl_additive_mst(inst)
    elif algo == "matroid":
        with tr.span("polytree.matroid", cid):
            score, net = polytree.solve_pl_additive_bounded(inst)
    else:
        raise ValueError(f"unknown algo {algo!r}")
    with tr.span("instances.check", cid):
        q = getattr(inst, "max_in_degree", None)
        ok = validate(net, "polytree" if mode == "polytree" else "dag", q).ok
        ok = ok and score_of(inst, net) == score
    if not ok:
        raise RuntimeError("replayed network fails validate/score_of")
    return score, state


def table_sizes(tables):
    sizes = [len(t) for t in tables.values()]
    return {"states_kept": sum(sizes), "peak_table": max(sizes, default=0)}


def counts_for(item, state):
    """Untimed counting pass over the layers the replay ran."""
    mode, algo, inst = item["mode"], item["algo"], state["instance"]
    c = {}
    if algo == "kernel-lfen":
        kr, witness = state["kernel"], state["witness"]
        c["kernel"] = {"n_in": inst.n, "n_out": kr.reduced.n, "steps": len(kr.steps)}
        c["lfen"] = {"value": witness.value, "exact": witness.exact}
        record = lfen_dp.pl_record_tables if mode == "polytree" else lfen_dp.record_tables
        tables, _ = record(kr.reduced, witness.forest)
        c["lfen_dp"] = table_sizes(tables)
    elif algo == "twdp":
        td = state["td"]
        c["td"] = {"width": td.width, "nodes": len(td.nodes)}
        tables, _ = tw_dp.snapshot_tables(inst, "pl" if mode == "polytree" else "bnsl", td)
        c["tw_dp"] = table_sizes(tables)
    elif algo == "matroid":
        elements = polytree.arc_elements(inst)
        oracles = CountingOracles(inst.n, inst.max_in_degree)
        polytree.weighted_matroid_intersection(elements, oracles)
        c["matroid"] = {"ground_arcs": len(elements), "oracle_calls": oracles.calls}
    return c


def main(plan_path, trace_path):
    with open(plan_path, encoding="utf-8") as f:
        plan = json.load(f)
    tr = Tracer()
    replays = []
    for item in plan:
        gc.collect()
        score, error, counts = None, None, {}
        try:
            with tr.span("solve", item["id"]):
                score, state = replay(item, tr)
        except Exception as e:  # recorded and compared with the CLI outcome
            error = f"{type(e).__name__}: {str(e)[:200]}"
        else:
            counts = counts_for(item, state)
            del state
        replays.append({"id": item["id"], "score": score, "error": error, "counts": counts})
    with open(trace_path, "w", encoding="utf-8") as f:
        json.dump({"spans": tr.spans, "replays": replays}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
