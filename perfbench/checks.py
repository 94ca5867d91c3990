"""Output checks for every solve, run outside the timed region.

Each solve must print `max_score=<int>`, write a network that `validate`
accepts in the solve's mode and in-degree bound, whose `score_of` equals the
printed score, and that score must equal a reference optimum computed by a
different algorithm or witness than the one the CLI ran:

  kernel-lfen  record DP on the *unreduced* instance over a BFS tree
               (no kernel, no lfen search)
  twdp         on near-trees (feedback edge number <= 2) the record DP on
               the explicit form over a BFS tree; otherwise, acyclic: bag
               DP over a min-fill decomposition of a relabeled copy,
               polytree: matroid intersection
  matroid      polytree bag DP over the same relabeled decomposition
  mst          Prim's algorithm written here (the CLI runs Kruskal)

The solver's info line on stderr must also show that the CLI ran the
solver the slot expects, so that time is not put down to layers the CLI no
longer runs.

The checks raise nothing on a wrong answer; they return a failure kind, so a
run reports every failure instead of stopping at the first.  No check uses
`assert`, which `python -O` strips.
"""

from __future__ import annotations

import heapq
import random
import re
import sys

from bnsl import graphs, lfen_dp, polytree, tw_dp
from bnsl.instances import (
    ParseError,
    Superstructure,
    parse_solution,
    score_of,
    superstructure,
    to_nonzero,
    validate,
)

# The references recurse once per tree vertex or bag (up to 2000 deep);
# this process only checks, so the limit is raised here, never in the solver
# process being measured.
sys.setrecursionlimit(max(sys.getrecursionlimit(), 50_000))

# Failure kinds that mean a wrong answer; "exception", "exit" and
# "dispatch" (another solver ran) mean none.
WRONG_KINDS = ("output", "invalid", "score_mismatch", "wrong_score")

_SCORE_LINE = re.compile(r"max_score=(-?\d+)")

# How the info line `cmd_solve` prints to stderr starts, per solver;
# matroid and mst print none.
_INFO_PREFIX = {"kernel-lfen": "kernel_n=", "twdp": "width=", "matroid": None, "mst": None}


def ran_expected_solver(case, stderr) -> bool:
    info = stderr.strip()
    prefix = _INFO_PREFIX[case.algo]
    return info == "" if prefix is None else info.startswith(prefix)


def relabeled_td(g, seed):
    """Min-fill decomposition of a randomly relabeled copy of g, mapped back:
    same heuristic, different tie-breaks, so a different witness."""
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    inv = [0] * g.n
    for v, p in enumerate(perm):
        inv[p] = v
    h = Superstructure(g.n, [(min(perm[a], perm[b]), max(perm[a], perm[b]))
                             for a, b in g.edges])
    td = graphs.tree_decomposition(h)
    nodes = [graphs.TDNode(frozenset(inv[x] for x in node.bag), node.kind,
                           node.children) for node in td.nodes]
    td = graphs.NiceTreeDecomposition(nodes, td.root, td.width)
    problems = graphs.check_nice(td, g)
    if problems:
        raise RuntimeError("relabeled decomposition invalid: " + "; ".join(problems))
    return td


def prim_forest_weight(inst) -> int:
    """Maximum-weight spanning forest of the skeleton, edge weight the better
    orientation (the unbounded additive polytree optimum)."""
    g = superstructure(inst)
    weight = {}
    for a, b in g.edges:
        w = max(inst.arc(a, b), inst.arc(b, a))
        if w > 0:
            weight[(a, b)] = weight[(b, a)] = w
    nbrs = {v: [] for v in range(g.n)}
    for a, b in weight:
        nbrs[a].append(b)
    seen = [False] * g.n
    total = 0
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        heap = [(-weight[(root, w)], w) for w in nbrs[root]]
        heapq.heapify(heap)
        while heap:
            negw, v = heapq.heappop(heap)
            if seen[v]:
                continue
            seen[v] = True
            total -= negw
            for w in nbrs[v]:
                if not seen[w]:
                    heapq.heappush(heap, (-weight[(v, w)], w))
    return total


def reference_optimum(case) -> int:
    inst = case.instance
    if case.algo == "kernel-lfen":
        forest = graphs.feedback_edge_set(superstructure(inst))  # a BFS forest
        solve = lfen_dp.solve_pl_lfen if case.mode == "polytree" else lfen_dp.solve_bnsl_lfen
        return solve(inst, forest)[0]
    if case.algo == "twdp":
        g = superstructure(inst)
        if g.edge_count() - g.n + len(g.components()) <= 2:
            # near-trees: the record DP on the explicit form over a BFS tree
            # (local feedback <= 2) is a different algorithm and is cheaper
            # than a second decomposition or matroid intersection at n = 1500
            degree = max((g.degree(v) for v in range(g.n)), default=0)
            explicit = to_nonzero(inst, max_degree=degree)
            solve = lfen_dp.solve_pl_lfen if case.mode == "polytree" else lfen_dp.solve_bnsl_lfen
            return solve(explicit, graphs.feedback_edge_set(g))[0]
        if case.mode == "polytree":
            return polytree.solve_pl_additive_bounded(inst)[0]
        return tw_dp.solve_bnsl_additive(inst, relabeled_td(g, case.id))[0]
    if case.algo == "matroid":
        return tw_dp.solve_pl_additive_tw(inst, relabeled_td(superstructure(inst), case.id))[0]
    if case.algo == "mst":
        return prim_forest_weight(inst)
    raise ValueError(f"no reference for algo {case.algo!r}")


def check_solve(case, result) -> tuple[str | None, int | None]:
    """(failure kind or None, printed score) for one CLI solve."""
    if result["error"] is not None:
        return "exception", None
    if result["code"] != 0:
        return "exit", None
    if not ran_expected_solver(case, result["stderr"]):
        return "dispatch", None
    m = _SCORE_LINE.fullmatch(result["stdout"].strip())
    if m is None:
        return "output", None
    score = int(m.group(1))
    try:
        net = parse_solution(case.out.read_text(encoding="utf-8"), case.instance)
    except (OSError, ParseError):
        return "output", score
    mode = "polytree" if case.mode == "polytree" else "dag"
    if not validate(net, mode, case.q).ok:
        return "invalid", score
    if score_of(case.instance, net) != score:
        return "score_mismatch", score
    if score != reference_optimum(case):
        return "wrong_score", score
    return None, score
