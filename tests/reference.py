"""Independent brute-force references shared by the test modules.

These enumerate partial solutions directly from their definitions and are
kept free of any solver machinery they are used to check.  Two kinds of
exception: `kernelize_rescan` reuses the kernel's rule applications and
replaces only the bookkeeping it checks, and the functions after it are
the earlier versions of library functions that the current ones must
reproduce exactly: the kernel's old rules 1 and path DP
(`apply_rr1_set_entries`, `vertex_score`, `best_config_frozensets`,
`bnsl_path_scores_frozensets` and `pl_path_scores_frozensets`, with the
dataclasses they return, `PathScores` and `PlPathScores`, which
`case_table` turns into the kernel's case table; all run by
`kernelize_old_rules`; and `apply_rr1_offer` with `prune_leaves_per_leaf`,
run by `kernelize_rr1_offer`), `weighted_matroid_intersection_pairwise` and
`weighted_matroid_intersection_circuits`, `check_nice_scan`,
`min_fill_order_rescan`, `bags_from_order_replay`,
`core_min_fill_relabeled`, the node-by-node cut of a decomposition to
the 2-core (`core_decomposition_rewrite`), the nice-decomposition builder
that finished each component in a separate loop (`nice_from_raw_stack`)
and the post-order walk on (node, done) pairs (`postorder_done_pairs`),
`find_paths_own_bfs`, the lift (`lift_rescan`
with `lift_rr1_rescan`, `lift_rr2_rescan` and `lift_rr2_pl_rescan`),
`best_config_two_encodings` and the bag DP with per-state in-degree dicts
and tagged backpointers (`TwEngineDicts` with `arc_subsets_by_edge`, read
through `snapshot_tables_dicts`), and the record DP that combines the
open children's tables in one product (`RecordEngineProduct` with
`BnslEngineProduct` and `PlEngineProduct`, on boundaries classified by
`subtree_masks` in `boundaries_by_subtree_masks`), and the acyclic record
DP's merge by a full Warshall closure (`BnslEngineFullClosure`) and by
the shared-support closure on row lists (`BnslEngineRowGlue` with
`closed_union_rows` and `support_rows`), both merging tuples of rows
(`RowFold`), the general re-indexing that looks every position up per
call (`reindex`, which the earlier engines above call), the library's
relation helpers on lists of bit rows, with which the references and
tests build and read relations (`closure`, `irreflexive`, `restrict`,
`same_class`, and the row forms of `classes`, `class_rows`, `from_pairs`,
`to_pairs` and `remap`; `unpack` gives a packed relation's rows), the
lfen local search that scores every swap on a rebuilt forest
(`component_lfen_tree_rebuild`), the subdivision loop that sorts the
whole edge set for every draw (`subdivide_resort`), and the component
subgraph that scans every edge once per component
(`component_subgraph_edge_scan`), the bag DP's steps before they dropped
their per-node overhead (`TwEngineProduct`), the pendant-tree fold on
generators (`FoldGenerators` with `peel_generator`), the additive
parser with a per-token closure (`parse_additive_closure`), and the
result checks and writer that built a parent set per vertex (`parent_sets`,
the earlier `Network.parent_map`, read by `score_of_parent_sets` and
`write_solution_parent_sets`) and ran the ordered diagnosis on every
network (`validate_ordered`), which sit at the end of the file.  Last come
the helpers that only the tests use, moved here from the library: the
subset scan for a best common independent set
(`exact_common_independent`, formerly in `bnsl.oracle`), a random
acyclic network over an instance's superstructure (`random_network`,
formerly in `bnsl.generate`), the optimal elimination order by a DP over
vertex subsets (`exact_order`, formerly `bnsl.graphs._exact_order`) with
the nice decomposition it gives (`exact_decomposition`, what
`tree_decomposition`'s exact-width mode built), and the exact localized
feedback edge number by spanning-tree enumeration (`exact_lfen` with
`_tree_local_value`, formerly in `bnsl.oracle`).
"""

import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations, product
from operator import add, itemgetter, or_, sub
from typing import Iterable, Optional, Sequence

from bnsl import generate, graphs, relations
from bnsl.graphs import (
    NiceTreeDecomposition,
    SpanningForest,
    TDNode,
    lfen_of_tree,
    tree_decomposition,
)
from bnsl.instances import (
    MAX_SCORE,
    AdditiveInstance,
    Network,
    NonZeroInstance,
    ParseError,
    ScoreOverflowError,
    Superstructure,
    Validation,
    _content_lines,
    _directed_cycle,
    _parse_nat,
    _skeleton_path,
    find,
    superstructure,
)
from bnsl.kernel import _BWD, _FWD, _NONE, _Work, _btag, _fed_by, _present
from bnsl.lfen_dp import Boundary, _BnslEngine, _RecordEngine
from bnsl.oracle import OracleLimitError
from bnsl.polytree import GroundElement, MatroidOracles, _forest_links, _forest_path
from bnsl.tw_dp import _NO_ARCS, _TwEngine


def reach_pairs(n_ids, arcs):
    """Strict reachability pairs (x, y), x reaches y by >= 1 arc."""
    succ = {v: set() for v in n_ids}
    for u, v in arcs:
        succ[u].add(v)
    pairs = set()
    for s in n_ids:
        stack = list(succ[s])
        seen = set()
        while stack:
            x = stack.pop()
            if x in seen:
                continue
            seen.add(x)
            stack.extend(succ.get(x, ()))
        pairs.update((s, t) for t in seen)
    return pairs


def is_acyclic(arcs):
    verts = {x for a in arcs for x in a}
    return not any(u == v for u, v in reach_pairs(verts, arcs) | set())


def parent_choice_assignments(instance, members):
    """All per-vertex parent-set choices (listed plus empty) for `members`."""
    choices = [instance.parent_sets(v) for v in members]
    for combo in product(*choices):
        yield dict(zip(members, combo))


def subtree_record_reference(instance, subtree, delta):
    """Valid acyclic-network records of a subtree by enumeration.

    Partial solutions assign each subtree vertex a listed-or-empty parent
    set (arcs end inside the subtree); key: strict reachability restricted
    to the boundary; value: best score.
    """
    out = {}
    members = sorted(subtree)
    dset = set(delta)
    for assign in parent_choice_assignments(instance, members):
        arcs = {(p, v) for v, parents in assign.items() for p in parents}
        pairs = reach_pairs(set().union(*[{u, v} for u, v in arcs], set(members)), arcs)
        if any(u == v for u, v in pairs):
            continue
        key = frozenset((x, y) for x, y in pairs if x in dset and y in dset)
        score = sum(instance.score(v, parents) for v, parents in assign.items())
        if key not in out or score > out[key]:
            out[key] = score
    return out


def skeleton_forest(arcs):
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for u, v in arcs:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def subtree_pl_record_reference(instance, subtree, delta_in):
    """Valid polytree records: (component partition of the inner boundary,
    arcs entering the subtree) -> best score."""
    out = {}
    members = sorted(subtree)
    inner = sorted(delta_in)
    sset = set(subtree)
    for assign in parent_choice_assignments(instance, members):
        arcs = {(p, v) for v, parents in assign.items() for p in parents}
        if not skeleton_forest(arcs):
            continue
        # components of the subgraph induced on the subtree
        comp = {}

        def find(x):
            comp.setdefault(x, x)
            while comp[x] != x:
                comp[x] = comp.get(comp[x], comp[x])
                x = comp[x]
            return x

        for u, v in arcs:
            if u in sset and v in sset:
                ru, rv = find(u), find(v)
                if ru != rv:
                    comp[ru] = rv
        groups = {}
        for x in inner:
            groups.setdefault(find(x), []).append(x)
        part = tuple(sorted(tuple(sorted(g)) for g in groups.values()))
        entering = frozenset((u, v) for u, v in arcs if u not in sset)
        key = (part, entering)
        score = sum(instance.score(v, parents) for v, parents in assign.items())
        if key not in out or score > out[key]:
            out[key] = score
    return out


def snapshot_reference(instance, below, bag, q, mode):
    """Best score per snapshot over all networks on `below` drawn from the
    superstructure (acyclic or polytree, optional in-degree bound)."""
    from bnsl.instances import superstructure

    g = superstructure(instance)
    edges = [
        (a, b) for a, b in sorted(g.edges) if a in below and b in below
    ]
    bag = sorted(bag)
    bagset = set(bag)
    out = {}

    def snap(arcs):
        loc = frozenset(
            (u, v) for u, v in arcs if u in bagset and v in bagset
        )
        if mode == "bnsl":
            pairs = reach_pairs(set(below), arcs)
            con = frozenset(
                (x, y) for x, y in pairs if x in bagset and y in bagset
            )
        else:
            comp = {}

            def find(x):
                comp.setdefault(x, x)
                while comp[x] != x:
                    comp[x] = comp.get(comp[x], comp[x])
                    x = comp[x]
                return x

            for u, v in arcs:
                ru, rv = find(u), find(v)
                if ru != rv:
                    comp[ru] = rv
            con = frozenset(
                (x, y) for x in bag for y in bag if x != y and find(x) == find(y)
            )
        if q is not None:
            indeg = {v: 0 for v in bag}
            for u, v in arcs:
                if v in bagset:
                    indeg[v] += 1
            inn = tuple(sorted(indeg.items()))
        else:
            inn = ()
        return (loc, con, inn)

    def rec(i, arcs, indeg):
        if i == len(edges):
            score = sum(instance.arc(u, v) for u, v in arcs)
            key = snap(arcs)
            if key not in out or score > out[key]:
                out[key] = score
            return
        a, b = edges[i]
        rec(i + 1, arcs, indeg)
        for u, v in ((a, b), (b, a)):
            if q is not None and indeg.get(v, 0) >= q:
                continue
            arcs.append((u, v))
            indeg[v] = indeg.get(v, 0) + 1
            ok = True
            if mode == "bnsl":
                ok = is_acyclic(arcs)
            else:
                ok = skeleton_forest(arcs)
            if ok:
                rec(i + 1, arcs, indeg)
            indeg[v] -= 1
            arcs.pop()

    rec(0, [], {})
    return out


def random_dag(rng, n, prob=0.35):
    order = list(range(n))
    rng.shuffle(order)
    pos = {v: i for i, v in enumerate(order)}
    arcs = set()
    for u in range(n):
        for v in range(n):
            if u != v and pos[u] < pos[v] and rng.random() < prob:
                arcs.add((u, v))
    return Network(n, frozenset(arcs))


def scan_adjacency(work):
    """Superstructure adjacency of a kernel working state, rebuilt from its
    score tables; parent sets naming removed vertices give no edge."""
    adj = {v: set() for v in work.adj}
    for v, sets in work.entries.items():
        for parents in sets:
            for p in parents:
                if p in adj:
                    adj[v].add(p)
                    adj[p].add(v)
    return adj


def rule1_scan_target(adj):
    """Smallest vertex with a degree-1 neighbour, by a sorted scan."""
    for v in sorted(adj):
        if any(len(adj[w]) == 1 for w in adj[v]):
            return v
    return None


def kernelize_rescan(instance, polytree):
    """The kernel's fixed-point loop with the superstructure adjacency
    rebuilt from the score tables at every use and the rule-1 target found
    by a sorted scan of all vertices (O(n^2) in total), and the paths found
    by `find_paths_own_bfs`; `kernel._Work` keeps the adjacency
    incrementally (it must equal the rebuilt one before each rule-1 search
    and so before each path search), `kernel._find_paths` reads the shared
    BFS forest, and together they must reproduce this step for step."""
    from bnsl import kernel

    work = kernel._Work(instance)
    steps = []
    changed = True
    while changed:
        changed = False
        while True:
            adj = scan_adjacency(work)
            if adj != work.adj:
                raise AssertionError("incremental adjacency differs from the rescan")
            target = rule1_scan_target(adj)
            if target is None:
                break
            steps.append(kernel._apply_rr1(work, target))
            changed = True
        paths = find_paths_own_bfs(work, 6 if polytree else 4)
        if paths:
            apply = kernel._apply_rr2_pl if polytree else kernel._apply_rr2
            steps.append(apply(work, paths[0]))
            changed = True
    reduced, loose_of_reduced = work.to_instance()
    return kernel.KernelResult(reduced, steps, loose_of_reduced, instance.n)


# The rule applications below are the kernel's earlier versions, kept
# verbatim (only renamed): rule 1 through `_Work.set_entries` and
# `_Work.remove`, with a completion that rescans every leaf per candidate,
# and the path DP that reads a leaf's score through a frozenset per
# transition, with the two result dataclasses the kernel used before its
# case table.  `kernelize_old_rules` runs the kernel's fixed-point loop
# with them; the library must reproduce it exactly.


def apply_rr1_set_entries(work: _Work, v: int, adj) -> dict:
    q = sorted(w for w in adj[v] if len(adj[w]) == 1)
    if not q:
        raise ValueError(f"no degree-1 neighbours at {v}")
    qset = set(q)

    def completion(s: frozenset[int]) -> tuple[int, frozenset[int]]:
        total = 0
        arcs_out = set()
        for w in q:
            se, sv = work.score(w, frozenset()), work.score(w, frozenset([v]))
            if w not in s and sv > se:  # w takes v as its parent
                total += sv
                arcs_out.add(w)
            else:
                total += se
        return total, frozenset(arcs_out)

    old_sets = dict(work.entries.get(v, {}))
    old_sets.setdefault(frozenset(), work.score(v, frozenset()))
    new_sets: dict[frozenset[int], int] = {}
    configs: dict[frozenset[int], tuple[frozenset[int], frozenset[int]]] = {}
    groups: dict[frozenset[int], list[frozenset[int]]] = {}
    for parents in old_sets:
        groups.setdefault(parents - qset, []).append(parents)
    for reduced_parents, candidates in groups.items():
        if reduced_parents not in candidates:
            candidates.append(reduced_parents)  # unlisted base choice, scores 0
        best = None
        for p in sorted(candidates, key=lambda s: sorted(s)):
            comp, arcs_out = completion(frozenset(p & qset))
            val = work.score(v, p) + comp
            if best is None or val > best[0]:
                best = (val, frozenset(p & qset), arcs_out)
        new_sets[reduced_parents] = best[0]
        configs[reduced_parents] = (best[1], best[2])
    _, fb_arcs = completion(frozenset())
    step = {
        "rule": 1,
        "v": v,
        "q": q,
        "configs": configs,
        "fallback": (frozenset(), fb_arcs),
    }
    work.set_entries(v, new_sets)
    for w in q:
        work.remove(w)
    return step



def vertex_score(work: _Work, path_ext, j, prev_state, next_state) -> int:
    parents = set()
    if prev_state == _FWD:
        parents.add(path_ext[j - 1])
    if next_state == _BWD:
        parents.add(path_ext[j + 1])
    return work.score(path_ext[j], frozenset(parents))


def best_config_frozensets(work: _Work, path_ext, e0: str, em: str,
                 pred=lambda state: True, want=True):
    """Max total score of the inner path vertices over orientations of the
    internal edges, with fixed end-edge states, among the configurations in
    which "every internal edge state satisfies pred" equals `want` (with no
    internal edges it holds vacuously).

    Returns (score, edge state tuple) or None when infeasible.
    """
    m = len(path_ext) - 2
    # layers[j]: (state of edge j, pred held so far) -> (best score, backptr)
    layers = [{(e0, True): (0, None)}]
    for j in range(1, m):  # choose edge j between b_j and b_{j+1}
        nxt = {}
        for (prev, flag), (sc, _) in layers[-1].items():
            for st in (_FWD, _BWD, _NONE):
                s2 = sc + vertex_score(work, path_ext, j, prev, st)
                key = (st, flag and pred(st))
                if key not in nxt or s2 > nxt[key][0]:
                    nxt[key] = (s2, (prev, flag))
        layers.append(nxt)
    best = None
    for (prev, flag), (sc, _) in layers[-1].items():
        if flag != want:
            continue
        total = sc + vertex_score(work, path_ext, m, prev, em)
        if best is None or total > best[0]:
            best = (total, (prev, flag))
    if best is None:
        return None
    total, key = best
    states = [key[0]]
    for layer in reversed(layers[1:]):
        key = layer[key][1]
        states.append(key[0])
    states.reverse()
    return total, tuple(states + [em])




@dataclass(frozen=True)
class PathScores:
    """Best path contributions for the acyclic variant.

    l_max[B] for B <= {a, c}: anchors in B feed the path (arc into the
    adjacent end vertex), internal edges free.  l_nopath_a: a feeds the
    path, c does not, and no directed path runs from a through to the far
    end (l_nopath_c symmetric).
    """

    a: int
    c: int
    l_max: dict[frozenset[int], int]
    l_nopath_a: int
    l_nopath_c: int
    configs: dict[str, tuple[str, ...]] = field(default_factory=dict, repr=False)


@dataclass(frozen=True)
class PlPathScores:
    """Best path contributions for the polytree variant: l[(p, B)] with
    p=1 iff the path's two ends stay connected (all internal edges kept)."""

    a: int
    c: int
    l: dict[tuple[int, frozenset[int]], int]
    configs: dict[tuple[int, frozenset[int]], tuple[str, ...]] = field(
        default_factory=dict, repr=False
    )


def bnsl_path_scores_frozensets(work: _Work, path_ext) -> PathScores:
    a, c = path_ext[0], path_ext[-1]
    l_max = {}
    configs = {}
    for bset, e0, em in _fed_by(a, c):
        l_max[bset], configs["max_" + _btag(bset, a, c)] = best_config_frozensets(
            work, path_ext, e0, em
        )
    # a single inner vertex leaves the no-through-path families empty; the
    # contraction rule never fires there (it needs >= 4 inner vertices)
    nopath_a, configs["nopath_a"] = best_config_frozensets(
        work, path_ext, _FWD, _NONE, lambda st: st == _FWD, False
    ) or (None, None)
    nopath_c, configs["nopath_c"] = best_config_frozensets(
        work, path_ext, _NONE, _BWD, lambda st: st == _BWD, False
    ) or (None, None)
    return PathScores(a, c, l_max, nopath_a, nopath_c, configs)


def pl_path_scores_frozensets(work: _Work, path_ext) -> PlPathScores:
    a, c = path_ext[0], path_ext[-1]
    l = {}
    configs = {}
    for bset, e0, em in _fed_by(a, c):
        for p in (0, 1):
            # a single inner vertex is both ends of the path, which is then
            # connected whatever p asks for
            l[(p, bset)], configs[(p, bset)] = (
                best_config_frozensets(work, path_ext, e0, em, _present, p == 1)
                or best_config_frozensets(work, path_ext, e0, em, _present, True)
            )
    return PlPathScores(a, c, l, configs)


def case_table(ps) -> dict:
    """An old path DP's result as the kernel's case table {tag: (score,
    edge states)}, in the order of its configs."""
    a, c = ps.a, ps.c
    if isinstance(ps, PlPathScores):
        return {f"{p}_{_btag(bset, a, c)}": (ps.l[(p, bset)], cfg)
                for (p, bset), cfg in ps.configs.items()}
    score = {"max_" + _btag(bset, a, c): s for bset, s in ps.l_max.items()}
    score.update(nopath_a=ps.l_nopath_a, nopath_c=ps.l_nopath_c)
    return {tag: (score[tag], cfg) for tag, cfg in ps.configs.items()}


def kernelize_old_rules(instance, polytree):
    """The kernel's fixed-point loop with the old rule 1
    (`apply_rr1_set_entries`); before each path contraction it checks
    that the kernel's case table, scores and configs in order, equals
    the old path DP's (through `case_table`) on the current working
    state, so the rule-2 steps it records are the old ones too."""
    from bnsl import kernel

    work = kernel._Work(instance)
    steps = []
    min_inner, apply = (6, kernel._apply_rr2_pl) if polytree else (4, kernel._apply_rr2)
    new, old = ((kernel._pl_path_cases, pl_path_scores_frozensets) if polytree
                else (kernel._bnsl_path_cases, bnsl_path_scores_frozensets))
    while True:
        while (target := work.rule1_target()) is not None:
            steps.append(apply_rr1_set_entries(work, target, work.adj))
        paths = kernel._find_paths(work, min_inner)
        if not paths:
            break
        got, want = new(work, paths[0]), case_table(old(work, paths[0]))
        if list(got.items()) != list(want.items()):
            raise AssertionError(f"path scores differ on {paths[0]}")
        steps.append(apply(work, paths[0]))
    reduced, loose_of_reduced = work.to_instance()
    return kernel.KernelResult(reduced, steps, loose_of_reduced, instance.n)


# Rule 1 before its lean step, kept verbatim (only renamed, and the
# `_Work.prune_leaves` it called made a function on the working state): a
# nested `offer` closure, set algebra for every parent set of v, and the
# leaves removed one by one through `_Work.remove`.  `kernelize_rr1_offer`
# runs the kernel's fixed-point loop with it; the library must reproduce
# it exactly.


def apply_rr1_offer(work: _Work, v: int) -> dict:
    """Rule 1 at v, with Q the degree-1 neighbours of v in the working
    superstructure.

    A leaf w in Q scores se alone and se + gain with v as its parent; it
    takes the arc from v whenever it is not v's parent and gain > 0, so
    a parent set p of v completes with base - (the gains of the leaves in
    p).  v's parent sets are grouped by p - Q, each group keeping its best
    member (the unlisted p - Q too, at score 0), ties to the first in the
    order of sorted(p).
    """
    adj = work.adj
    q = sorted(w for w in adj[v] if len(adj[w]) == 1)
    if not q:
        raise ValueError(f"no degree-1 neighbours at {v}")
    qset = frozenset(q)
    empty, from_v = frozenset(), frozenset((v,))
    base = 0
    gain = {}
    for w in q:
        sets = work.entries.get(w, {})
        se, sv = sets.get(empty, 0), sets.get(from_v, 0)
        base += se
        if sv > se:
            base += sv - se
            gain[w] = sv - se
    takes = frozenset(gain)  # the leaves that take the arc unless they are parents

    best: dict[frozenset[int], list] = {}  # p - Q -> [score, p]

    def offer(reduced, val, p):
        cur = best.get(reduced)
        if cur is None:
            best[reduced] = [val, p]
        elif val > cur[0] or val == cur[0] and sorted(p) < sorted(cur[1]):
            cur[:] = val, p

    old_sets = work.entries.get(v, {})
    for p, sc in old_sets.items():
        if qset.isdisjoint(p):  # most sets; skips the set algebra below
            offer(p, sc + base, p)
        else:
            offer(p - qset, sc + base - sum(gain.get(w, 0) for w in p & qset), p)
    for reduced in [r for r in best if r not in old_sets]:
        offer(reduced, base, reduced)
    best.setdefault(empty, [base, empty])
    new_sets = {}
    configs = {}
    for reduced, (val, p) in best.items():
        members = p & qset
        new_sets[reduced] = val
        configs[reduced] = (members, takes - members)
    step = {
        "rule": 1,
        "v": v,
        "q": q,
        "configs": configs,
        "fallback": (frozenset(), takes),
    }
    prune_leaves_per_leaf(work, v, new_sets, qset)
    return step


def prune_leaves_per_leaf(work: _Work, v: int, sets: dict[frozenset[int], int],
                          leaves: frozenset[int]):
    """Rule 1's update: install v's table `sets`, whose non-empty parent
    sets have positive scores and name every parent of v but `leaves`,
    then remove the leaves.  v's parent union is cut by the leaves
    instead of rebuilt as `set_entries` would, and the leaves' edges
    go with them."""
    empty = frozenset()
    if not sets.get(empty, 1):
        del sets[empty]
    if sets:
        work.entries[v] = sets
    else:
        work.entries.pop(v, None)
    if v in work.parent_union:
        work.parent_union[v] -= leaves
    for w in leaves:
        work.remove(w)


def kernelize_rr1_offer(instance, polytree):
    """The kernel's fixed-point loop with `apply_rr1_offer` as rule 1."""
    from bnsl import kernel

    work = kernel._Work(instance)
    steps = []
    min_inner, apply_rr2 = (6, kernel._apply_rr2_pl) if polytree else (4, kernel._apply_rr2)
    while True:
        while (target := work.rule1_target()) is not None:
            steps.append(apply_rr1_offer(work, target))
        paths = kernel._find_paths(work, min_inner)
        if not paths:
            break
        steps.append(apply_rr2(work, paths[0]))
    reduced, loose_of_reduced = work.to_instance()
    return kernel.KernelResult(reduced, steps, loose_of_reduced, instance.n)


# The six functions below are earlier versions of library functions, kept
# verbatim (only renamed) as references: the pairwise-oracle exchange graph
# of `polytree.weighted_matroid_intersection`, its successor that lists
# every exchange arc (the dense ones too) and relaxes them all per
# Bellman-Ford pass (it ignores the roots `_forest_links` now returns), the
# per-vertex scan of `graphs.check_nice`, the full-rescan min-fill order
# of the old `graphs._min_fill_order`, the old `graphs._bags_from_order`,
# which replayed the whole elimination to read off the bags, and the old
# `tw_dp._core_min_fill`, which decomposed the core through a relabeled
# copy.  The library versions must return exactly what these return.


def weighted_matroid_intersection_pairwise(
    elements: Sequence[GroundElement], oracles: MatroidOracles
) -> list[GroundElement]:
    """Maximum-weight common independent set over all cardinalities.

    Augmenting-path scheme: exchange arcs x->y when I-x+y stays independent
    in the graphic matroid and y->x for the partition matroid; node costs
    -weight outside I, +weight inside; augment along a minimum-cost,
    fewest-arcs source-to-sink path while one exists.
    """
    items = list(elements)
    m = len(items)
    in_set = [False] * m
    best_weight = 0
    best_set: list[int] = []

    def members(exclude=None, include=None):
        out = [items[i] for i in range(m) if in_set[i] and i != exclude]
        if include is not None:
            out.append(items[include])
        return out

    while True:
        sources = []
        sinks = set()
        for y in range(m):
            if in_set[y]:
                continue
            if oracles.graphic_independent(members(include=y)):
                sources.append(y)
            if oracles.partition_independent(members(include=y)):
                sinks.add(y)
        if not sources:
            break
        arcs: dict[int, list[int]] = {i: [] for i in range(m)}
        for x in range(m):
            if not in_set[x]:
                continue
            for y in range(m):
                if in_set[y]:
                    continue
                if oracles.graphic_independent(members(exclude=x, include=y)):
                    arcs[x].append(y)
                if oracles.partition_independent(members(exclude=x, include=y)):
                    arcs[y].append(x)

        def cost(z):
            return items[z].weight if in_set[z] else -items[z].weight

        INF = float("inf")
        dist = {z: (INF, INF) for z in range(m)}
        pred: dict[int, Optional[int]] = {}
        for s in sources:
            d = (cost(s), 0)
            if d < dist[s]:
                dist[s] = d
                pred[s] = None
        for _ in range(m + 1):
            changed = False
            for u in range(m):
                if dist[u][0] == INF:
                    continue
                for v in arcs[u]:
                    nd = (dist[u][0] + cost(v), dist[u][1] + 1)
                    if nd < dist[v]:
                        dist[v] = nd
                        pred[v] = u
                        changed = True
            if not changed:
                break
        target = None
        for y in sorted(sinks):
            if dist[y][0] == INF:
                continue
            if target is None or dist[y] < dist[target]:
                target = y
        if target is None:
            break
        path = []
        z = target
        while z is not None:
            path.append(z)
            z = pred.get(z)
        for z in path:
            in_set[z] = not in_set[z]
        weight = sum(items[i].weight for i in range(m) if in_set[i])
        if weight > best_weight:
            best_weight = weight
            best_set = [i for i in range(m) if in_set[i]]
    return [items[i] for i in best_set]


def weighted_matroid_intersection_circuits(
    elements: Sequence[GroundElement], oracles: MatroidOracles
) -> list[GroundElement]:
    """Maximum-weight common independent set over all cardinalities.

    Augmenting paths over the exchange graph of the current set I (see
    the module docstring).  Per round each non-member y costs one query of
    each oracle, on I+y; every node's out-arcs are listed in ascending
    order, which fixes the order in which Bellman-Ford relaxes them.
    """
    items = list(elements)
    m = len(items)
    in_set = [False] * m
    best_weight = 0
    best_set: list[int] = []

    while True:
        inside = [i for i in range(m) if in_set[i]]
        chosen = [items[i] for i in inside]
        link, _, by_head = _forest_links(items, inside)
        sources = []
        sinks = set()
        arcs: list[list[int]] = [[] for _ in range(m)]
        for y in range(m):
            if in_set[y]:
                continue
            trial = chosen + [items[y]]
            if oracles.graphic_independent(trial):
                sources.append(y)
                exchange = inside
            else:
                exchange = _forest_path(link, *items[y].arc)
            for x in exchange:
                arcs[x].append(y)
            if oracles.partition_independent(trial):
                sinks.add(y)
                arcs[y] = inside
            else:
                arcs[y] = by_head.get(items[y].arc[1], [])
        if not sources:
            break

        cost = [items[z].weight if in_set[z] else -items[z].weight for z in range(m)]
        INF = float("inf")
        dist = [(INF, INF)] * m
        pred: dict[int, Optional[int]] = {}
        for s in sources:
            d = (cost[s], 0)
            if d < dist[s]:
                dist[s] = d
                pred[s] = None
        for _ in range(m + 1):
            changed = False
            for u in range(m):
                du, hu = dist[u]
                if du == INF:
                    continue
                for v in arcs[u]:
                    nd = (du + cost[v], hu + 1)
                    if nd < dist[v]:
                        dist[v] = nd
                        pred[v] = u
                        changed = True
            if not changed:
                break
        target = None
        for y in sorted(sinks):
            if dist[y][0] == INF:
                continue
            if target is None or dist[y] < dist[target]:
                target = y
        if target is None:
            break
        path = []
        z = target
        while z is not None:
            path.append(z)
            z = pred.get(z)
        for z in path:
            in_set[z] = not in_set[z]
        weight = sum(items[i].weight for i in range(m) if in_set[i])
        if weight > best_weight:
            best_weight = weight
            best_set = [i for i in range(m) if in_set[i]]
    return [items[i] for i in best_set]


def check_nice_scan(td: NiceTreeDecomposition, g: Superstructure) -> list[str]:
    """All violated decomposition invariants (empty list when valid)."""
    problems = []
    nodes = td.nodes
    if nodes[td.root].bag:
        problems.append("root bag not empty")
    seen_children = set()
    for t, node in enumerate(nodes):
        for c in node.children:
            if c in seen_children:
                problems.append(f"node {c} has two parents")
            seen_children.add(c)
        kids = node.children
        if node.kind == "leaf":
            if kids:
                problems.append(f"leaf {t} has children")
            if len(node.bag) != 1 and g.n > 0:
                problems.append(f"leaf {t} bag size {len(node.bag)}")
        elif node.kind in ("introduce", "forget"):
            if len(kids) != 1:
                problems.append(f"{node.kind} {t} has {len(kids)} children")
            else:
                child = nodes[kids[0]].bag
                diff = node.bag ^ child
                if len(diff) != 1:
                    problems.append(f"{node.kind} {t} changes {len(diff)} vertices")
                elif node.kind == "introduce" and not diff <= node.bag:
                    problems.append(f"introduce {t} removed a vertex")
                elif node.kind == "forget" and not diff <= child:
                    problems.append(f"forget {t} added a vertex")
        elif node.kind == "join":
            if len(kids) != 2 or any(nodes[c].bag != node.bag for c in kids):
                problems.append(f"join {t} children don't copy the bag")
        else:
            problems.append(f"unknown kind {node.kind}")
    # edge coverage
    for a, b in g.edges:
        if not any({a, b} <= node.bag for node in nodes):
            problems.append(f"edge ({a},{b}) not covered")
    # subtree (connectedness) property per vertex
    parent = {c: t for t, node in enumerate(nodes) for c in node.children}
    for v in range(g.n):
        holding = [t for t, node in enumerate(nodes) if v in node.bag]
        if not holding and any(v in e for e in g.edges):
            problems.append(f"vertex {v} in no bag")
            continue
        if not holding:
            continue
        hold = set(holding)
        top = holding[0]
        for t in holding:
            # walk towards root while staying in holding set
            x = t
            while x in parent and parent[x] in hold:
                x = parent[x]
            top = x
        for t in holding:
            x = t
            while x != top:
                if x not in parent or x not in hold:
                    problems.append(f"vertex {v} occurrence not connected")
                    break
                x = parent[x]
    return problems


def min_fill_order_rescan(g: Superstructure) -> list[int]:
    adj = {v: set(g.adj[v]) for v in range(g.n)}
    order = []
    remaining = set(range(g.n))
    while remaining:
        best_v, best_fill = None, None
        for v in sorted(remaining):
            nbrs = adj[v]
            fill = 0
            nl = sorted(nbrs)
            for i in range(len(nl)):
                for j in range(i + 1, len(nl)):
                    if nl[j] not in adj[nl[i]]:
                        fill += 1
            if best_fill is None or fill < best_fill:
                best_fill, best_v = fill, v
        v = best_v
        nbrs = sorted(adj[v])
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                adj[nbrs[i]].add(nbrs[j])
                adj[nbrs[j]].add(nbrs[i])
        for w in nbrs:
            adj[w].discard(v)
        del adj[v]
        remaining.remove(v)
        order.append(v)
    return order


def bags_from_order_replay(g: Superstructure, order: list[int]):
    """Raw decomposition bags and tree from an elimination order."""
    pos = {v: i for i, v in enumerate(order)}
    adj = {v: set(g.adj[v]) for v in range(g.n)}
    bags = {}
    succ = {}
    for v in order:
        later = {w for w in adj[v] if pos[w] > pos[v]}
        bags[v] = frozenset({v} | later)
        for a in later:
            for b in later:
                if a != b:
                    adj[a].add(b)
        for w in later:
            adj[w].discard(v)
        if later:
            succ[v] = min(later, key=lambda w: pos[w])
    parent = {}
    for v in order:
        if v in succ:
            parent[v] = succ[v]
    return bags, parent


def core_min_fill_relabeled(g: Superstructure, core: list[int]) -> NiceTreeDecomposition:
    """Min-fill decomposition of the subgraph of g induced by `core` (sorted),
    over g's vertex numbers."""
    pos = {v: i for i, v in enumerate(core)}
    h = Superstructure(len(core), [(pos[a], pos[b]) for a, b in g.edges
                                   if a in pos and b in pos])
    td = tree_decomposition(h)
    nodes = [TDNode(frozenset(core[x] for x in node.bag), node.kind, node.children)
             for node in td.nodes]
    return NiceTreeDecomposition(nodes, td.root, td.width)


def core_decomposition_rewrite(td: NiceTreeDecomposition, core) -> NiceTreeDecomposition:
    """`td` with every bag cut to `core`.  Introduce and forget nodes of
    other vertices, and joins with a side that holds no core vertex, pass
    their other child through; an introduce onto such a side becomes a
    leaf."""
    if not core:
        return NiceTreeDecomposition([TDNode(frozenset(), "leaf", [])], 0, -1)
    core = frozenset(core)
    nodes: list[TDNode] = []
    eff: dict = {}  # original node -> its node here, None when it holds no core vertex
    for t in td.postorder():
        node = td.nodes[t]
        if node.kind == "join":
            k1, k2 = (eff[c] for c in node.children)
            if k1 is None or k2 is None:
                eff[t] = k2 if k1 is None else k1
                continue
            new = TDNode(nodes[k1].bag, "join", [k1, k2])
        else:
            bag = node.bag & core
            k = eff[node.children[0]] if node.children else None
            if k is None:
                if not bag:
                    eff[t] = None
                    continue
                new = TDNode(bag, "leaf", [])
            elif len(bag) == len(nodes[k].bag):
                eff[t] = k
                continue
            else:
                new = TDNode(bag, node.kind, [k])
        nodes.append(new)
        eff[t] = len(nodes) - 1
    width = max(len(node.bag) for node in nodes) - 1
    return NiceTreeDecomposition(nodes, eff[td.root], width)


# The nice-decomposition builder that walked each raw component on its own
# explicit stack, then forgot each root's bag and joined the components
# pairwise under empty bags in a separate loop, and the post-order walk on
# a stack of (node, done) pairs, kept verbatim (only renamed, the walk
# taking the decomposition as an argument).  `graphs.nice_from_raw` and
# `NiceTreeDecomposition.postorder` must return exactly what these return.


def nice_from_raw_stack(bags: dict, parent: dict) -> NiceTreeDecomposition:
    """Nice decomposition from raw bags and a parent map over bag keys
    (roots omitted from `parent`); bag contents are morphed stepwise along
    each raw edge, children in ascending key order, and components joined
    under a shared empty root.  A bag with no vertex and no child covers
    nothing and is left out (a nice leaf holds one vertex); no bag left, or
    none given, gives one empty leaf of width -1."""
    nodes: list[TDNode] = []

    def add(bag, kind, children) -> int:
        nodes.append(TDNode(frozenset(bag), kind, list(children)))
        return len(nodes) - 1

    children_of: dict[int, list[int]] = {v: [] for v in bags}
    for v, p in parent.items():
        children_of[p].append(v)
    empty = [v for v in bags if not bags[v] and not children_of[v]]
    if empty:
        bags, parent = dict(bags), dict(parent)
        while empty:
            v = empty.pop()
            del bags[v], children_of[v]
            p = parent.pop(v, None)
            if p is not None:
                children_of[p].remove(v)
                if not bags[p] and not children_of[p]:
                    empty.append(p)
    if not bags:
        return NiceTreeDecomposition([TDNode(frozenset(), "leaf", [])], 0, -1)
    comp_roots = [v for v in bags if v not in parent]

    def morph(top: int, cur_bag: frozenset, bag: frozenset) -> int:
        """Forget the extras of a child's bag, then introduce the missing."""
        cur = top
        for x in sorted(cur_bag - bag):
            cur_bag = cur_bag - {x}
            cur = add(cur_bag, "forget", [cur])
        for x in sorted(bag - cur_bag):
            cur_bag = cur_bag | {x}
            cur = add(cur_bag, "introduce", [cur])
        return cur

    def close(v: int, sub_tops: list[int]) -> int:
        """Top node for bags[v] once its children's subtrees are built."""
        bag = bags[v]
        if not sub_tops:
            # build the bag from a singleton leaf
            vs = sorted(bag)
            cur = add({vs[0]}, "leaf", [])
            cur_bag = {vs[0]}
            for x in vs[1:]:
                cur_bag.add(x)
                cur = add(cur_bag, "introduce", [cur])
            return cur
        while len(sub_tops) > 1:
            b = sub_tops.pop()
            a = sub_tops.pop()
            sub_tops.append(add(bag, "join", [a, b]))
        return sub_tops[0]

    def build(root: int) -> int:
        """Nice subtree whose top node has bag bags[root]; returns node id.
        Children in sorted order, each child's subtree and morph emitted
        before the next child's: a depth-first walk on an explicit stack."""
        stack = [(root, sorted(children_of[root]), [])]
        while True:
            v, kids, sub_tops = stack[-1]
            if len(sub_tops) < len(kids):
                c = kids[len(sub_tops)]
                stack.append((c, sorted(children_of[c]), []))
                continue
            top = close(v, sub_tops)
            stack.pop()
            if not stack:
                return top
            p, _, p_tops = stack[-1]
            p_tops.append(morph(top, bags[v], bags[p]))

    tops = []
    for r in sorted(comp_roots):
        top = build(r)
        cur_bag = bags[r]
        for x in sorted(cur_bag):
            cur_bag = cur_bag - {x}
            top = add(cur_bag, "forget", [top])
        tops.append(top)
    while len(tops) > 1:
        b = tops.pop()
        a = tops.pop()
        tops.append(add(frozenset(), "join", [a, b]))
    root = tops[0]
    width = max(len(node.bag) for node in nodes) - 1
    return NiceTreeDecomposition(nodes, root, width)


def postorder_done_pairs(td: NiceTreeDecomposition) -> list[int]:
    order, stack = [], [(td.root, False)]
    while stack:
        t, done = stack.pop()
        if done:
            order.append(t)
        else:
            stack.append((t, True))
            for c in td.nodes[t].children:
                stack.append((c, False))
    return order


# The functions below are the kernel's contractible-path discovery with its
# own component DFS and BFS tree, its solution lifting with a scan and a
# copy of the whole arc set per step, and its path DP with two constraint
# encodings and a special case for one inner vertex, kept verbatim (only
# renamed, the lift method taking the `KernelResult` as `self`, and the
# path discovery reading the working state's `adj`, which an accessor
# returned before).
# `kernel._find_paths`, `KernelResult.lift` and `kernel._best_config` must
# return exactly what these return, ties broken alike.


def find_paths_own_bfs(work: _Work, min_inner: int) -> list[list[int]]:
    """Induced degree-2 paths between marked vertices (feedback edge
    endpoints and tree branch vertices), longest first."""
    adj = work.adj
    verts = sorted(work.adj)
    seen = set()
    paths = []
    for root in verts:
        if root in seen:
            continue
        comp = []
        stack = [root]
        seen.add(root)
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(comp) == 1:
            continue
        comp.sort()
        tree_adj: dict[int, set[int]] = {v: set() for v in comp}
        intree = set()
        feedback = []
        visited = {comp[0]}
        from collections import deque

        dq = deque([comp[0]])
        parent = {comp[0]: None}
        while dq:
            x = dq.popleft()
            for y in sorted(adj[x]):
                if y not in visited:
                    visited.add(y)
                    parent[y] = x
                    tree_adj[x].add(y)
                    tree_adj[y].add(x)
                    intree.add((min(x, y), max(x, y)))
                    dq.append(y)
        for x in comp:
            for y in adj[x]:
                if x < y and (x, y) not in intree:
                    feedback.append((x, y))
        marked = {v for v in comp if len(tree_adj[v]) >= 3}
        for x, y in feedback:
            marked.add(x)
            marked.add(y)
        if not marked:
            raise RuntimeError("multi-vertex component with no feedback edge")
        for u in sorted(marked):
            for w in sorted(tree_adj[u]):
                if w in marked:
                    continue
                inner = []
                prev, cur = u, w
                while cur not in marked:
                    inner.append(cur)
                    nxts = [x for x in tree_adj[cur] if x != prev]
                    if not nxts:
                        inner = None  # pendant chain, no second anchor
                        break
                    prev, cur = cur, nxts[0]
                if inner is not None and len(inner) >= min_inner:
                    paths.append([u] + inner + [cur])
    # deduplicate reversed copies
    uniq = []
    keys = set()
    for p in paths:
        key = frozenset(p[1:-1])
        if key not in keys:
            keys.add(key)
            uniq.append(p)
    uniq.sort(key=lambda p: (-len(p), p))
    return uniq


def lift_rescan(self, network: Network) -> Network:
    """Map a reduced-instance network to an original-instance network
    scoring at least as much (equally for optimal networks)."""
    arcs = {
        (self.loose_of_reduced[u], self.loose_of_reduced[v])
        for u, v in network.arcs
    }
    for step in reversed(self.steps):
        if step["rule"] == 1:
            arcs = lift_rr1_rescan(step, arcs)
        elif step["rule"] == 2:
            arcs = lift_rr2_rescan(step, arcs)
        else:
            arcs = lift_rr2_pl_rescan(step, arcs)
    if any(u >= self.original_n or v >= self.original_n for u, v in arcs):
        raise RuntimeError("lifted network still uses a gadget vertex")
    return Network(self.original_n, frozenset(arcs))


def lift_rr1_rescan(step, arcs: set) -> set:
    v = step["v"]
    parents = frozenset(u for u, w in arcs if w == v)
    s_members, arcs_out = step["configs"].get(parents, step["fallback"])
    out = set(arcs)
    for u in s_members:
        out.add((u, v))
    for w in arcs_out:
        out.add((v, w))
    return out


def lift_rr2_rescan(step, arcs: set) -> set:
    a, c, b = step["a"], step["c"], step["b"]
    inner = list(step["inner"])
    b1, bm = inner[0], inner[-1]
    region = {a, b, b1, bm, c}
    parents_b = frozenset(u for u, w in arcs if w == b)
    parents_b1 = frozenset(u for u, w in arcs if w == b1)
    parents_bm = frozenset(u for u, w in arcs if w == bm)
    pa = (b1, a) in arcs
    pc = (bm, c) in arcs
    if parents_b1 == frozenset({a, b, bm}):
        case = "nopath_a"
    elif parents_bm == frozenset({c, b, b1}):
        case = "nopath_c"
    else:
        bset = parents_b & {a, c}
        case = {
            frozenset(): "max_",
            frozenset([a]): "max_a",
            frozenset([c]): "max_c",
            frozenset([a, c]): "max_ac",
        }[frozenset(bset)]
    config = step["configs"][case]
    out = set()
    for (u, w) in arcs:
        if u == b or w == b:
            continue
        if {u, w} <= region and {u, w} & {b1, bm}:
            continue
        out.add((u, w))
    path_ext = [a] + inner + [c]
    for j, st in enumerate(config):
        if st == _FWD:
            out.add((path_ext[j], path_ext[j + 1]))
        elif st == _BWD:
            out.add((path_ext[j + 1], path_ext[j]))
    if pa:
        out.add((b1, a))
    if pc:
        out.add((bm, c))
    return out


def lift_rr2_pl_rescan(step, arcs: set) -> set:
    a, c, b = step["a"], step["c"], step["b"]
    inner = list(step["inner"])
    b1p, b1pp, bmp, bmpp = step["primes"]
    gadget = {b, b1p, b1pp, bmp, bmpp}
    parents_b = frozenset(u for u, w in arcs if w == b)
    parents_a = frozenset(u for u, w in arcs if w == a)
    parents_c = frozenset(u for u, w in arcs if w == c)
    pa = bool(parents_a & {b1p, b1pp})
    pc = bool(parents_c & {bmp, bmpp})
    case = None
    for tag, pset in step["b_sets"].items():
        if parents_b == pset:
            case = tag
            break
    if case is None:
        case = "0_" + _btag(parents_b & {a, c}, a, c)
    config = step["configs"][case]
    out = {(u, w) for u, w in arcs if not ({u, w} & gadget)}
    path_ext = [a] + inner + [c]
    for j, st in enumerate(config):
        if st == _FWD:
            out.add((path_ext[j], path_ext[j + 1]))
        elif st == _BWD:
            out.add((path_ext[j + 1], path_ext[j]))
    if pa:
        out.add((inner[0], a))
    if pc:
        out.add((inner[-1], c))
    return out


def best_config_two_encodings(work: _Work, path_ext, e0: str, em: str, constraint):
    """Max total score of the inner path vertices over orientations of the
    internal edges, with fixed end-edge states and an optional constraint:
    ("not_all", s): internal edges must not all have state s;
    ("all_present", flag): internal edges all present iff flag.

    Returns (score, edge state tuple) or None when infeasible.
    """
    m = len(path_ext) - 2
    if m == 1:
        if constraint is not None:
            kind, want = constraint
            if kind == "not_all":
                return None  # zero internal edges: "all" holds vacuously
            if kind == "all_present" and not want:
                return None
        return vertex_score(work, path_ext, 1, e0, em), (e0, em)

    def flag_init(state):
        if constraint is None:
            return False
        kind, want = constraint
        if kind == "not_all":
            return state == want
        return state != _NONE

    def flag_step(flag, state):
        if constraint is None:
            return False
        kind, want = constraint
        if kind == "not_all":
            return flag and state == want
        return flag and state != _NONE

    # layers[j-1]: (state of edge j, flag) -> (best score so far, backptr)
    cur = {}
    for st in (_FWD, _BWD, _NONE):
        sc = vertex_score(work, path_ext, 1, e0, st)
        key = (st, flag_init(st))
        if key not in cur or sc > cur[key][0]:
            cur[key] = (sc, None)
    layers = [cur]
    for j in range(2, m):  # choose edge j between b_j and b_{j+1}
        nxt = {}
        for (prev, flag), (sc, _) in layers[-1].items():
            for st in (_FWD, _BWD, _NONE):
                s2 = sc + vertex_score(work, path_ext, j, prev, st)
                key = (st, flag_step(flag, st))
                if key not in nxt or s2 > nxt[key][0]:
                    nxt[key] = (s2, (prev, flag))
        layers.append(nxt)
    best = None
    for (prev, flag), (sc, _) in layers[-1].items():
        if constraint is not None:
            kind, want = constraint
            if kind == "not_all" and flag:
                continue
            if kind == "all_present" and flag != want:
                continue
        total = sc + vertex_score(work, path_ext, m, prev, em)
        if best is None or total > best[0]:
            best = (total, (prev, flag))
    if best is None:
        return None
    total, key = best
    states = [key[0]]
    for layer in reversed(layers[1:]):
        key = layer[key][1]
        states.append(key[0])
    states.reverse()
    return total, tuple([e0] + states + [em])


class TwEngineDicts:
    def __init__(
        self,
        instance: AdditiveInstance,
        td: NiceTreeDecomposition,
        mode: str,
        q: Optional[int],
    ):
        if mode not in ("bnsl", "pl"):
            raise ValueError(f"unknown mode {mode!r}; expected 'bnsl' or 'pl'")
        self.inst = instance
        self.td = td
        self.mode = mode
        self.q = q
        self.g = superstructure(instance)
        self.verts = [tuple(sorted(node.bag)) for node in td.nodes]
        self.tables: dict[int, dict] = {}

    # snapshots: (loc rows, con rows, inn tuple of (v, count)); loc and con
    # are bit-row relations over the node's sorted bag (bnsl.relations)

    def _inn_key(self, counts: dict) -> tuple:
        if self.q is None:
            return ()
        return tuple(sorted(counts.items()))

    def run_tables(self):
        nodes = self.td.nodes
        for t in self.td.postorder():
            node = nodes[t]
            if node.kind == "leaf":
                self.tables[t] = self._leaf(node)
            elif node.kind == "introduce":
                self.tables[t] = self._introduce(t, node)
            elif node.kind == "forget":
                self.tables[t] = self._forget(t, node)
            else:
                self.tables[t] = self._join(t, node)
        return self.tables

    def solve(self) -> tuple[int, Network]:
        self.run_tables()
        root_table = self.tables[self.td.root]
        key = ((), (), ())
        if list(root_table) != [key]:
            raise RuntimeError("root must hold the single empty snapshot")
        score, _ = root_table[key]
        arcs = self._collect(self.td.root, key)
        return score, Network(self.inst.n, frozenset(arcs))

    def _leaf(self, node) -> dict:
        empty = (0,) * len(node.bag)
        return {(empty, empty, self._inn_key(dict.fromkeys(node.bag, 0))): (0, ("leaf",))}

    def _introduce(self, t, node) -> dict:
        (child,) = node.children
        v = next(iter(node.bag - self.td.nodes[child].bag))
        verts, cverts = self.verts[t], self.verts[child]
        nbrs = sorted(self.g.adj[v] & node.bag)
        cand_arcs = [(v, u) for u in nbrs] + [(u, v) for u in nbrs]
        table: dict = {}
        child_table = self.tables[child]
        subsets = [(q, from_pairs(q, verts)) for q in arc_subsets_by_edge(cand_arcs)]
        for ckey, (cscore, _) in child_table.items():
            loc0, con0, inn0 = ckey
            loc0 = reindex(loc0, cverts, verts)
            con0 = reindex(con0, cverts, verts)
            if self.mode == "pl":
                n_old = len(classes(con0))
            inn0d = dict(inn0)
            for q_arcs, q_rows in subsets:
                gain = 0
                ok = True
                if self.q is not None:
                    innd = dict(inn0d)
                    innd[v] = 0
                    for (x, y) in q_arcs:
                        innd[y] = innd.get(y, 0) + 1
                        if innd[y] > self.q:
                            ok = False
                            break
                    if not ok:
                        continue
                    inn = tuple(sorted(innd.items()))
                else:
                    inn = ()
                for (x, y) in q_arcs:
                    gain += self.inst.arc(x, y)
                merged = [a | b for a, b in zip(con0, q_rows)]
                if self.mode == "bnsl":
                    con = closure(merged)
                    if not irreflexive(con):
                        continue
                else:
                    if len(classes(merged)) != n_old - len(q_arcs):
                        continue
                    con = same_class(merged)
                loc = tuple(a | b for a, b in zip(loc0, q_rows))
                key = (loc, tuple(con), inn)
                val = cscore + gain
                cur = table.get(key)
                if cur is None or val > cur[0]:
                    table[key] = (val, ("intro", ckey, q_arcs))
        return table

    def _forget(self, t, node) -> dict:
        (child,) = node.children
        v = next(iter(self.td.nodes[child].bag - node.bag))
        verts, cverts = self.verts[t], self.verts[child]
        table: dict = {}
        for ckey, (cscore, _) in self.tables[child].items():
            loc0, con0, inn0 = ckey
            loc = tuple(reindex(loc0, cverts, verts))
            con = tuple(reindex(con0, cverts, verts))
            inn = tuple((x, k) for x, k in inn0 if x != v)
            key = (loc, con, inn)
            cur = table.get(key)
            if cur is None or cscore > cur[0]:
                table[key] = (cscore, ("forget", ckey))
        return table

    def _join(self, t, node) -> dict:
        c1, c2 = node.children
        bag = node.bag
        by_loc: dict = {}
        for key2 in self.tables[c2]:
            by_loc.setdefault(key2[0], []).append(key2)
        table: dict = {}
        for key1, (s1, _) in self.tables[c1].items():
            loc, con1, inn1 = key1
            loc_arcs = to_pairs(loc, self.verts[t])
            doublecount = sum(self.inst.arc(x, y) for x, y in loc_arcs)
            if self.q is not None:
                indeg_loc: dict = {}
                for x, y in loc_arcs:
                    indeg_loc[y] = indeg_loc.get(y, 0) + 1
            if self.mode == "pl":
                locc = tuple(same_class(loc))
                n_shared = len(classes(loc))
                n1 = len(classes(con1))
            for key2 in by_loc.get(loc, ()):
                _, con2, inn2 = key2
                s2 = self.tables[c2][key2][0]
                if self.q is not None:
                    innd = {}
                    d1, d2 = dict(inn1), dict(inn2)
                    ok = True
                    for x in bag:
                        innd[x] = d1.get(x, 0) + d2.get(x, 0) - indeg_loc.get(x, 0)
                        if innd[x] > self.q:
                            ok = False
                            break
                    if not ok:
                        continue
                    inn = tuple(sorted(innd.items()))
                else:
                    inn = ()
                merged = [a | b for a, b in zip(con1, con2)]
                if self.mode == "bnsl":
                    con = closure(merged)
                    if not irreflexive(con):
                        continue
                else:
                    # the two partial polytrees share exactly the bag
                    # vertices and the loc arcs; contracting loc, their
                    # union has a forest skeleton iff the loc components
                    # are exactly the pairs both sides connect and gluing
                    # the two component partitions merges everything
                    # freshly: #shared = #classes1 + #classes2 - #merged
                    if tuple(a & b for a, b in zip(con1, con2)) != locc:
                        continue
                    n2 = len(classes(con2))
                    if n_shared != n1 + n2 - len(classes(merged)):
                        continue
                    con = same_class(merged)
                key = (loc, tuple(con), inn)
                val = s1 + s2 - doublecount
                cur = table.get(key)
                if cur is None or val > cur[0]:
                    table[key] = (val, ("join", key1, key2))
        return table

    def _collect(self, t, key) -> set:
        arcs: set = set()
        stack = [(t, key)]
        while stack:
            t, key = stack.pop()
            back = self.tables[t][key][1]
            node = self.td.nodes[t]
            if back[0] == "leaf":
                continue
            if back[0] == "intro":
                arcs |= back[2]
                stack.append((node.children[0], back[1]))
            elif back[0] == "forget":
                stack.append((node.children[0], back[1]))
            else:
                stack.append((node.children[0], back[1]))
                stack.append((node.children[1], back[2]))
        return arcs


def arc_subsets_by_edge(cand: list) -> list[frozenset]:
    """All arc subsets using each undirected edge at most once."""
    edges: dict = {}
    for u, v in cand:
        edges.setdefault(frozenset((u, v)), []).append((u, v))
    out = [frozenset()]
    for pair, orients in edges.items():
        new = []
        for s in out:
            new.append(s)
            for o in orients:
                new.append(s | {o})
        out = new
    return out


def snapshot_tables_dicts(instance: AdditiveInstance, mode: str, td: NiceTreeDecomposition):
    """`TwEngineDicts` tables with plain keys, as `tw_dp.snapshot_tables`
    returns them."""
    eng = TwEngineDicts(instance, td, mode, instance.max_in_degree)
    tables = eng.run_tables()
    plain = {}
    for t, table in tables.items():
        verts = eng.verts[t]
        plain[t] = {
            (to_pairs(loc, verts), to_pairs(con, verts), inn): val
            for (loc, con, inn), (val, _) in table.items()
        }
    return plain


def boundaries_by_subtree_masks(
    g: Superstructure, forest: SpanningForest, children, subtree: list[int]
) -> list[Boundary]:
    # an edge has exactly one endpoint in v's subtree iff v lies on the
    # tree path from an endpoint up to (excluding) the endpoints' lowest
    # common ancestor: walk that path once per edge, O(n + sum of lengths)
    n = g.n
    parent = forest.parent
    depth = forest.depth
    dsets: list[set[int]] = [set() for _ in range(n)]
    for a, b in g.edges:
        x, y = a, b
        while x != y:
            if y is None or (x is not None and depth[x] >= depth[y]):
                dsets[x].update((a, b))
                x = parent[x]
            else:
                dsets[y].update((a, b))
                y = parent[y]
    deltas = [tuple(sorted(d)) for d in dsets]
    out = []
    for v in range(n):
        mask = subtree[v]
        din = tuple(x for x in deltas[v] if mask >> x & 1)
        dout = tuple(x for x in deltas[v] if not mask >> x & 1)
        opens, closeds = [], []
        for c in children[v]:
            if len(deltas[c]) <= 2:
                closeds.append(c)
            else:
                opens.append(c)
        out.append(Boundary(v, deltas[v], din, dout, tuple(opens), tuple(closeds)))
    return out


def subtree_masks(forest: SpanningForest, children) -> list[int]:
    """Bitmask of each vertex's subtree, children before parents."""
    subtree = [0] * forest.n
    for v in forest.order[::-1]:
        mask = 1 << v
        for c in children[v]:
            mask |= subtree[c]
        subtree[v] = mask
    return subtree


class RecordEngineProduct:
    """Leaf-to-root record DP over a rooted spanning forest.

    Subclasses fix the key format and build the tables: `root_key`,
    `closed_key(c, take_arc)` (the key of closed child c's record without
    or with the arc from its tree parent into c), `records(v)` (tables[v]
    in the public key format) and `combine_records(v)`, which also serves
    the leaves.  tables[v] maps a key to (score, (parents, closed choice,
    open choice)): v's parent set, whether each closed child takes the arc
    from v, and the key picked in each open child's table.
    """

    root_key: tuple = ()

    def __init__(self, instance: NonZeroInstance, g: Superstructure, forest: SpanningForest):
        self.instance = instance
        self.g = g
        self.forest = forest
        self.children = forest.children_lists()
        self.subtree = subtree_masks(forest, self.children)
        self.bounds = boundaries_by_subtree_masks(g, forest, self.children, self.subtree)
        bound = 2 * lfen_of_tree(g, forest).value + 2
        if any(len(b.delta) > bound for b in self.bounds):
            raise RuntimeError("boundary exceeds 2k+2")
        self.tables: list[Optional[dict]] = [None] * g.n

    def records(self, v: int) -> dict:
        """tables[v] as {key: best score}."""
        return {key: sc for key, (sc, _) in self.tables[v].items()}

    def fill(self, stop: Optional[int] = None):
        """Fill the tables children first, up to and including `stop`."""
        for v in self.forest.order[::-1]:  # children before parents
            self.tables[v] = self.combine_records(v)
            if v == stop:
                break

    def parent_choices(self, v: int):
        """(parents, score, closed choice) for each parent set of v, the
        score including the best record of every closed child that fits;
        parent sets that no closed-child record fits are skipped."""
        closed_info = []
        for c in self.bounds[v].closed_children:
            s_empty = self.tables[c].get(self.closed_key(c, False))
            s_arc = self.tables[c].get(self.closed_key(c, True))
            closed_info.append(
                (c, s_empty[0] if s_empty else None, s_arc[0] if s_arc else None)
            )
        for parents in self.instance.parent_sets(v):
            if not parents <= self.g.adj[v]:
                raise RuntimeError("parent outside superstructure")
            base = self.instance.score(v, parents)
            closed_choice = []
            feasible = True
            for c, s_empty, s_arc in closed_info:
                if c in parents:
                    if s_empty is None:
                        feasible = False
                        break
                    base += s_empty
                    closed_choice.append((c, False))
                else:
                    if s_arc is not None and (s_empty is None or s_arc > s_empty):
                        base += s_arc
                        closed_choice.append((c, True))
                    else:
                        base += s_empty
                        closed_choice.append((c, False))
            if feasible:
                yield parents, base, tuple(closed_choice)

    def solve(self) -> tuple[int, Network]:
        """Optimum score and a witness network, collected without recursion."""
        self.fill()
        total = 0
        arcs: set[tuple[int, int]] = set()
        for r in self.forest.roots:
            table = self.tables[r]
            if list(table) != [self.root_key]:
                raise RuntimeError("root must hold the single empty record")
            total += table[self.root_key][0]
            stack = [(r, self.root_key)]
            while stack:
                v, key = stack.pop()
                parents, closed_choice, open_choice = self.tables[v][key][1]
                arcs.update((p, v) for p in parents)
                for c, take_arc in closed_choice:
                    stack.append((c, self.closed_key(c, take_arc)))
                stack.extend(open_choice)
        return total, Network(self.instance.n, frozenset(arcs))


class BnslEngineProduct(RecordEngineProduct):
    """Acyclic-network record DP; keys are strict-reachability relations as
    bit rows over the sorted delta of the vertex (bnsl.relations)."""

    def closed_key(self, c: int, take_arc: bool) -> tuple[int, ...]:
        arcs = [(self.forest.parent[c], c)] if take_arc else []
        return tuple(from_pairs(arcs, self.bounds[c].delta))

    def records(self, v: int) -> dict:
        """tables[v] as {reachability pair set: best score}."""
        delta = self.bounds[v].delta
        return {to_pairs(key, delta): sc for key, (sc, _) in self.tables[v].items()}

    def combine_records(self, v: int) -> dict:
        b = self.bounds[v]
        opens = b.open_children

        # dense local index over everything the combination can mention
        ground = {v}
        ground.update(self.g.adj[v])
        for c in opens:
            ground.update(self.bounds[c].delta)
        ground = sorted(ground)
        gidx = {x: i for i, x in enumerate(ground)}

        delta_mask = 0
        for x in b.delta:
            delta_mask |= 1 << gidx[x]

        frontier_after = []
        acc = delta_mask
        for c in reversed(opens):
            frontier_after.append(acc)
            for x in self.bounds[c].delta:
                acc |= 1 << gidx[x]
        frontier_after.reverse()  # frontier_after[i]: mask kept after folding opens[i]

        # each open child's records, translated once into the ground index
        child_records = []
        for c in opens:
            ctable = self.tables[c]
            cdelta = self.bounds[c].delta
            child_records.append([
                (reindex(ckey, cdelta, ground), ctable[ckey][0], ckey)
                for ckey in sorted(ctable)
            ])

        table: dict = {}
        vbit = 1 << gidx[v]
        for parents, base, closed_choice in self.parent_choices(v):
            rows0 = [0] * len(ground)
            for p in parents:
                rows0[gidx[p]] |= vbit
            # fold the open children one by one, deduplicating on the
            # closure restricted to what later steps can still observe
            states = {tuple(rows0): (base, ())}
            for c, keep, crecords in zip(opens, frontier_after, child_records):
                nxt: dict = {}
                for rows, (score, chain) in states.items():
                    for crows, cscore, ckey in crecords:
                        merged = closure([a | b for a, b in zip(rows, crows)])
                        if not irreflexive(merged):
                            continue
                        mkey = tuple(restrict(merged, keep))
                        val = score + cscore
                        cur = nxt.get(mkey)
                        if cur is None or val > cur[0]:
                            nxt[mkey] = (val, chain + ((c, ckey),))
                states = nxt
            for rows, (score, chain) in states.items():
                key = tuple(reindex(closure(rows), ground, b.delta))
                cur = table.get(key)
                if cur is None or score > cur[0]:
                    table[key] = (score, (parents, closed_choice, chain))
        return table


class PlEngineProduct(RecordEngineProduct):
    """Record DP for polytrees: per vertex an equivalence on the inner
    boundary (components of the partial skeleton inside the subtree) plus
    the set of arcs entering the subtree from outside."""

    root_key = ((), frozenset())

    def closed_key(self, c: int, take_arc: bool) -> tuple:
        return (((c,),), frozenset([(self.forest.parent[c], c)] if take_arc else []))

    def combine_records(self, v: int) -> dict:
        b = self.bounds[v]
        vmask = self.subtree[v]
        din = sorted(b.delta_in)
        closed_set = set(b.closed_children)
        open_records = [
            [
                ((c, ckey), self.tables[c][ckey][0])
                for ckey in sorted(self.tables[c], key=lambda k: (k[0], tuple(sorted(k[1]))))
            ]
            for c in b.open_children
        ]
        table: dict = {}
        for parents, base, closed_choice in self.parent_choices(v):
            for combo in product(*open_records):
                # glue v, the open children's components and the outside
                # vertices the arcs touch into one skeleton; closed children
                # attach by a single edge and cannot close a skeleton cycle,
                # so their glue arcs stay out of it
                arcs = [(p, v) for p in sorted(parents) if p not in closed_set]
                node = {v: 0}
                size = 1
                for (_, (part, carcs)), _ in combo:
                    for cls in part:
                        for x in cls:
                            node[x] = size
                        size += 1
                    arcs.extend(carcs)
                for arc in arcs:
                    for x in arc:
                        if x not in node:
                            if vmask >> x & 1:
                                raise RuntimeError("inside vertex missing from classes")
                            node[x] = size
                            size += 1
                skeleton, inner = [0] * size, [0] * size
                for x, y in arcs:
                    skeleton[node[x]] |= 1 << node[y]
                    if vmask >> x & 1:
                        inner[node[x]] |= 1 << node[y]
                # a forest iff every arc merges two components
                if len(classes(skeleton)) != size - len(arcs):
                    continue
                # components of the subgraph induced on the subtree: only
                # arcs with both endpoints inside count
                groups = (
                    tuple(x for x in din if cls >> node[x] & 1)
                    for cls in classes(inner)
                )
                part_key = tuple(sorted(g for g in groups if g))
                key = (part_key, frozenset((x, y) for x, y in arcs if not vmask >> x & 1))
                score = base + sum(cscore for _, cscore in combo)
                cur = table.get(key)
                if cur is None or score > cur[0]:
                    open_choice = tuple(choice for choice, _ in combo)
                    table[key] = (score, (parents, closed_choice, open_choice))
        return table


class RowFold(_RecordEngine):
    """The acyclic record DP's fold with a merge on tuples of rows, with the
    keys' public format of `_BnslEngine` and nothing else of it: `operand`
    unpacks each state and child record, and `glue` packs the result of
    the subclass's `row_glue`.  The library's fold cuts every merged state
    down to the indices it keeps, so `row_glue` is asked to keep every
    index."""

    public = _BnslEngine.public

    @staticmethod
    def operand(state: int, d: int):
        return tuple(unpack(state, d))

    def glue(self, held, cheld, outside: int, d: int):
        rows = self.row_glue(held, cheld, (1 << d) - 1, outside)
        return None if rows is None else relations.pack(rows, d)


class BnslEngineFullClosure(RowFold):
    """The acyclic record DP with its earlier merge, kept verbatim: a full
    Warshall closure of the union over the fold's whole ground index, then
    the irreflexivity test, then the cut down to `keep`.  It merges plain
    rows; the fold driver is the library's, which `BnslEngineProduct`
    checks on its own."""

    @staticmethod
    def row_glue(rows, crows, keep: int, outside: int):
        # restricting a closed relation leaves it closed, so the state
        # stays the reachability relation of the partial solution
        merged = closure([a | b for a, b in zip(rows, crows)])
        if not irreflexive(merged):
            return None
        return tuple(restrict(merged, keep))


# The library's former `relations.reindex`, kept verbatim: the earlier engines
# above call it; the library now compiles each map once (`relations.remap`).


def reindex(rows: Sequence[int], src: Sequence, dst: Sequence) -> list[int]:
    """Rows over vertex list `src` re-expressed over vertex list `dst`;
    pairs with a vertex missing from `dst` are dropped."""
    pos = {x: i for i, x in enumerate(dst)}
    to = [pos.get(x) for x in src]
    out = [0] * len(dst)
    for i, row in enumerate(rows):
        if to[i] is None:
            continue
        new = 0
        j = 0
        while row:
            if row & 1 and to[j] is not None:
                new |= 1 << to[j]
            row >>= 1
            j += 1
        out[to[i]] = new
    return out


# The library's former row helpers, kept verbatim: the library now keeps
# every relation packed into one int (bnsl.relations), while the references
# above and the tests build and read relations as lists of bit rows, row i
# over index i (bit j set when i is related to j).  `unpack` gives the rows
# of a packed relation, `relations.pack(rows, d)` packs them again.


def unpack(m: int, d: int) -> list[int]:
    """The d rows of a relation packed by `relations.pack`, row 0 in the
    top field."""
    field = (1 << d) - 1
    return [m >> (d - 1 - i) * d & field for i in range(d)]


def closure(rows: Sequence[int]) -> list[int]:
    """Transitive closure (Warshall)."""
    rows = list(rows)
    d = len(rows)
    for k in range(d):
        col = 1 << k
        rk = rows[k]
        for i in range(d):
            if rows[i] & col:
                rows[i] |= rk
    return rows


def irreflexive(rows: Sequence[int]) -> bool:
    """True when no index is related to itself."""
    return not any(row >> i & 1 for i, row in enumerate(rows))


def restrict(rows: Sequence[int], mask: int) -> list[int]:
    """Only the pairs with both indices in `mask`."""
    return [row & mask if mask >> i & 1 else 0 for i, row in enumerate(rows)]


def remap(src: Sequence, dst: Sequence):
    """The fixed map from vertex list `src` to vertex list `dst`, compiled
    once: the returned function re-expresses rows over `src` as rows over
    `dst`, dropping pairs with a vertex missing from `dst`.  Its cost per
    call is one step per kept row and per pair in it."""
    pos = {x: i for i, x in enumerate(dst)}
    moves = [(i, pos[x]) for i, x in enumerate(src) if x in pos]
    bit = [1 << pos[x] if x in pos else 0 for x in src]
    kept = sum(1 << i for i, _ in moves)
    d = len(dst)

    def apply(rows: Sequence[int]) -> list[int]:
        out = [0] * d
        for i, j in moves:
            row = rows[i] & kept
            new = 0
            while row:
                low = row & -row
                new |= bit[low.bit_length() - 1]
                row ^= low
            out[j] = new
        return out

    return apply


def classes(rows: Sequence[int]) -> list[int]:
    """Index masks of the connected classes of the symmetric closure; every
    index lies in exactly one class."""
    out: list[int] = []
    for i, row in enumerate(rows):
        cls = row | 1 << i
        rest = []
        for other in out:
            if other & cls:
                cls |= other
            else:
                rest.append(other)
        rest.append(cls)
        out = rest
    return out


def same_class(rows: Sequence[int]) -> list[int]:
    """Pairs of distinct indices in one class of the symmetric closure."""
    return class_rows(classes(rows), len(rows))


def class_rows(parts: Iterable[int], d: int) -> list[int]:
    """Pairs of distinct indices in one of `parts`, index masks that
    partition range(d)."""
    out = [0] * d
    for cls in parts:
        for i in range(d):
            if cls >> i & 1:
                out[i] = cls & ~(1 << i)
    return out


def from_pairs(pairs: Iterable[tuple], verts: Sequence) -> list[int]:
    """Rows over `verts` holding the given vertex pairs."""
    pos = {x: i for i, x in enumerate(verts)}
    rows = [0] * len(verts)
    for x, y in pairs:
        rows[pos[x]] |= 1 << pos[y]
    return rows


def to_pairs(rows: Sequence[int], verts: Sequence) -> frozenset:
    """The vertex pairs held by rows over `verts`."""
    return frozenset(
        (verts[i], verts[j])
        for i, row in enumerate(rows)
        for j in range(len(verts))
        if row >> j & 1
    )



# The two functions below are the row-list versions of
# `relations.closed_union` and `relations.support`, kept verbatim (only
# renamed); `BnslEngineRowGlue` is the acyclic record DP's merge that
# called them before the fold packed its states into ints.


def closed_union_rows(a: Sequence[int], b: Sequence[int], shared: int, keep: int) -> Optional[list[int]]:
    """restrict(closure(a | b), keep) for strict partial orders `a` and `b`
    (transitive and irreflexive) whose supports meet only inside the index
    mask `shared`; None when that closure is not irreflexive.

    Transitivity shortens any path of the union until its pairs alternate
    between `a` and `b`; then each index inside it is one where the path
    switches operand, which both supports hold.  So Warshall over the
    pivots in `shared` alone gives the closure, in O(|shared| d).  Neither
    operand has a cycle, so a cycle of the union alternates too, and the
    last of its indices taken as a pivot already reaches itself then.
    """
    rows = list(map(or_, a, b))
    while shared:
        low = shared & -shared
        rk = rows[low.bit_length() - 1]
        if rk & low:
            return None
        for i, row in enumerate(rows):
            if row & low:
                rows[i] = row | rk
        shared ^= low
    return restrict(rows, keep)


def support_rows(rows: Sequence[int]) -> int:
    """Index mask of the indices in some pair."""
    out = 0
    for i, row in enumerate(rows):
        if row:
            out |= row | 1 << i
    return out


class BnslEngineRowGlue(RowFold):
    """The acyclic record DP with the shared-support merge on row lists:
    states and child records are read as rows with their support mask."""

    @staticmethod
    def operand(state: int, d: int):
        rows = unpack(state, d)
        return rows, support_rows(rows)

    @staticmethod
    def row_glue(state, cpiece, keep: int, outside: int):
        (rows, sup), (crows, csup) = state, cpiece
        merged = closed_union_rows(rows, crows, sup & csup, keep)
        return None if merged is None else tuple(merged)


def component_lfen_tree_rebuild(g: Superstructure, budget: int):
    """(tree edge set, exact flag) for a connected graph, scoring every
    local-search swap on a rebuilt forest."""
    if g.edge_count() == g.n - 1:
        return frozenset(g.edges), True
    best_tree = None
    best_key = None
    if graphs.spanning_tree_count(g) <= budget:
        for tree in graphs._spanning_trees(g):
            value = graphs.lfen_of_tree(g, graphs.forest_from_edges(g, tree)).value
            key = (value, tuple(sorted(tree)))
            if best_key is None or key < best_key:
                best_key = key
                best_tree = tree
        return best_tree, True
    # local search fallback
    for root in range(min(g.n, graphs._SEARCH_ROOTS)):
        forest = graphs.forest_from_edges(g, graphs._bfs_edges(g, [root]))
        value = graphs.lfen_of_tree(g, forest).value
        while True:
            swap_best = None
            for e in sorted(g.edges - forest.tree_edges):
                path = forest.tree_path(*e)
                path_edges = sorted(
                    graphs._norm(path[i], path[i + 1]) for i in range(len(path) - 1)
                )
                for f in path_edges:
                    cand = graphs.forest_from_edges(g, (forest.tree_edges - {f}) | {e})
                    cval = graphs.lfen_of_tree(g, cand).value
                    if cval < value and (
                        swap_best is None or (cval, e, f) < swap_best[:3]
                    ):
                        swap_best = (cval, e, f, cand)
            if swap_best is None:
                break
            value, _, _, forest = swap_best
        key = (value, tuple(sorted(forest.tree_edges)))
        if best_key is None or key < best_key:
            best_key = key
            best_tree = forest.tree_edges
    return best_tree, False


def subdivide_resort(rng: random.Random, g: Superstructure, times: int) -> Superstructure:
    """`generate.subdivide` drawing each edge from a freshly sorted copy of
    the edge set."""
    n = g.n
    edges = set(g.edges)
    for _ in range(times):
        e = rng.choice(sorted(edges))
        edges.remove(e)
        a, b = e
        edges.add((min(a, n), max(a, n)))
        edges.add((min(b, n), max(b, n)))
        n += 1
    return Superstructure(n, edges)


def component_subgraph_edge_scan(g: Superstructure, comp: list[int]):
    idx = {v: i for i, v in enumerate(comp)}
    edges = [
        (idx[a], idx[b]) for a, b in sorted(g.edges) if a in idx and b in idx
    ]
    return Superstructure(len(comp), edges), idx


def exact_common_independent(
    elements, oracles, per_cardinality: bool = False
):
    """Best common independent subset(s) by full subset scan.

    `oracles` must expose graphic_independent(list) and
    partition_independent(list).  With per_cardinality, returns a dict
    cardinality -> (weight, subset); otherwise (weight, subset).
    """
    items = list(elements)
    if len(items) > 14:
        raise OracleLimitError("subset scan limited to 14 ground elements")
    best: dict[int, tuple[int, tuple]] = {}
    overall = (0, ())
    for mask in range(1 << len(items)):
        subset = [items[i] for i in range(len(items)) if mask & (1 << i)]
        if not oracles.graphic_independent(subset):
            continue
        if not oracles.partition_independent(subset):
            continue
        weight = sum(e.weight for e in subset)
        k = len(subset)
        if k not in best or weight > best[k][0]:
            best[k] = (weight, tuple(subset))
        if weight > overall[0]:
            overall = (weight, tuple(subset))
    return best if per_cardinality else overall


def random_network(seed_or_rng, instance, arc_prob: float = 0.35) -> Network:
    """A random acyclic network over the instance's superstructure arcs
    (random vertex order, forward arcs only)."""
    from bnsl.instances import superstructure as ss

    rng = generate._rng(seed_or_rng)
    g = ss(instance)
    order = list(range(instance.n))
    rng.shuffle(order)
    pos = {v: i for i, v in enumerate(order)}
    arcs = set()
    for a, b in sorted(g.edges):
        if rng.random() < arc_prob:
            if pos[a] < pos[b]:
                arcs.add((a, b))
            else:
                arcs.add((b, a))
    return Network(instance.n, frozenset(arcs))


def exact_order(g: Superstructure) -> list[int]:
    """Optimal elimination order by dynamic programming over vertex subsets
    (feasible up to ~n=12; used for test-grade exact widths)."""
    n = g.n
    if n > 14:
        raise ValueError("exact width mode is limited to small graphs")
    verts = list(range(n))

    def q(mask: int, v: int) -> int:
        # vertices outside mask|{v} reachable from v through mask
        seen = 1 << v
        stack = [v]
        out = 0
        while stack:
            x = stack.pop()
            for y in g.adj[x]:
                bit = 1 << y
                if seen & bit:
                    continue
                seen |= bit
                if mask & bit:
                    stack.append(y)
                else:
                    out += 1
        return out

    full = (1 << n) - 1
    opt = {0: -1}
    choice = {}
    masks = sorted(range(full + 1), key=lambda m: bin(m).count("1"))
    for mask in masks:
        if mask == 0:
            continue
        best, bestv = None, None
        for v in verts:
            bit = 1 << v
            if not mask & bit:
                continue
            prev = mask ^ bit
            val = max(opt[prev], q(prev, v))
            if best is None or val < best:
                best, bestv = val, v
        opt[mask] = best
        choice[mask] = bestv
    order = []
    mask = full
    while mask:
        v = choice[mask]
        order.append(v)
        mask ^= 1 << v
    order.reverse()
    return order


def exact_lfen(
    g: Superstructure, budget: int = 2_000_000
) -> tuple[int, frozenset[tuple[int, int]]]:
    """Minimum over all spanning trees of the per-vertex local feedback
    count; returns (value, witness tree edges).  Enumeration by edge
    combinations, independent of the search in the graphs module."""
    total_value = 0
    witness: set[tuple[int, int]] = set()
    checked = 0
    for comp in g.components():
        idx = {v: i for i, v in enumerate(comp)}
        back = {i: v for v, i in idx.items()}
        cedges = [
            (idx[a], idx[b]) for a, b in sorted(g.edges) if a in idx and b in idx
        ]
        nc = len(comp)
        best_val, best_tree = None, None
        for combo in combinations(range(len(cedges)), nc - 1):
            checked += 1
            if checked > budget:
                raise OracleLimitError("spanning tree enumeration budget exceeded")
            parent = list(range(nc))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            ok = True
            for j in combo:
                a, b = cedges[j]
                ra, rb = find(a), find(b)
                if ra == rb:
                    ok = False
                    break
                parent[ra] = rb
            if not ok:
                continue
            tree = [cedges[j] for j in combo]
            val = _tree_local_value(nc, tree, [e for e in cedges if e not in set(tree)])
            key = (val, tuple(sorted(tree)))
            if best_val is None or key < (best_val, tuple(sorted(best_tree))):
                best_val, best_tree = val, tree
        if best_val is None:  # single-vertex component
            best_val, best_tree = 0, []
        total_value = max(total_value, best_val)
        witness.update(
            (min(back[a], back[b]), max(back[a], back[b])) for a, b in best_tree
        )
    return total_value, frozenset(witness)


def _tree_local_value(n, tree_edges, extra_edges) -> int:
    """max over vertices of the number of extra edges whose tree path
    contains the vertex (BFS per extra edge)."""
    from collections import deque

    adj: dict[int, list[int]] = {v: [] for v in range(n)}
    for a, b in tree_edges:
        adj[a].append(b)
        adj[b].append(a)
    counts = [0] * n
    for u, w in extra_edges:
        prev = {u: None}
        dq = deque([u])
        while dq:
            x = dq.popleft()
            if x == w:
                break
            for y in adj[x]:
                if y not in prev:
                    prev[y] = x
                    dq.append(y)
        x = w
        while x is not None:
            counts[x] += 1
            x = prev[x]
    return max(counts, default=0)


def exact_decomposition(g: Superstructure) -> NiceTreeDecomposition:
    """Nice decomposition of g in its optimal elimination order."""
    return graphs.nice_from_raw(*bags_from_order_replay(g, exact_order(g)))


class TwEngineProduct(_TwEngine):
    """The bag DP's steps before they dropped their per-node overhead: each
    introduce lists its arc choices with `itertools.product` and rebuilds
    every choice's arcs, parent counts, rows and support; introduce and
    forget compile a fresh `relations.remap` per node; each join entry
    sums its loc arcs' scores and counts; `_prune` groups every table."""

    def _prune(self, table: dict) -> dict:
        """The entries of `table` that no other entry dominates, in their
        insertion order.

        Snapshot (loc, con', inn') with score s' dominates (loc, con, inn)
        with score s when s' >= s, con' is a subset of con row by row and
        inn' <= inn at every position.  Dropping the second keeps the
        optimum, because every later step is monotone in con and inn.  Both
        snapshots hold the same arcs inside the bag (loc), so they meet the
        same arc choices and join partners.  One that keeps the second
        acyclic keeps the first so too, since a subset of the reachable
        pairs closes no cycle the whole set does not close (for polytrees:
        a finer partition joins no two vertices of one class).  Parent
        counts only add up, so the first stays within the bound whenever
        the second does.  The bonus a forget adds for a vertex's folded
        pendant trees never grows with the vertex's parent count, so the
        first collects at least the second's.  And the results again have
        a subset con, no larger inn and no lower score, so the root score
        is unchanged, though a tie may pick another optimal network.
        Distinct snapshots never dominate each other both ways, so the
        entries kept are exactly those no other entry dominates.
        """
        groups: dict = {}
        for key in table:
            groups.setdefault(key[0], []).append(key)
        if len(groups) == len(table):
            return table
        # con' is a subset of con when con' & ~con is 0; inn packs into
        # fields of w bits whose top bit is a guard, so inn' <= inn
        # everywhere when subtracting inn' from inn with every guard set
        # borrows no guard away
        w = (self.q or 0).bit_length() + 1
        guard = relations.pack([1 << w - 1] * len(next(iter(table))[2]), w)
        dropped = set()
        for keys in groups.values():
            if len(keys) == 1:
                continue
            # a dominating snapshot scores at least as much and, when
            # distinct, has a smaller rank: sorted, it comes first
            group = []
            for key in keys:
                con = key[1]
                group.append(((-table[key][0], con.bit_count() + sum(key[2])),
                              con, relations.pack(key[2], w) | guard, key))
            group.sort(key=itemgetter(0))
            kept: dict = {}  # con -> packed inn of each kept snapshot with it
            for _, con, inn, key in group:
                if any(not con1 & ~con and any((inn - inn1) & guard == guard for inn1 in inns)
                       for con1, inns in kept.items()):
                    dropped.add(key)
                else:
                    kept.setdefault(con, []).append(inn & ~guard)
        return {key: entry for key, entry in table.items() if key not in dropped}

    def _introduce(self, t, node) -> dict:
        (child,) = node.children
        v = next(iter(node.bag - self.td.nodes[child].bag))
        verts, cverts = self.verts[t], self.verts[child]
        d = len(verts)
        i = verts.index(v)
        # each undirected edge to v skipped, v->u or u->v.  con is closed,
        # and every arc of a choice touches v, so a shortest path of their
        # union switches operand, or takes two arcs in a row, only at the
        # choice's support: glue pivots there
        choices = []
        edges = [(None, (v, u), (u, v)) for u in sorted(self.g.adj[v] & node.bag)]
        for picks in product(*edges):
            arcs = frozenset(a for a in picks if a)
            inn = () if self.q is None else tuple(sum(y == x for _, y in arcs) for x in verts)
            if not inn or max(inn) <= self.q:
                gain = sum(self.inst.arc(x, y) for x, y in arcs)
                rows = relations.from_pairs(arcs, verts)
                choices.append((arcs, rows, relations.support(rows, d), inn, gain))
        table: dict = {}
        to_bag = relations.remap(cverts, verts)
        for ckey, centry in self.tables[child].items():
            loc0 = to_bag(ckey[0])
            con0 = to_bag(ckey[1])
            inn0 = ckey[2][:i] + (0,) + ckey[2][i:]
            n_old = len(relations.classes(con0, d)) if self.pl else 0
            for arcs, rows, pivots, cnt, gain in choices:
                inn = cnt and tuple(map(add, inn0, cnt))
                if inn and max(inn) > self.q:
                    continue
                # each arc of a polytree choice joins v to a new class
                con = self._glue(con0, rows, d, pivots, n_old - len(arcs))
                if con is None:
                    continue
                key = (loc0 | rows, con, inn)
                val = centry[0] + gain
                cur = table.get(key)
                if cur is None or val > cur[0]:
                    table[key] = (val, arcs, ckey)
        return table

    def _forget(self, t, node) -> dict:
        (child,) = node.children
        verts, cverts = self.verts[t], self.verts[child]
        v = next(iter(self.td.nodes[child].bag - node.bag))
        i = cverts.index(v)
        bonus = self.bonus.get(v, (0,) * ((self.q or 0) + 1))
        table: dict = {}
        to_bag = relations.remap(cverts, verts)
        for ckey, centry in self.tables[child].items():
            loc, con, inn = ckey
            key = (to_bag(loc), to_bag(con), inn[:i] + inn[i + 1:])
            val = centry[0] + bonus[inn[i] if inn else 0]
            cur = table.get(key)
            if cur is None or val > cur[0]:
                table[key] = (val, _NO_ARCS, ckey)
        return table

    def _join(self, t, node) -> dict:
        c1, c2 = node.children
        verts = self.verts[t]
        d = len(verts)
        units = relations.unit(d)
        # the right entries by loc, each group with loc's class count and
        # each entry with what the glue reads of its con
        by_loc: dict = {}
        for key2, entry2 in self.tables[c2].items():
            group = by_loc.get(key2[0])
            if group is None:
                n_loc = len(relations.classes(key2[0], d)) if self.pl else 0
                group = by_loc[key2[0]] = (n_loc, [])
            group[1].append((key2, entry2[0], self._aux(key2[1], d)))
        table: dict = {}
        for key1, entry1 in self.tables[c1].items():
            loc, con1, inn1 = key1
            if loc not in by_loc:
                continue
            n_loc, group = by_loc[loc]
            s1 = entry1[0] - sum(self.inst.arc(x, y) for x, y in relations.to_pairs(loc, verts))
            loc_inn = () if self.q is None else tuple(
                (loc >> j & units).bit_count() for j in range(d))
            # acyclic: both cons are closed, so glue pivots on their shared
            # support.  Polytrees: both sides are forests that share only
            # the bag and the loc arcs, so the union's cycle rank is
            # (#classes1 + #classes2 - #classes(loc)) - #classes(merged),
            # and the class count alone says whether the union is a forest
            aux1 = self._aux(con1, d)
            for key2, s2, aux2 in group:
                inn = inn1 and tuple(map(sub, map(add, inn1, key2[2]), loc_inn))
                if inn and max(inn) > self.q:
                    continue
                con = self._glue(con1, key2[1], d, aux1 & aux2, aux1 - n_loc + aux2)
                if con is None:
                    continue
                key = (loc, con, inn)
                val = s1 + s2
                cur = table.get(key)
                if cur is None or val > cur[0]:
                    table[key] = (val, _NO_ARCS, key1, key2)
        return table


def peel_generator(g: Superstructure) -> tuple[list[int], dict]:
    """The vertices that repeatedly peeling degree <= 1 vertices removes, in
    removal order, and for each the one neighbour it had left then (None
    for the last vertex of a tree component).  The rest is the 2-core."""
    deg = [len(g.adj[v]) for v in range(g.n)]
    order = [v for v in range(g.n) if deg[v] <= 1]
    up: dict = {}
    for x in order:  # grows while read: a vertex left with one neighbour joins
        p = next((y for y in g.adj[x] if y not in up), None)
        up[x] = p
        if p is not None:
            deg[p] -= 1
            if deg[p] == 1:
                order.append(p)
    return order, up


class FoldGenerators:
    """The trees hanging off the 2-core of a superstructure, folded bottom up.

    Each peeled vertex x (`peel_generator`) hangs from `up[x]`.  Its edge to it is a
    bridge, which closes neither a directed cycle nor a skeleton cycle, so
    a hanging tree touches the rest of the network only through the
    in-degree of the vertex it hangs from, in both modes and for any bound
    q, which is the instance's own `max_in_degree`.  `a[x]` is the best score of x's subtree when x takes the arc from
    `up[x]`, so only q - 1 of its parents can come from below, and `b[x]`
    the best when it does not.  A child c of x adds base_c = max(a[c] +
    s(x, c), b[c]) and offers the arc c -> x at gain_c = b[c] + s(c, x) -
    base_c; x keeps its best positive gains up to its free parent slots
    (all of them without a bound).
    """

    def __init__(self, instance: AdditiveInstance, g: Superstructure):
        self.g = g
        self.q = q = instance.max_in_degree
        self.arc = instance.arc
        order, up = peel_generator(g)
        self.core = [v for v in range(g.n) if v not in up]
        self.kids: dict = {}
        for x in order:
            if up[x] is not None:
                self.kids.setdefault(up[x], []).append(x)
        # x with hanging trees -> (sum of its children's base_c, positive
        # gain_c paired with c, best first)
        self.hang: dict = {}
        self.a: dict = {}
        self.b: dict = {}
        self.bonus: dict = {}  # core vertex -> value with i core parents, at index i
        less = None if q is None else q - 1
        slots = [None] if q is None else range(q, -1, -1)
        for x in order + [v for v in self.core if v in self.kids]:
            if x not in self.kids:  # a leaf of its tree
                self.a[x] = self.b[x] = 0
                continue
            base, gains = 0, []
            for c in self.kids[x]:
                keep = max(self.a[c] + self.arc(x, c), self.b[c])
                base += keep
                gain = self.b[c] + self.arc(c, x) - keep
                if gain > 0:
                    gains.append((-gain, c))
            gains.sort()
            self.hang[x] = (base, [(-gain, c) for gain, c in gains])
            if x in up:
                self.a[x], self.b[x] = self.value(x, less), self.value(x, q)
            else:
                self.bonus[x] = tuple(self.value(x, k) for k in slots)
        self.roots = [x for x in order if up[x] is None]

    def value(self, x: int, k: Optional[int]) -> int:
        """Best score of x's hanging trees when at most k of their arcs
        may enter x (k None: any number)."""
        base, gains = self.hang[x]
        return base + sum(gain for gain, _ in gains[:k])

    def tree_score(self) -> int:
        """Optimum of the tree components, which have no core vertex."""
        return sum(self.b[r] for r in self.roots)

    def lift(self, core_arcs) -> set:
        """The arcs of the hanging trees that complete `core_arcs`, without
        recursion: from each core vertex, given its core in-degree, and
        from each tree root down.  With them the network scores the core
        score, every bonus it collected and `tree_score()`."""
        q = self.q
        less = None if q is None else q - 1
        indeg = Counter(y for _, y in core_arcs)
        stack = [(v, None if q is None else q - indeg[v]) for v in self.bonus]
        stack += [(r, q) for r in self.roots]
        arcs = set()
        while stack:
            x, k = stack.pop()
            if x not in self.kids:
                continue
            ups = {c for _, c in self.hang[x][1][:k]}
            for c in self.kids[x]:
                if c in ups:
                    arcs.add((c, x))
                    stack.append((c, q))
                elif self.a[c] + self.arc(x, c) > self.b[c]:
                    arcs.add((x, c))
                    stack.append((c, less))
                else:
                    stack.append((c, q))
        return arcs


def parse_additive_closure(text: str) -> AdditiveInstance:
    """Parse an additive score file: header `additive <n> [q]`, arc lines."""
    lines = _content_lines(text)
    try:
        line_no, tok = next(lines)
    except StopIteration:
        raise ParseError(1, "empty file") from None
    if not tok or tok[0] != "additive" or len(tok) not in (2, 3):
        raise ParseError(line_no, "expected header 'additive <n> [q]'")
    n = _parse_nat(line_no, tok[1], "variable count")
    q = None
    if len(tok) == 3:
        q = _parse_nat(line_no, tok[2], "in-degree bound")
        if q <= 0:
            raise ParseError(line_no, "in-degree bound must be positive")

    index: dict[str, int] = {}
    arcs: dict[tuple[int, int], int] = {}

    def var(line_no, name):
        if name not in index:
            if len(index) >= n:
                raise ParseError(line_no, f"more than {n} distinct variables")
            index[name] = len(index)
        return index[name]

    for line_no, tok in lines:
        if len(tok) != 3:
            raise ParseError(line_no, "expected '<child> <parent> <score>'")
        child = var(line_no, tok[0])
        parent = var(line_no, tok[1])
        if child == parent:
            raise ParseError(line_no, "variable used as its own parent")
        score = _parse_nat(line_no, tok[2], "score")
        if score < 1:
            raise ParseError(line_no, "listed arc with zero score")
        if score > MAX_SCORE:
            raise ParseError(line_no, "score exceeds 2^63-1")
        if (parent, child) in arcs:
            raise ParseError(line_no, "duplicate arc")
        arcs[(parent, child)] = score

    names = list(sorted(index, key=index.get))
    used = set(names)
    k = len(names)
    while len(names) < n:
        cand = f"v{k}"
        while cand in used:
            cand += "_"
        names.append(cand)
        used.add(cand)
        k += 1
    return AdditiveInstance(n, tuple(names), arcs, q)


def parent_sets(network: Network) -> dict[int, set[int]]:
    """The parent set of every vertex, empty ones included (the earlier
    `Network.parent_map`)."""
    out: dict[int, set[int]] = {v: set() for v in range(network.n)}
    for u, v in network.arcs:
        out[v].add(u)
    return out


def score_of_parent_sets(instance, network: Network) -> int:
    """Total score of `network` under `instance`'s score family."""
    if network.n != instance.n:
        raise ValueError("network size does not match instance")
    total = 0
    if isinstance(instance, NonZeroInstance):
        for v, parents in parent_sets(network).items():
            total += instance.score(v, frozenset(parents))
    else:
        for u, v in network.arcs:
            total += instance.arc(u, v)
    if total > MAX_SCORE:
        raise ScoreOverflowError(f"network score {total} exceeds 2^63-1")
    return total


def validate_ordered(network: Network, mode: str, q: Optional[int] = None) -> Validation:
    """Check a candidate solution: acyclic ("dag") or skeleton-forest
    ("polytree"), plus the in-degree bound when q is given."""
    if mode not in ("dag", "polytree"):
        raise ValueError(f"unknown mode {mode!r}")
    for u, v in network.arcs:
        if (v, u) in network.arcs:
            return Validation(False, "both orientations present", cycle=[u, v])
    if mode == "dag":
        cyc = _directed_cycle(network.n, network.arcs)
        if cyc is not None:
            return Validation(False, "directed cycle", cycle=cyc)
    else:
        parent = list(range(network.n))
        added: dict[int, set[int]] = {v: set() for v in range(network.n)}
        for u, v in sorted(network.arcs):
            ru, rv = find(parent, u), find(parent, v)
            if ru == rv:
                cyc = _skeleton_path(added, v, u)
                return Validation(False, "skeleton cycle", cycle=cyc)
            parent[ru] = rv
            added[u].add(v)
            added[v].add(u)
    if q is not None:
        indeg = [0] * network.n
        for _, v in network.arcs:
            indeg[v] += 1
            if indeg[v] > q:
                return Validation(False, f"in-degree exceeds {q}", vertex=v)
    return Validation(True)


def write_solution_parent_sets(network: Network, instance) -> str:
    out = []
    pm = parent_sets(network)
    for v in range(network.n):
        if pm[v]:
            ps = " ".join(instance.names[p] for p in sorted(pm[v]))
            out.append(f"{instance.names[v]} <- {ps}")
    return "\n".join(out) + ("\n" if out else "")
