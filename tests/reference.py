"""References for the tests: brute forces, earlier versions of library
code, and helpers that only the tests use.

A brute force enumerates partial solutions from their definition and uses
no solver machinery.  An earlier version is kept verbatim (only renamed),
so that a test can require the library to reproduce it exactly.  Two
are not whole: `kernelize_rescan` reuses the kernel's rule applications
and replaces only the bookkeeping it checks, and `BnslEngineFullClosure`
runs its merge on the library's fold driver.  Each entry says what the
reference is (for an earlier version, what it was and what replaced it;
CHANGES.md names the change), which tests read it (`module::test`, the
module without its `test_` prefix; "criterion N" is in
`test_acceptance`), and which library code those tests reach.  A
reference whose tests reach no library code checks only other
references, and goes; the CI step "Every reference has a reader" finds a
helper left behind.

Brute forces and test-only helpers:

- `reach_pairs`, strict reachability by search: criterion 11,
  `lfen_dp::test_union_acyclicity_criterion` and the enumerations below;
  reach `relations.closed_union` and `instances.validate`.
- `subtree_record_reference` and `subtree_pl_record_reference` (with
  `parent_choice_assignments` and `skeleton_forest`), the best score per
  record over every parent-set choice in a subtree: criterion 10,
  `lfen_dp::test_leaf_records_match_enumeration` and, at every vertex of
  the record DP's seeded family (`lfen_dp::record_family`: raw and
  kernelized instances, searched and BFS forests),
  `lfen_dp::test_record_tables_witnessed_and_maximal` and
  `test_pl_record_tables_witnessed_and_maximal`; reach both record
  engines, unpruned.
- `decided_snapshot_reference`, the best score per snapshot over every
  choice of the edges a bag-DP node has decided: criterion 10 and
  `tw_dp::decided_tables`, which five `tw_dp::` tests call; reach
  `tw_dp._TwEngine`, unpruned, over `WholeGraph`.
- `random_dag`, a random acyclic network: criterion 11,
  `lfen_dp::test_union_acyclicity_criterion` and two `kernel::` tests;
  reach `KernelResult.lift`.
- `exact_common_independent`, a subset scan for a best common
  independent set (moved from `bnsl.oracle`): one `oracle::` and two
  `polytree::` tests; reach `polytree.weighted_matroid_intersection`.
- `exact_order` with `exact_decomposition`, an optimal elimination order
  by a DP over vertex subsets and its nice decomposition (formerly
  `graphs._exact_order`): five `graphs::` and two `tw_dp::` tests; reach
  `graphs.tree_decomposition`, `check_nice` and `tw_dp.fold_core`.
- `exact_lfen` with `_tree_local_value`, the lfen by spanning-tree
  enumeration (moved from `bnsl.oracle`): criterion 9, three `graphs::`
  and two `oracle::` tests; reach `graphs.lfen_search`.
- `random_network` (moved from `bnsl.generate`) and `network_parents`
  (formerly `Network.parents`): one `instances::` test; reach
  `instances.score_of`.
- `KeepWhole` with `keep_whole`, `WholeGraph`, `unpruned_record_tables`
  and `unpruned_pl_record_tables`: an engine that keeps every table
  whole, a fold that folds nothing, and the record tables as
  `lfen_dp.record_tables` returned them before it returned the solvers'
  pruned tables; most DP tests; reach every DP engine unpruned.

Kernel, each read by one `kernel::` test (two for `kernelize_rescan`'s
helpers) that reaches `kernel.kernelize_bnsl`, `kernelize_pl`, `_Work` or
`KernelResult.lift`:

- `rule0_by_definition` with `rule0_pass`, rule 0 as defined (a set
  goes when a listed proper subset or the empty set scores at least as
  much), run on every live table: the rule 0 of both loops below, and
  `kernel::test_no_reduced_table_holds_a_dominated_set`; reach
  `kernel.drop_dominated` and `_Work.rule0`.
- `rising_scores`, the same draws with every set scoring above its
  subsets: the kernel, CLI and record-DP tests that need kernels or
  cycles rule 0 would shrink (`conftest.benchmark_kernel` among them);
  reach rules 1, 2 and 2', the lfen search and the record DP at scale.
- `kernelize_rescan` with `scan_adjacency`, `rule1_scan_target` and
  `find_paths_own_bfs`: the loop that rescans the adjacency, before the
  kernel kept it incremental, and `kernel._find_paths` before it ran on
  the shared BFS forest.
- `kernelize_old_rules` with `apply_rr1_set_entries`, `vertex_score`,
  `best_config_frozensets`, `bnsl_path_scores_frozensets`,
  `pl_path_scores_frozensets`, `PathScores`, `PlPathScores`,
  `case_table` and `work_score` (formerly `kernel._Work.score`): rule 1
  through `_Work.set_entries` (now `_Work._install`, as `set_entries`
  applies rule 0) and `_Work.remove`, and the path DP on frozensets; `kernel::test_kernel_matches_old_rules` runs it in both
  modes and as `absorb_leaves`.  It is the one earlier rule 1 kept: the
  two later ones (one leaf pruned at a time, and the step before it ran
  in one loop) are gone, and that test runs on the union of their
  families, which every rule-1 fault they caught fails (CHANGES.md).
- `lift_rescan` with `lift_rr1_rescan`, `lift_rr2_rescan` and
  `lift_rr2_pl_rescan`, and `best_config_two_encodings`:
  `KernelResult.lift` before it edited only the arcs each step touched,
  and `kernel._best_config`.

Matroid intersection: `weighted_matroid_intersection_pairwise`, the
augmenting-path loop that asks the oracles for every exchange arc,
before it ran on fundamental circuits: two `polytree::` tests, on small
and on larger ground sets; reach `polytree.weighted_matroid_intersection`
with and without oracles.  The later loop that listed every circuit
exchange arc from the forest is gone; it shared the forest helpers of
the library, so this one catches every fault it caught.

Decompositions and the witness-tree search:

- `check_nice_scan` (an earlier `graphs.check_nice`): two `graphs::`
  tests; reach `graphs.check_nice`.
- `min_fill_order_rescan` (`graphs._min_fill_order` before its
  delta-updated order) and `bags_from_order_replay` (the bags of an
  order, before one elimination pass built them):
  `graphs::test_min_fill_order_matches_rescan`, `graphs::raw_families`
  and `tw_dp::padded_raw`; reach `graphs._eliminate` and `nice_from_raw`.
- `core_min_fill_relabeled` (`tw_dp._core_min_fill`, through a relabeled
  copy of the core) and `core_decomposition_rewrite` (the node-by-node
  cut to the core): two `tw_dp::` tests; reach `tw_dp.fold_core`.
- `nice_from_raw_stack` and `postorder_done_pairs` (`nice_from_raw`
  finishing each component in a separate loop, and the walk on (node,
  done) pairs): one `graphs::` test; reach `graphs.nice_from_raw`.
- `component_lfen_tree_rebuild` (the local search that rebuilt a forest
  per swap, and an exact search over every spanning tree under a budget
  that counts those holding `graphs._chain_forest`) and `component_subgraph_edge_scan` (the component subgraph
  that scans every edge per component): three `graphs::` tests; reach
  `graphs.lfen_search`.

Record DP, read by `lfen_dp::` tests that reach `_BnslEngine` and
`_PlEngine` directly:

- `BnslEngineFullClosure`, the acyclic merge by a full Warshall closure
  on row lists, on the library's fold driver:
  `lfen_dp::test_tables_match_full_closure_at_kernel_scale`, on the
  kernels of the benchmark's explicit slots.  It is the one earlier merge
  kept.  The earlier drivers (the DP that combined the open children's
  tables in one product, and the one that added each closed child's best
  record to its parent's score) and the shared-support merge on row
  lists are gone: the brute forces above check every table of the
  record-DP family, and `lfen_dp::test_witnesses_match_pinned_digests`
  pins the witnesses the solvers return on it, which is how the order
  the driver reads child records in, and its cut, stay checked.
- `bnsl_glue_closed_union` and `pl_glue_class_count`: the glues before
  their cheap cycle rejects: two `lfen_dp::` tests.

Relations:

- `closure`, `irreflexive`, `restrict`, `classes`, `same_class`,
  `class_rows`, `from_pairs`, `to_pairs`, `remap` and `unpack`, the
  helpers on lists of bit rows, and `reindex`, the general re-indexing:
  `relations::` tests, criterion 11, `lfen_dp::` tests and
  `BnslEngineFullClosure`; reach the packed forms in `bnsl.relations`.
- `insert_index` and `drop_index`, the per-shape index maps between two
  sorted bags: one `relations::` test; reach `relations.remap`.

Bag DP:

- `LocSnapshotEngine` with `undominated_by_group` (`tw_dp._TwEngine`
  and `relations.undominated` before each edge was decided once): three
  `tw_dp::` tests; reach `tw_dp._TwEngine` and `solve_folded`.
- `FoldGenerators` with `peel_generator` (`tw_dp.Fold` on generators):
  `tw_dp::test_steps_and_fold_match_loc_engine`; reach `tw_dp.Fold`.

Instances, each read by `instances::` or `generate::` tests that reach
the function it was: `parse_additive_closure` (with a per-token
closure), `parse_nonzero_pending` with `content_lines_strip` (listing
every content line before reading a block), `parent_sets` with
`score_of_parent_sets` and `write_solution_parent_sets` (a parent set
per vertex), `validate_ordered` (the ordered diagnosis on every
network) and `subdivide_resort` (`generate.subdivide` sorting the edge
set per draw).
"""

import random
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, islice, product
from typing import Iterable, Iterator, Optional, Sequence

from bnsl import generate, graphs, relations
from bnsl.graphs import (
    NiceTreeDecomposition,
    SpanningForest,
    TDNode,
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
from bnsl.lfen_dp import _BnslEngine, _PlEngine, _RecordEngine, _engine
from bnsl.oracle import OracleLimitError
from bnsl.polytree import GroundElement, MatroidOracles
from bnsl.tw_dp import _NO_ARCS, Fold


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


def decided_snapshot_reference(instance, below, bag, q, mode):
    """Best score per snapshot over all networks on the superstructure's
    edges that a node of the bag DP has decided: those inside `below` with
    an endpoint outside `bag` (acyclic or polytree, optional in-degree
    bound), by enumerating each edge skipped or oriented.  Snapshots as
    `tw_dp._TwEngine.records` gives them: (con, counts), con the strict
    reachability (acyclic) or the same-component pairs (polytree) among
    `bag`'s vertices, counts ((vertex, parent count), ...) over `bag` in
    vertex order, () without a bound."""
    from bnsl.instances import superstructure

    bag = sorted(bag)
    bagset = set(bag)
    edges = [(a, b) for a, b in sorted(superstructure(instance).edges)
             if a in below and b in below and not (a in bagset and b in bagset)]
    out = {}
    for picks in product(*[(None, (a, b), (b, a)) for a, b in edges]):
        arcs = [arc for arc in picks if arc]
        indeg = Counter(v for _, v in arcs)
        if q is not None and any(c > q for c in indeg.values()):
            continue
        if mode == "bnsl":
            pairs = reach_pairs(set(below), arcs)
            if any(x == y for x, y in pairs):
                continue
            con = frozenset((x, y) for x, y in pairs if x in bagset and y in bagset)
        else:
            if not skeleton_forest(arcs):
                continue
            comp = {x: {x} for x in below}
            for u, v in arcs:
                merged = comp[u] | comp[v]
                for x in merged:
                    comp[x] = merged
            con = frozenset((x, y) for x in bag for y in bag if x != y and y in comp[x])
        counts = () if q is None else tuple((v, indeg[v]) for v in bag)
        score = sum(instance.arc(u, v) for u, v in arcs)
        key = (con, counts)
        if key not in out or score > out[key]:
            out[key] = score
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


def rule0_by_definition(sets: dict) -> dict:
    """The table without each non-empty set that a listed proper subset,
    or the empty set (score 0 when unlisted), scores at least as much as."""
    floor = sets.get(frozenset(), 0)
    return {p: s for p, s in sets.items()
            if not p or s > floor and not any(q < p and t >= s for q, t in sets.items())}


def rule0_pass(work: _Work) -> bool:
    """`rule0_by_definition` on every live table, in vertex order, each
    table that changes installed without `set_entries`' own rule 0;
    whether any set went."""
    dropped = False
    for v in sorted(work.entries):
        sets = work.entries[v]
        kept = rule0_by_definition(sets)
        if kept != sets:
            work._install(v, kept)
            dropped = True
    return dropped


def rising_scores(instance: NonZeroInstance) -> NonZeroInstance:
    """The instance with each listed set's score raised by its size times
    the largest score: every set then scores more than each of its
    subsets, the empty set included, so rule 0 drops none of them."""
    top = max((s for sets in instance.entries.values() for s in sets.values()), default=0)
    return NonZeroInstance(instance.n, instance.names, {
        v: {p: s + top * len(p) for p, s in sets.items()}
        for v, sets in instance.entries.items()
    })


def kernelize_rescan(instance, polytree):
    """The kernel's fixed-point loop with the superstructure adjacency
    rebuilt from the score tables at every use and the rule-1 target found
    by a sorted scan of all vertices (O(n^2) in total), rule 0 by
    `rule0_pass` over every table, and the paths found by
    `find_paths_own_bfs`; `kernel._Work` keeps the adjacency
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
                if rule0_pass(work):
                    continue
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
# verbatim (only renamed, and reading scores through `work_score`, the
# former `_Work.score`): rule 1 through `_Work.set_entries` and
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
            se, sv = work_score(work, w, frozenset()), work_score(work, w, frozenset([v]))
            if w not in s and sv > se:  # w takes v as its parent
                total += sv
                arcs_out.add(w)
            else:
                total += se
        return total, frozenset(arcs_out)

    old_sets = dict(work.entries.get(v, {}))
    old_sets.setdefault(frozenset(), work_score(work, v, frozenset()))
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
            val = work_score(work, v, p) + comp
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
    work._install(v, {p: s for p, s in new_sets.items() if s > 0})
    for w in q:
        work.remove(w)
    return step



def vertex_score(work: _Work, path_ext, j, prev_state, next_state) -> int:
    parents = set()
    if prev_state == _FWD:
        parents.add(path_ext[j - 1])
    if next_state == _BWD:
        parents.add(path_ext[j + 1])
    return work_score(work, path_ext[j], frozenset(parents))


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


def kernelize_old_rules(instance, mode):
    """The kernel's fixed-point loop with the old rule 1
    (`apply_rr1_set_entries`), rule 0 by `rule0_pass` once rule 1 no
    longer applies, and the path rule of `mode`: "bnsl" as in
    `kernel.kernelize_bnsl`, "pl" as in `kernelize_pl`, None for rules 0
    and 1 alone as in `absorb_leaves`.  Before each path contraction it checks
    that the kernel's case table, scores and configs in order, equals
    the old path DP's (through `case_table`) on the current working
    state, so the rule-2 steps it records are the old ones too."""
    from bnsl import kernel

    work = kernel._Work(instance)
    steps = []
    min_inner, apply, new, old = {
        "bnsl": (4, kernel._apply_rr2, kernel._bnsl_path_cases, bnsl_path_scores_frozensets),
        "pl": (6, kernel._apply_rr2_pl, kernel._pl_path_cases, pl_path_scores_frozensets),
        None: (None,) * 4,
    }[mode]
    while True:
        while (target := work.rule1_target()) is not None:
            steps.append(apply_rr1_set_entries(work, target, work.adj))
        if rule0_pass(work):
            continue
        paths = [] if mode is None else kernel._find_paths(work, min_inner)
        if not paths:
            break
        got, want = new(work, paths[0]), case_table(old(work, paths[0]))
        if list(got.items()) != list(want.items()):
            raise AssertionError(f"path scores differ on {paths[0]}")
        steps.append(apply(work, paths[0]))
    reduced, loose_of_reduced = work.to_instance()
    return kernel.KernelResult(reduced, steps, loose_of_reduced, instance.n)


# The five functions below are earlier versions of library functions, kept
# verbatim (only renamed) as references: the pairwise-oracle exchange graph
# of `polytree.weighted_matroid_intersection`, the per-vertex scan of
# `graphs.check_nice`, the full-rescan min-fill order of the old
# `graphs._min_fill_order`, the old `graphs._bags_from_order`, which
# replayed the whole elimination to read off the bags, and the old
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


# The record-DP glues before their cheap cycle rejects, on the library's
# operands: the acyclic one closes every union by `relations.closed_union`
# (its 2-cycles too), the polytree one counts the classes of every union.
# The library's glues must return what these return on every pair.


def bnsl_glue_closed_union(held, cheld, outside: int, d: int):
    (m, sup, _), (cm, csup, _) = held, cheld
    return relations.closed_union(m, cm, sup & csup, d)


def pl_glue_class_count(held, cheld, outside: int, d: int):
    (m, count), (cm, ccount) = held, cheld
    merged = m | cm
    if len(relations.classes(merged, d)) != count + ccount - d:
        return None
    inner = relations.classes(merged & ~outside, d)
    return merged & outside | relations.class_rows(inner, d)


class BnslEngineFullClosure(_RecordEngine):
    """The acyclic record DP with its earlier merge on lists of rows: a full
    Warshall closure of the union over the fold's whole ground index, then
    the irreflexivity test.  `operand` unpacks each state and child record,
    and `glue` packs the merged rows again.  It takes the keys' public
    format from `_BnslEngine` and nothing else of it; the fold driver, which
    cuts each merged state down to the indices it keeps (the earlier merge
    cut it itself), is the library's, and the record-DP brute forces check
    it on their own."""

    public = _BnslEngine.public

    @staticmethod
    def operand(state: int, d: int):
        return unpack(state, d)

    @staticmethod
    def glue(rows, crows, outside: int, d: int):
        merged = closure([a | b for a, b in zip(rows, crows)])
        return relations.pack(merged, d) if irreflexive(merged) else None


# The library's former `relations.reindex`, kept verbatim: the relations
# tests compare it with the map the library compiles once
# (`relations.remap`).


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
# every relation packed into one int (bnsl.relations), while the reference
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


def component_lfen_tree_rebuild(g: Superstructure, budget: int):
    """(tree edge set, exact flag) for a connected graph, scoring every
    local-search swap on a rebuilt forest; exact over every spanning tree
    when at most `budget` of them hold `graphs._chain_forest`."""
    if g.edge_count() == g.n - 1:
        return frozenset(g.edges), True
    best_tree = None
    best_key = None
    chain_trees = graphs._spanning_trees(g, graphs._chain_forest(g))
    if sum(1 for _ in islice(chain_trees, budget + 1)) <= budget:
        for tree in graphs._spanning_trees(g, frozenset()):
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


def network_parents(network: Network, v: int) -> frozenset[int]:
    """v's parent set in `network` (formerly `Network.parents`)."""
    return frozenset(u for u, w in network.arcs if w == v)


def work_score(work: _Work, v: int, parents: frozenset[int]) -> int:
    """v's score for `parents` in the kernel's working state, 0 when
    unlisted (formerly `kernel._Work.score`)."""
    return work.entries.get(v, {}).get(parents, 0)


class KeepWhole:
    """Mixin for a DP engine of `bnsl.lfen_dp` or `bnsl.tw_dp`, or one
    derived from them, whose `_prune` keeps every table whole."""

    def _prune(self, table: dict) -> dict:
        return table


@lru_cache(maxsize=None)
def keep_whole(engine: type) -> type:
    """`engine` with `KeepWhole` before it: it fills every table whole."""
    return type(f"Whole{engine.__name__}", (KeepWhole, engine), {})


class WholeGraph:
    """A stand-in for `tw_dp.Fold` that folds nothing: the bag DP runs on
    the whole superstructure, no vertex collects a bonus, and the lift
    adds no arc and no score."""

    def __init__(self, instance: AdditiveInstance):
        self.g = superstructure(instance)
        self.bonus: dict = {}

    def lift(self, core_arcs) -> set:
        return set()

    def tree_score(self) -> int:
        return 0


def unpruned_record_tables(instance: NonZeroInstance, forest: Optional[SpanningForest] = None,
                           engine: type = _BnslEngine):
    """All per-vertex record tables of `engine` as {vertex: {public key:
    score}}, dominated records included, and the engine that filled them
    (formerly `lfen_dp.record_tables`)."""
    eng = _engine(keep_whole(engine), instance, forest)
    eng.fill()
    return {v: eng.records(v) for v in range(instance.n)}, eng


def unpruned_pl_record_tables(instance: NonZeroInstance,
                              forest: Optional[SpanningForest] = None):
    """All per-vertex polytree record tables as {vertex: {(partition,
    entering arcs): score}}, dominated records included, and the engine
    (formerly `lfen_dp.pl_record_tables`)."""
    return unpruned_record_tables(instance, forest, _PlEngine)


def undominated_by_group(table: dict, guard: int) -> dict:
    """The entries of `table` that no other entry dominates, in their
    insertion order, compared within groups (formerly
    `relations.undominated`, which `LocSnapshotEngine._prune` reads).

    Keys are (group, rel, counts) triples, and each entry holds its score
    first.  Entry (group, rel', counts') with score s' dominates (group,
    rel, counts) with score s when s' >= s, rel' is a subset of rel, and
    counts' <= counts at every field: `counts` packs fields whose top bits
    are the bits of `guard`, each field's value below its guard bit (all 0
    with `guard` 0).  Only entries of one group are compared.  Each group
    is read in the order of (-score, rel, counts), and an entry is dropped
    when one kept before it dominates it.  A distinct dominator comes
    first, as a subset rel and counts no larger in any field are no larger
    ints.  Distinct entries never dominate each other both ways, so every
    dominated entry has an undominated dominator, kept before it: the
    entries kept are exactly those no other entry dominates.
    """
    groups: dict = {}
    for key in table:
        groups.setdefault(key[0], []).append(key)
    if len(groups) == len(table):
        return table
    # rel' is a subset of rel when rel' & ~rel is 0, and counts' <= counts
    # at every field when subtracting counts' from counts with every guard
    # set borrows no guard away
    dropped = set()
    for keys in groups.values():
        if len(keys) == 1:
            continue
        kept: dict = {}  # rel -> counts of each kept entry with it
        for _, key in sorted((-table[k][0], k) for k in keys):
            _, rel, counts = key
            high = counts | guard
            for rel1, counts_kept in kept.items():
                if not rel1 & ~rel and any((high - c1) & guard == guard for c1 in counts_kept):
                    dropped.add(key)
                    break
            else:
                kept.setdefault(rel, []).append(counts)
    return {key: entry for key, entry in table.items() if key not in dropped}


class LocSnapshotEngine:
    """The bag DP that chose each edge between two bag vertices at every
    introduce of one of its endpoints, keeping the arcs chosen inside the
    bag in each snapshot as `loc` (formerly `tw_dp._TwEngine`): snapshots
    are (loc, con, inn), a join pairs only entries with equal loc and
    subtracts loc's score and parent counts, which both sides count, and
    the prune compares only snapshots with equal loc."""

    def __init__(self, instance: AdditiveInstance, td: NiceTreeDecomposition, mode: str,
                 fold: Fold):
        """Bounded by `instance.max_in_degree`.  `td` decomposes the 2-core
        of `fold` (`fold_core`), and `solve` adds the folded trees."""
        if mode not in ("bnsl", "pl"):
            raise ValueError(f"unknown mode {mode!r}; expected 'bnsl' or 'pl'")
        self.inst = instance
        self.pl = mode == "pl"
        self.q = instance.max_in_degree
        self.fold = fold
        self.g = fold.g
        self.bonus = fold.bonus
        self.td = td
        # verts[t][j]: the vertex at index j of node t's bag, None where the
        # index is free.  A vertex keeps one index from the highest node that
        # holds it down to every node below that does, taking the lowest
        # free index where it first appears, so introduce and forget leave
        # every other vertex where it is
        self.verts: list = [None] * len(td.nodes)
        stack = [(td.root, (None,) * (td.width + 1))]
        while stack:
            t, above = stack.pop()
            node = td.nodes[t]
            row = [x if x in node.bag else None for x in above]
            for x in sorted(node.bag.difference(row)):
                row[row.index(None)] = x
            self.verts[t] = row = tuple(row)
            stack.extend((c, row) for c in node.children)
        d, q = td.width + 1, self.q or 0
        self.w = w = q.bit_length() + 1
        ones = 0 if self.q is None else relations.pack([1] * d, w)
        self.units = [ones & (1 << w) - 1 << (d - 1 - j) * w for j in range(d)]
        self.guard = ones << w - 1
        self.over = ones * ((1 << w - 1) - 1 - q)
        self.tables: dict[int, dict] = {}

    # snapshots: (loc, con, inn); loc and con are relations over the width
    # + 1 bag indices, one int each (bnsl.relations), inn the parent count
    # at each index (0 where it is free) in a field of w bits, index 0 in
    # the top field.  A count stays at most 2q < 2**w, so no field carries
    # into the next.  units[j] is one count at index j, guard the top bit
    # of every field, and inn + over sets a field's guard exactly when its
    # count is above q; without a bound all three are 0, so inn is 0 and
    # passes every bound test.  Table entries: (score, arcs introduced
    # here, the key of each child in node.children)

    def run_tables(self):
        step = {"leaf": self._leaf, "introduce": self._introduce,
                "forget": self._forget, "join": self._join}
        for t in self.td.postorder():
            node = self.td.nodes[t]
            self.tables[t] = self._prune(step[node.kind](t, node))
        return self.tables

    def solve(self) -> tuple[int, Network]:
        self.run_tables()
        root_table = self.tables[self.td.root]
        key = (0, 0, 0)
        if list(root_table) != [key]:
            raise RuntimeError("root must hold the single empty snapshot")
        score = root_table[key][0]
        arcs: set = set()
        stack = [(self.td.root, key)]
        while stack:
            t, key = stack.pop()
            entry = self.tables[t][key]
            arcs |= entry[1]
            stack.extend(zip(self.td.nodes[t].children, entry[2:]))
        arcs |= self.fold.lift(arcs)
        return score + self.fold.tree_score(), Network(self.inst.n, frozenset(arcs))

    def records(self, t: int) -> dict:
        """tables[t] as {(loc pairs, con pairs, ((vertex, parent count),
        ...) in vertex order, () without a bound): best score}."""
        verts = self.verts[t]
        field = (1 << self.w) - 1
        # each bag vertex with where its count sits in inn; none without a bound
        order = sorted((x, (len(verts) - 1 - j) * self.w) for j, x in enumerate(verts)
                       if x is not None and self.q is not None)
        return {
            (relations.to_pairs(loc, verts), relations.to_pairs(con, verts),
             tuple((x, inn >> at & field) for x, at in order)): entry[0]
            for (loc, con, inn), entry in self.tables[t].items()
        }

    def _prune(self, table: dict) -> dict:
        """The entries of `table` that no other entry dominates, in their
        insertion order (`relations.undominated`, grouped by loc, the
        parent counts compared under the guard bits).

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
        is unchanged, though a tie may pick another optimal network.  A
        field of inn holds at most q, below its guard bit.
        """
        return undominated_by_group(table, self.guard)

    def _aux(self, con: int, d: int) -> int:
        """What `_glue` reads of a con over d bag indices besides itself:
        its class count in polytree mode, its support in acyclic mode."""
        return len(relations.classes(con, d)) if self.pl else relations.support(con, d)

    def _glue(self, a: int, b: int, d: int, pivots: int, fresh: int) -> Optional[int]:
        """Connectivity of the union of two partial networks with boundary
        relations `a` and `b` over d bag indices, or None when the union is
        not acyclic.  Acyclic mode reads only `pivots`, where it runs
        `relations.closed_union`; polytree mode reads only `fresh`: the
        union is a polytree exactly when the merged rows have that many
        classes."""
        if not self.pl:
            return relations.closed_union(a, b, pivots, d)
        parts = relations.classes(a | b, d)
        return relations.class_rows(parts, d) if len(parts) == fresh else None

    def _leaf(self, t, node) -> dict:
        return {(0, 0, 0): (0, _NO_ARCS)}

    def _introduce(self, t, node) -> dict:
        (child,) = node.children
        v = next(iter(node.bag - self.td.nodes[child].bag))
        verts = self.verts[t]
        d = len(verts)
        i = verts.index(v)
        units, over, guard = self.units, self.over, self.guard
        score = self.inst.arc_scores.get
        # each undirected edge to v skipped, v->u or u->v, in the order
        # `itertools.product` lists them: the choices are grown one bag
        # neighbour at a time in vertex order, the first the slowest (so
        # tables do not depend on the indices), each step adding one
        # arc's bit, support, parent count and score.  Only v's own parent
        # count can pass q; a choice is dropped as soon as it does.  con is
        # closed, and every arc of a choice touches v, so a shortest path
        # of their union switches operand, or takes two arcs in a row, only
        # at the choice's support: glue pivots there
        grown = [((), 0, 0, 0, 0)]  # arcs, rows, support, parent counts, gain
        nbrs = self.g.adj[v]
        for u, j in sorted((u, j) for j, u in enumerate(verts) if u in nbrs):
            out_arc, out_bit, out_gain = (v, u), 1 << (d - 1 - i) * d + j, score((v, u), 0)
            in_arc, in_bit, in_gain = (u, v), 1 << (d - 1 - j) * d + i, score((u, v), 0)
            pair = 1 << i | 1 << j
            prev, grown = grown, []
            for choice in prev:
                arcs, rows, sup, cnt, gain = choice
                grown.append(choice)
                grown.append((arcs + (out_arc,), rows | out_bit, sup | pair, cnt + units[j],
                              gain + out_gain))
                if not cnt + units[i] + over & guard:
                    grown.append((arcs + (in_arc,), rows | in_bit, sup | pair, cnt + units[i],
                                  gain + in_gain))
        choices = [(frozenset(arcs), *rest) for arcs, *rest in grown]
        table: dict = {}
        for ckey, centry in self.tables[child].items():
            loc0, con0, inn0 = ckey
            n_old = len(relations.classes(con0, d)) if self.pl else 0
            for arcs, rows, pivots, cnt, gain in choices:
                inn = inn0 + cnt
                if inn + over & guard:
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
        cverts = self.verts[child]
        d = len(cverts)
        v = next(iter(self.td.nodes[child].bag - node.bag))
        i = cverts.index(v)
        bonus = self.bonus.get(v, (0,) * ((self.q or 0) + 1))
        table: dict = {}
        keep = relations.cut_mask((1 << d) - 1 ^ 1 << i, d)
        at, field = (d - 1 - i) * self.w, (1 << self.w) - 1
        for ckey, centry in self.tables[child].items():
            loc, con, inn = ckey
            key = (loc & keep, con & keep, inn & ~(field << at))
            val = centry[0] + bonus[inn >> at & field]
            cur = table.get(key)
            if cur is None or val > cur[0]:
                table[key] = (val, _NO_ARCS, ckey)
        return table

    def _join(self, t, node) -> dict:
        c1, c2 = node.children
        verts = self.verts[t]
        d = len(verts)
        cols, units, over, guard = relations.unit(d), self.units, self.over, self.guard
        score = self.inst.arc_scores.get
        # the right entries by loc, each group with loc's class count, the
        # score of its arcs (both sides count them) and its parent counts,
        # and each entry with what the glue reads of its con
        by_loc: dict = {}
        for key2, entry2 in self.tables[c2].items():
            loc = key2[0]
            group = by_loc.get(loc)
            if group is None:
                n_loc = len(relations.classes(loc, d)) if self.pl else 0
                loc_score = sum(score(arc, 0) for arc in relations.to_pairs(loc, verts))
                loc_inn = sum((loc >> j & cols).bit_count() * units[j] for j in range(d))
                group = by_loc[loc] = (n_loc, loc_score, loc_inn, [])
            group[3].append((key2, entry2[0], self._aux(key2[1], d)))
        table: dict = {}
        for key1, entry1 in self.tables[c1].items():
            loc, con1, inn1 = key1
            if loc not in by_loc:
                continue
            n_loc, loc_score, loc_inn, group = by_loc[loc]
            s1 = entry1[0] - loc_score
            # acyclic: both cons are closed, so glue pivots on their shared
            # support.  Polytrees: both sides are forests that share only
            # the bag and the loc arcs, so the union's cycle rank is
            # (#classes1 + #classes2 - #classes(loc)) - #classes(merged),
            # and the class count alone says whether the union is a forest
            aux1 = self._aux(con1, d)
            for key2, s2, aux2 in group:
                inn = inn1 + key2[2] - loc_inn
                if inn + over & guard:
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


@lru_cache(maxsize=None)
def insert_index(s: int, i: int):
    """The map from relations over range(s) to relations over range(s + 1)
    that inserts index i, unrelated, before the old index i: old index a
    becomes a, or a + 1 from i on.  Compiled once per shape; each call
    costs one step per non-empty row."""
    d = s + 1
    low = (1 << i) - 1
    # to[f]: where field f (row s - 1 - f) lands
    to = [(d - 1 - (a if a < i else a + 1)) * d for a in range(s - 1, -1, -1)]

    def apply(m: int) -> int:
        out = 0
        while m:
            f = (m.bit_length() - 1) // s
            row = m >> f * s
            m ^= row << f * s
            out |= (row & low | (row >> i) << i + 1) << to[f]
        return out

    return apply


@lru_cache(maxsize=None)
def drop_index(s: int, i: int):
    """The map from relations over range(s) to relations over range(s - 1)
    that drops index i and every pair holding it: old index a becomes a,
    or a - 1 after i.  Compiled once per shape; each call costs one step
    per non-empty row."""
    d = s - 1
    low = (1 << i) - 1
    # to[f]: where field f (row s - 1 - f) lands, None for the dropped row
    to = [None if a == i else (d - 1 - (a if a < i else a - 1)) * d
          for a in range(s - 1, -1, -1)]

    def apply(m: int) -> int:
        out = 0
        while m:
            f = (m.bit_length() - 1) // s
            row = m >> f * s
            m ^= row << f * s
            if to[f] is not None:
                out |= (row & low | (row >> i + 1) << i) << to[f]
        return out

    return apply

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


def content_lines_strip(text: str) -> Iterator[tuple[int, list[str]]]:
    for i, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield i, stripped.split()


def parse_nonzero_pending(text: str) -> NonZeroInstance:
    """Parse an explicit score file (see module docstring for the grammar)."""
    lines = content_lines_strip(text)
    try:
        line_no, tok = next(lines)
    except StopIteration:
        raise ParseError(1, "empty file") from None
    if len(tok) != 1:
        raise ParseError(line_no, "expected a single variable count")
    n = _parse_nat(line_no, tok[0], "variable count")

    names: list[str] = []
    index: dict[str, int] = {}
    blocks: list[tuple[int, int, int]] = []  # (var, entry_count, line)
    pending: list[tuple[int, list[str]]] = list(lines)
    pos = 0
    while pos < len(pending):
        line_no, tok = pending[pos]
        pos += 1
        if len(tok) != 2:
            raise ParseError(line_no, "expected '<varname> <entry-count>'")
        name, cnt_s = tok
        if name in index:
            raise ParseError(line_no, f"variable {name!r} declared twice")
        cnt = _parse_nat(line_no, cnt_s, "entry count")
        index[name] = len(names)
        names.append(name)
        blocks.append((index[name], cnt, line_no))
        pos += cnt
        if pos > len(pending):
            raise ParseError(line_no, f"{cnt} entries announced, file truncated")
    if len(names) != n:
        raise ParseError(line_no if pending else 1,
                         f"declared {n} variables, found {len(names)}")

    entries: dict[int, dict[frozenset[int], int]] = {}
    pos = 0
    for v, cnt, _ in blocks:
        pos += 1
        sets: dict[frozenset[int], int] = {}
        for _ in range(cnt):
            line_no, tok = pending[pos]
            pos += 1
            if len(tok) < 2:
                raise ParseError(line_no, "expected '<score> <k> <parents...>'")
            score = _parse_nat(line_no, tok[0], "score")
            k = _parse_nat(line_no, tok[1], "parent count")
            if len(tok) != 2 + k:
                raise ParseError(line_no, f"expected {k} parent names, got {len(tok) - 2}")
            parents = []
            for name in tok[2:]:
                if name not in index:
                    raise ParseError(line_no, f"unknown variable {name!r}")
                parents.append(index[name])
            pset = frozenset(parents)
            if len(pset) != k:
                raise ParseError(line_no, "repeated parent in one set")
            if v in pset:
                raise ParseError(line_no, "variable listed in its own parent set")
            if pset in sets:
                raise ParseError(line_no, "duplicate parent set for this variable")
            if pset and score < 1:
                raise ParseError(line_no, "non-empty parent set with zero score")
            if score > MAX_SCORE:
                raise ParseError(line_no, "score exceeds 2^63-1")
            sets[pset] = score
        if sets:
            entries[v] = sets
    return NonZeroInstance(n, tuple(names), entries)


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
