import gc
import random
import time
from collections import Counter, deque
from itertools import combinations

import pytest

from bnsl import generate, graphs, kernel
from bnsl.instances import Superstructure, find, superstructure
from reference import (
    bags_from_order_replay,
    check_nice_scan,
    component_lfen_tree_rebuild,
    component_subgraph_edge_scan,
    exact_decomposition,
    exact_lfen,
    min_fill_order_rescan,
    nice_from_raw_stack,
    postorder_done_pairs,
)


def bfs_path(adj, u, w):
    prev = {u: None}
    dq = deque([u])
    while dq:
        x = dq.popleft()
        if x == w:
            break
        for y in sorted(adj[x]):
            if y not in prev:
                prev[y] = x
                dq.append(y)
    path, x = [], w
    while x is not None:
        path.append(x)
        x = prev[x]
    return path


def local_counts_reference(g, tree_edges):
    """Independent per-edge path marking for the local feedback counts."""
    adj = {v: set() for v in range(g.n)}
    for a, b in tree_edges:
        adj[a].add(b)
        adj[b].add(a)
    counts = [0] * g.n
    for e in sorted(g.edges - frozenset(tree_edges)):
        for v in bfs_path(adj, *e):
            counts[v] += 1
    return counts


def test_feedback_count_example(example4):
    g = superstructure(example4)
    sf = graphs.feedback_edge_set(g)
    assert len(sf.feedback_edges) == 2  # |E| - |V| + 1


def test_feedback_tree_input():
    g = generate.random_graph(5, 8, 0)
    sf = graphs.feedback_edge_set(g)
    assert sf.feedback_edges == frozenset()
    assert sf.tree_edges == g.edges


def test_feedback_removal_makes_acyclic():
    def has_cycle(n, edges):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in edges:
            ra, rb = find(a), find(b)
            if ra == rb:
                return True
            parent[ra] = rb
        return False

    for seed in range(100):
        rng = random.Random(seed)
        n = rng.randint(2, 10)
        g = generate.random_graph(rng, n, rng.randint(0, 4),
                                  connected=(seed % 3 != 0), exact_fen=False)
        sf = graphs.feedback_edge_set(g)
        assert not has_cycle(n, g.edges - sf.feedback_edges)
        comps = len(g.components())
        assert len(sf.feedback_edges) == g.edge_count() - n + comps


def test_local_counts_example_tree(example4):
    g = superstructure(example4)
    a, b, c, d = range(4)
    tree = frozenset({(a, b), (b, d), (c, d)})
    w = graphs.lfen_of_tree(g, graphs.forest_from_edges(g, tree))
    assert w.value == 2
    assert list(w.local_counts) == local_counts_reference(g, tree)


def test_local_counts_tree_is_zero():
    g = generate.random_graph(2, 7, 0)
    sf = graphs.feedback_edge_set(g)
    assert graphs.lfen_of_tree(g, sf).value == 0


def test_local_counts_cycle():
    n = 6
    g = Superstructure(n, [(i, (i + 1) % n) for i in range(n)])
    tree = frozenset((i, i + 1) for i in range(n - 1))
    w = graphs.lfen_of_tree(g, graphs.forest_from_edges(g, tree))
    assert w.value == 1
    assert all(c == 1 for c in w.local_counts)


def test_local_counts_match_reference():
    for seed in range(60):
        rng = random.Random(seed)
        g = generate.random_graph(rng, rng.randint(2, 9), rng.randint(0, 4),
                                  connected=False, exact_fen=False)
        sf = graphs.feedback_edge_set(g)
        w = graphs.lfen_of_tree(g, sf)
        assert list(w.local_counts) == local_counts_reference(g, sf.tree_edges)


def test_lfen_search_example_exact(example4):
    g = superstructure(example4)
    w = graphs.lfen_search(g)
    assert w.value == 2 and w.exact


def test_lfen_search_tree():
    g = generate.random_graph(11, 6, 0)
    w = graphs.lfen_search(g)
    assert w.value == 0 and w.exact


def test_lfen_search_matches_enumeration_oracle():
    for seed in range(100):
        rng = random.Random(seed)
        n = rng.randint(2, 8)
        g = generate.random_graph(rng, n, rng.randint(0, 3),
                                  connected=(seed % 3 != 0), exact_fen=False)
        w = graphs.lfen_search(g, budget=10**9)
        assert w.exact
        exact, _ = exact_lfen(g)
        assert w.value == exact


def test_chain_cuts_match_enumeration():
    # the exact search keeps every edge but the largest of each chain of the
    # 2-core and branches on those: it picks the tree that enumerating every
    # spanning tree picks, flagged exact, on graphs with one cycle and with
    # 2-5, half of them subdivided, with and without pendant trees
    shapes = Counter()
    for seed in range(600):
        rng = random.Random(2600 + seed)
        extra = 1 if seed < 400 else rng.randint(2, 5)
        g = generate.random_graph(rng, rng.randint(extra + 2, 20 if extra == 1 else 10), extra)
        if seed % 2:
            g = generate.subdivide(rng, g, rng.randint(1, 20 if extra == 1 else 6))
        assert g.edge_count() == g.n - 1 + extra and len(g.components()) == 1
        budget = 10**9
        tree, exact = graphs._component_lfen_tree(g, budget)
        assert (tree, exact) == component_lfen_tree_rebuild(g, budget)
        assert exact and isinstance(tree, frozenset)
        shapes[extra > 1, seed % 2, bool(graphs.peel(g)[0])] += 1
    assert len(shapes) == 8 and min(shapes.values()) >= 10


def test_lfen_search_budget_fallback_upper_bound():
    rng = random.Random(5)
    g = generate.random_graph(rng, 9, 5)
    w = graphs.lfen_search(g, budget=3)
    assert not w.exact
    exact, _ = exact_lfen(g)
    assert w.value >= exact
    assert w.value <= len(graphs.feedback_edge_set(g).feedback_edges)


def random_spanning_forest(rng, g):
    """A uniform-ish spanning forest: Kruskal over the edges in random order."""
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    edges = sorted(g.edges)
    rng.shuffle(edges)
    tree = set()
    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            tree.add((a, b))
    return frozenset(tree)


def plain_bfs_forest(n, tree_edges):
    """(parent, depth, order, roots, root of each vertex, adjacency): BFS
    over sorted tree neighbours from each vertex not reached yet, in
    ascending order."""
    adj = {v: set() for v in range(n)}
    for a, b in tree_edges:
        adj[a].add(b)
        adj[b].add(a)
    parent, depth, order, roots, root_of = [None] * n, [None] * n, [], [], [None] * n
    for s in range(n):
        if depth[s] is not None:
            continue
        roots.append(s)
        depth[s], root_of[s] = 0, s
        dq = deque([s])
        while dq:
            v = dq.popleft()
            order.append(v)
            for w in sorted(adj[v]):
                if depth[w] is None:
                    parent[w], depth[w], root_of[w] = v, depth[v] + 1, s
                    dq.append(w)
    return parent, depth, order, roots, root_of, adj


def test_forest_fields_match_plain_bfs():
    graphs_checked = 0
    for seed in range(240):
        rng = random.Random(3100 + seed)
        n = seed % 4 if seed < 8 else rng.randint(2, 14)  # n = 0 and 1 included
        g = generate.random_graph(rng, n, rng.randint(0, 5) if seed % 5 else 0,
                                  connected=(seed % 3 != 0), exact_fen=False)
        tree = random_spanning_forest(rng, g) if seed % 2 else graphs.feedback_edge_set(g).tree_edges
        forest = graphs.forest_from_edges(g, tree)
        parent, depth, order, roots, root_of, adj = plain_bfs_forest(g.n, tree)
        assert list(forest.parent) == parent
        assert list(forest.depth) == depth
        assert list(forest.order) == order
        assert list(forest.roots) == roots
        assert forest.tree_edges == tree and forest.feedback_edges == g.edges - tree
        pos = {v: i for i, v in enumerate(forest.order)}
        assert sorted(pos) == list(range(g.n))
        for v, p in enumerate(forest.parent):
            assert p is None or pos[p] < pos[v]
        for u in range(g.n):
            for w in range(g.n):
                if root_of[u] == root_of[w]:
                    assert forest.tree_path(u, w) == bfs_path(adj, u, w)[::-1]
                else:
                    with pytest.raises(ValueError):
                        forest.tree_path(u, w)
        graphs_checked += 1
    assert graphs_checked >= 200


def test_forest_from_edges_rejects_non_forests():
    g = generate.random_graph(random.Random(12), 12, 2)
    with pytest.raises(ValueError, match="cycle"):
        graphs.forest_from_edges(g, g.edges)
    tree = graphs.feedback_edge_set(g).tree_edges
    with pytest.raises(ValueError, match="span"):
        graphs.forest_from_edges(g, tree - {min(tree)})
    with pytest.raises(ValueError, match="not in the graph"):
        missing = next((a, b) for a in range(12) for b in range(a + 1, 12)
                       if (a, b) not in g.edges)
        graphs.forest_from_edges(g, tree | {missing})


def test_feedback_forest_of_long_cycle_is_linear():
    # one BFS per forest and one walk per feedback edge: the parent's
    # per-vertex walk to the root was quadratic on this cycle
    n = 50_000
    g = Superstructure(n, [(v, (v + 1) % n) for v in range(n)])
    t0 = time.perf_counter()
    forest = graphs.feedback_edge_set(g)
    w = graphs.lfen_of_tree(g, forest)
    assert time.perf_counter() - t0 < 5.0
    assert len(forest.feedback_edges) == 1 and w.value == 1
    assert max(forest.depth) == n // 2


def chain_trees_by_brute_force(g):
    """How many spanning trees of a connected graph hold
    `graphs._chain_forest`: every (n - 1)-edge subset that holds it and
    has no cycle."""
    chains = graphs._chain_forest(g)
    count = 0
    for tree in combinations(sorted(g.edges), g.n - 1):
        parent = list(range(g.n))
        if chains <= set(tree) and all(union(parent, a, b) for a, b in tree):
            count += 1
    return count


def union(parent, a, b):
    ra, rb = find(parent, a), find(parent, b)
    parent[ra] = rb
    return ra != rb


def test_lfen_search_exact_at_budget_boundary():
    # the search is exact exactly when the trees it enumerates, those that
    # hold the chain forest, number at most the budget
    seen = Counter()
    for seed in range(120):
        rng = random.Random(1400 + seed)
        g = generate.random_graph(rng, rng.randint(4, 10), rng.randint(1, 4),
                                  exact_fen=False)
        if seed % 2:
            g = generate.subdivide(rng, g, rng.randint(1, 3))
        # trees are always exact; past 14 edges the brute force takes too long
        if g.edge_count() == g.n - 1 or g.edge_count() > 14:
            continue
        count = chain_trees_by_brute_force(g)
        seen[count > 1] += 1
        assert graphs.lfen_search(g, budget=count).exact
        assert not graphs.lfen_search(g, budget=count - 1).exact
    assert seen[True] >= 30 and seen[False] >= 10, seen


def test_enumerating_lfen_search_leaves_no_cyclic_garbage():
    # the CLI runs with the cyclic collector off, so anything a search
    # leaves in reference cycles stays until the process ends: three paths
    # between two vertices, whose 3 trees that hold the chain forest are
    # enumerated whole, and with a budget of 1 cut short
    g = Superstructure(6, [(0, 1), (0, 2), (2, 1), (0, 3), (3, 4), (4, 5), (5, 1)])
    assert chain_trees_by_brute_force(g) == 3
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        witnesses = [graphs.lfen_search(g), graphs.lfen_search(g, budget=1)]
        left = gc.collect()
    finally:
        if was_enabled:
            gc.enable()
    assert [w.exact for w in witnesses] == [True, False]
    assert left == 0


def local_search_graphs():
    """300 seeded connected graphs with n <= 30, every third one a subdivided
    explicit instance's superstructure, then the kernels of four seeded
    n=60 fen=5 explicit instances with 40 subdivisions."""
    for seed in range(300):
        rng = random.Random(1600 + seed)
        n = rng.randint(3, 30)
        if seed % 3 == 0:
            yield superstructure(generate.random_nonzero(
                rng, n, rng.randint(1, 6), subdivisions=rng.randint(0, n - 3),
                exact_fen=False))
        else:
            yield generate.random_graph(rng, n, rng.randint(1, 12), exact_fen=False)
    for seed in range(4):
        inst = generate.random_nonzero(seed, 60, 5, subdivisions=40)
        yield superstructure(kernel.kernelize_bnsl(inst).reduced)


def test_local_search_matches_rebuild_reference(monkeypatch):
    # incremental swap scores must walk the reference's exact search path
    graphs_seen = searched = 0
    results = []
    for g in local_search_graphs():
        graphs_seen += 1
        if len(g.components()) == 1:
            tree = graphs._component_lfen_tree(g, 0)
            assert tree == component_lfen_tree_rebuild(g, 0)
            searched += g.edge_count() > g.n - 1
        results.append((g, [graphs.lfen_search(g, budget) for budget in (0, 1, 50)]))
    assert graphs_seen == 304 and searched >= 290
    monkeypatch.setattr(graphs, "_component_lfen_tree", component_lfen_tree_rebuild)
    for g, witnesses in results:
        assert witnesses == [graphs.lfen_search(g, budget) for budget in (0, 1, 50)]


def test_local_search_scales_to_long_chains():
    # one forest per accepted swap: the rebuild per candidate took 30 s on
    # this cycle and 11.8 s on the subdivided graph
    n = 2000
    cycle = Superstructure(n, [(v, (v + 1) % n) for v in range(n)])
    t0 = time.perf_counter()
    w = graphs.lfen_search(cycle, budget=0)
    assert time.perf_counter() - t0 < 3.0
    assert w.value == 1 and not w.exact
    g = superstructure(generate.random_nonzero(1, 5000, 6, subdivisions=4000))
    t0 = time.perf_counter()
    w = graphs.lfen_search(g, budget=0)
    assert time.perf_counter() - t0 < 3.0
    assert w.value == 5 and not w.exact


def test_lfen_search_linear_in_components(monkeypatch):
    # each component's subgraph is read off its own vertices' adjacency: the
    # same witnesses as scanning every edge once per component ...
    results = []
    for seed in range(100):
        rng = random.Random(17000 + seed)
        n = rng.randint(4, 40)
        g = superstructure(generate.random_nonzero(
            rng, n, rng.randint(0, 4), connected=False, exact_fen=False,
            subdivisions=rng.randint(0, n // 2) if seed % 2 else 0))
        results.append((g, [graphs.lfen_search(g, budget) for budget in (0, 50, 2000)]))
    monkeypatch.setattr(graphs, "_component_subgraph", component_subgraph_edge_scan)
    for g, witnesses in results:
        assert witnesses == [graphs.lfen_search(g, budget) for budget in (0, 50, 2000)]
    monkeypatch.undo()
    # ... without the scan, which took about 12 s on this forest of 2151 trees:
    # the superstructure of generate.random_nonzero(Random(1), 14000, 0,
    # connected=False)
    g = generate.random_graph(1, 14000, connected=False)
    assert len(g.components()) == 2151
    t0 = time.perf_counter()
    w = graphs.lfen_search(g)
    assert time.perf_counter() - t0 < 3.0
    assert w.forest.tree_edges == g.edges and not w.forest.feedback_edges
    assert w.local_counts == (0,) * g.n and w.value == 0 and w.exact


def test_parameter_hierarchy_local_at_most_feedback():
    for seed in range(100):
        rng = random.Random(900 + seed)
        n = rng.randint(2, 8)
        g = generate.random_graph(rng, n, rng.randint(0, 4),
                                  connected=(seed % 4 != 0), exact_fen=False)
        fen = len(graphs.feedback_edge_set(g).feedback_edges)
        exact, _ = exact_lfen(g)
        assert exact <= fen
        w = graphs.lfen_search(g, budget=5)
        assert w.value >= exact
        assert w.value <= fen


def test_decomposition_example_width(example4):
    g = superstructure(example4)
    td = graphs.tree_decomposition(g)
    assert graphs.check_nice(td, g) == []
    assert td.width == 2
    td_exact = exact_decomposition(g)
    assert graphs.check_nice(td_exact, g) == []
    assert td_exact.width == 2


def test_decomposition_edgeless():
    g = Superstructure(5, [])
    td = graphs.tree_decomposition(g)
    assert td.width == 0
    assert graphs.check_nice(td, g) == []


def test_decomposition_without_vertices():
    # no bag, or only bags with no vertex, gives one empty leaf of width -1;
    # so does decomposing a graph with no vertex, or no vertex of a graph
    empty = ([graphs.TDNode(frozenset(), "leaf", [])], 0, -1)
    raws = [({}, {}), ({3: frozenset()}, {}),
            ({0: frozenset(), 1: frozenset(), 2: frozenset()}, {1: 0, 2: 1})]
    g = Superstructure(4, [(0, 1), (1, 2)])
    for td in ([graphs.nice_from_raw(*raw) for raw in raws]
               + [graphs.tree_decomposition(Superstructure(0, [])),
                  exact_decomposition(Superstructure(0, [])),
                  graphs.tree_decomposition(g, vertices=[])]):
        assert (td.nodes, td.root, td.width) == empty
        assert graphs.check_nice(td, Superstructure(0, [])) == []


def test_decomposition_invariants_random():
    for seed in range(100):
        rng = random.Random(seed)
        n = rng.randint(1, 11)
        g = generate.random_graph(rng, n, rng.randint(0, 5),
                                  connected=(seed % 3 != 0), exact_fen=False)
        td = graphs.tree_decomposition(g)
        assert graphs.check_nice(td, g) == []


def test_min_fill_width_close_to_exact():
    for seed in range(25):
        rng = random.Random(seed)
        g = generate.random_graph(rng, rng.randint(2, 9), rng.randint(0, 4),
                                  exact_fen=False)
        heur = graphs.tree_decomposition(g).width
        best = exact_decomposition(g).width
        assert heur >= best
        assert graphs.check_nice(exact_decomposition(g), g) == []


def test_exact_width_known_values():
    cyc = Superstructure(5, [(i, (i + 1) % 5) for i in range(5)])
    assert exact_decomposition(cyc).width == 2
    k4 = Superstructure(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    assert exact_decomposition(k4).width == 3
    path = Superstructure(4, [(0, 1), (1, 2), (2, 3)])
    assert exact_decomposition(path).width == 1


def min_fill_families():
    """Seeded graphs for the min-fill comparison: the empty graph, a single
    vertex, stars, cliques, random forests and random graphs of every
    density."""
    yield Superstructure(0, [])
    yield Superstructure(1, [])
    for n in (2, 3, 9, 40):
        yield Superstructure(n, [(0, v) for v in range(1, n)])
    for n in (2, 4, 7, 12):
        yield Superstructure(n, [(a, b) for a in range(n) for b in range(a + 1, n)])
    for seed in range(100):
        rng = random.Random(8000 + seed)
        yield generate.random_graph(rng, rng.randint(1, 30), 0, connected=False)
    for seed in range(400):
        rng = random.Random(9000 + seed)
        n = rng.randint(2, 24)
        p = rng.uniform(0.02, 0.9)
        yield Superstructure(
            n, [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
        )


def test_min_fill_order_matches_rescan():
    # one elimination pass picks the rescan's order and records the bags and
    # parents that replaying the whole elimination reads off
    graphs_seen = 0
    for i, g in enumerate(min_fill_families()):
        order = min_fill_order_rescan(g)
        bags, parent = graphs._eliminate(g, range(g.n))
        assert list(bags) == order
        assert (bags, parent) == bags_from_order_replay(g, order)
        if i % 4 == 0 and g.n > 0:
            replay = graphs.nice_from_raw(*bags_from_order_replay(g, order))
            assert graphs.tree_decomposition(g).nodes == replay.nodes
        graphs_seen += 1
    assert graphs_seen >= 500


def raw_families():
    """Seeded raw inputs for the builder: no bag, then per graph (forests
    and graphs in several components among them) the min-fill bags of the
    whole graph and of a random vertex subset, bags eliminated in a random
    order, and a min-fill decomposition cut to a random vertex subset as
    `fold_core` cuts one (empty bags and bags that only pass children on
    included)."""
    yield {}, {}
    for seed in range(260):
        rng = random.Random(13000 + seed)
        g = generate.random_graph(rng, rng.randint(1, 18), rng.randint(0, 5),
                                  connected=(seed % 3 == 0), exact_fen=False)
        yield graphs._eliminate(g, range(g.n))
        yield graphs._eliminate(g, rng.sample(range(g.n), rng.randint(1, g.n)))
        order = list(range(g.n))
        rng.shuffle(order)
        yield bags_from_order_replay(g, order)
        td = graphs.tree_decomposition(g)
        keep = frozenset(rng.sample(range(g.n), rng.randint(0, g.n)))
        yield ({t: node.bag & keep for t, node in enumerate(td.nodes)},
               {c: t for t, node in enumerate(td.nodes) for c in node.children})


def test_nice_from_raw_matches_stack_builder():
    # one post-order walk under a virtual empty bag builds, node for node,
    # the decomposition the per-component stack and the separate root loop
    # built, and walks it in the same post-order
    seen = 0
    for bags, parent in raw_families():
        got = graphs.nice_from_raw(bags, parent)
        want = nice_from_raw_stack(bags, parent)
        assert (got.nodes, got.root, got.width) == (want.nodes, want.root, want.width)
        assert got.postorder() == postorder_done_pairs(want)
        seen += 1
    assert seen >= 1000


def copy_td(td):
    nodes = [graphs.TDNode(node.bag, node.kind, list(node.children)) for node in td.nodes]
    return graphs.NiceTreeDecomposition(nodes, td.root, td.width)


def mutations(rng, td, g):
    """(name, decomposition, graph) for each applicable invariant break."""
    nodes = td.nodes
    holders = [t for t, node in enumerate(nodes) if node.bag]
    if holders:
        bad = copy_td(td)
        t = rng.choice(holders)
        node = bad.nodes[t]
        node.bag = node.bag - {rng.choice(sorted(node.bag))}
        yield "dropped vertex", bad, g
    if g.n:
        bad = copy_td(td)
        bad.nodes[bad.root].bag = frozenset({rng.randrange(g.n)})
        yield "non-empty root", bad, g
    joins = [t for t, node in enumerate(nodes) if node.kind == "join"]
    if joins and g.n > 1:
        bad = copy_td(td)
        child = bad.nodes[bad.nodes[rng.choice(joins)].children[0]]
        missing = [v for v in range(g.n) if v not in child.bag]
        if missing:
            child.bag = child.bag | {rng.choice(missing)}
            yield "join children differ", bad, g
    intros = [t for t, node in enumerate(nodes) if node.kind == "introduce"]
    leaves = [t for t, node in enumerate(nodes) if node.kind == "leaf"]
    if intros and leaves:
        bad = copy_td(td)
        # a leaf is never an ancestor, so the parent map stays acyclic
        bad.nodes[rng.choice(intros)].children.append(rng.choice(leaves))
        yield "introduce with two children", bad, g
    pairs = [
        (a, b) for a in range(g.n) for b in range(a + 1, g.n)
        if (a, b) not in g.edges and not any({a, b} <= node.bag for node in nodes)
    ]
    if pairs:
        a, b = rng.choice(pairs)
        yield "uncovered edge", td, Superstructure(g.n, set(g.edges) | {(a, b)})
    for v in rng.sample(range(g.n), g.n):
        holding = {t for t, node in enumerate(nodes) if v in node.bag}
        near = set(holding)
        for t in holding:
            near.update(nodes[t].children)
        near.update(t for t, node in enumerate(nodes) if holding & set(node.children))
        far = [t for t in range(len(nodes)) if t not in near]
        if holding and far:
            bad = copy_td(td)
            t = rng.choice(far)
            bad.nodes[t].bag = bad.nodes[t].bag | {v}
            yield "disconnected occurrences", bad, g
            break


def test_check_nice_matches_scan():
    seen = set()
    for seed in range(120):
        rng = random.Random(11000 + seed)
        n = rng.randint(1, 12)
        g = generate.random_graph(rng, n, rng.randint(0, 5),
                                  connected=(seed % 3 != 0), exact_fen=False)
        td = exact_decomposition(g) if seed % 5 == 0 else graphs.tree_decomposition(g)
        assert graphs.check_nice(td, g) == check_nice_scan(td, g) == []
        for name, bad, bad_g in mutations(rng, td, g):
            problems = graphs.check_nice(bad, bad_g)
            assert problems, name
            assert problems == check_nice_scan(bad, bad_g), name
            seen.add(name)
            if name == "disconnected occurrences":
                assert any("not connected" in p for p in problems)
    assert len(seen) == 6


def test_check_nice_names_each_malformed_node():
    # hand-built decompositions, each with one malformed node: a leaf with
    # a child, an introduce whose bag lost a vertex, a forget whose bag
    # gained one, and a kind check_nice does not know
    node, bag = graphs.TDNode, frozenset
    one, edge = Superstructure(1, []), Superstructure(2, [(0, 1)])
    cases = [
        ([node(bag(), "forget", [1]), node(bag({0}), "leaf", [2]),
          node(bag({0}), "leaf", [])], one, "leaf 1 has children"),
        ([node(bag(), "introduce", [1]), node(bag({0}), "leaf", [])], one,
         "introduce 0 removed a vertex"),
        ([node(bag(), "forget", [1]), node(bag({1}), "forget", [2]),
          node(bag({0, 1}), "forget", [3]), node(bag({0}), "leaf", [])], edge,
         "forget 2 added a vertex"),
        ([node(bag(), "forget", [1]), node(bag({0}), "branch", [])], one, "unknown kind branch"),
    ]
    for nodes, g, problem in cases:
        td = graphs.NiceTreeDecomposition(nodes, 0, max(len(n.bag) for n in nodes) - 1)
        assert graphs.check_nice(td, g) == check_nice_scan(td, g) == [problem]
