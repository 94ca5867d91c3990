import random
from collections import Counter

import pytest

from bnsl import cli, generate, graphs, lfen_dp, oracle, relations, tw_dp
from bnsl.instances import (
    AdditiveInstance,
    Superstructure,
    parse_additive,
    parse_solution,
    score_of,
    superstructure,
    to_nonzero,
    validate,
    write_additive,
)

from conftest import benchmark_instance, benchmark_ladders
from reference import (
    FoldGenerators,
    LocSnapshotEngine,
    WholeGraph,
    bags_from_order_replay,
    core_decomposition_rewrite,
    core_min_fill_relabeled,
    decided_snapshot_reference,
    exact_decomposition,
    keep_whole,
)


def below_sets(td):
    out = {}
    for t in td.postorder():
        node = td.nodes[t]
        s = set(node.bag)
        for c in node.children:
            s |= out[c]
        out[t] = s
    return out


def decided_tables(inst, mode):
    """The library's bag DP, unpruned over the whole superstructure's
    min-fill decomposition, with every node's records checked against
    `decided_snapshot_reference`; the engine, tables filled."""
    td = graphs.tree_decomposition(superstructure(inst))
    eng = keep_whole(tw_dp._TwEngine)(inst, td, mode, WholeGraph(inst))
    eng.run_tables()
    below = below_sets(td)
    for t in td.postorder():
        want = decided_snapshot_reference(inst, below[t], td.nodes[t].bag,
                                          inst.max_in_degree, mode)
        assert eng.records(t) == want, t
    return eng


def test_leaf_table():
    inst = AdditiveInstance(2, ("a", "b"), {(0, 1): 3}, max_in_degree=1)
    eng = decided_tables(inst, "bnsl")
    for t in eng.td.postorder():
        if eng.td.nodes[t].kind == "leaf":
            (v,) = eng.td.nodes[t].bag
            assert eng.records(t) == {(frozenset(), ((v, 0),)): 0}


def test_three_cycle_unbounded():
    inst = AdditiveInstance(3, ("a", "b", "c"), {(0, 1): 1, (1, 2): 1, (2, 0): 1})
    s, net = tw_dp.solve_bnsl_additive(inst)
    assert s == 2  # one arc of the cycle has to go
    assert validate(net, "dag").ok


def test_single_arc_q1():
    inst = AdditiveInstance(2, ("a", "b"), {(0, 1): 9}, max_in_degree=1)
    s, net = tw_dp.solve_bnsl_additive(inst)
    assert s == 9 and net.arcs == frozenset({(0, 1)})


def test_triangle_all_ones_polytree():
    arcs = {}
    for a in range(3):
        for b in range(3):
            if a != b:
                arcs[(a, b)] = 1
    inst = AdditiveInstance(3, ("a", "b", "c"), arcs, max_in_degree=2)
    s, net = tw_dp.solve_pl_additive_tw(inst)
    assert s == 2
    assert validate(net, "polytree", q=2).ok


def bouquet():
    """Vertex 0 with four triangles (0, a, b): a->0 scores 10, b->0 9 and
    a->b 1, with q=1 (optimum 14).  Min-fill gives vertex 0's bag four
    children, so three joins stack with no forget between them: a join that
    let a parent count pass q would carry vertex 0's count field into its
    neighbour's."""
    scores = {}
    for a in (1, 3, 5, 7):
        scores.update({(a, 0): 10, (a + 1, 0): 9, (a, a + 1): 1})
    names = ("h",) + tuple(f"{x}{i}" for i in range(4) for x in "ab")
    return AdditiveInstance(9, names, scores, max_in_degree=1)


def test_bnsl_matches_oracle_random():
    insts = [bouquet()]
    for seed in range(300):
        rng = random.Random(50_000 + seed)
        n = rng.randint(2, 9)
        q = rng.choice([None, 1, 2, 3])
        insts.append(generate.random_additive(rng, n, rng.randint(0, 4), q=q,
                                              connected=(seed % 4 != 0), exact_fen=False))
    for inst in insts:
        q = inst.max_in_degree
        so, _ = oracle.exact_bnsl(inst)
        sd, net = tw_dp.solve_bnsl_additive(inst)
        assert so == sd
        assert validate(net, "dag", q=q).ok and score_of(inst, net) == sd


def test_pl_matches_oracle_random():
    insts = [bouquet()]
    for seed in range(300):
        rng = random.Random(60_000 + seed)
        n = rng.randint(2, 8)
        q = rng.choice([1, 2, 3])
        insts.append(generate.random_additive(rng, n, rng.randint(0, 3), q=q,
                                              connected=(seed % 4 != 0), exact_fen=False))
    checked = 0
    for inst in insts:
        q = inst.max_in_degree
        if superstructure(inst).edge_count() > 13:
            continue
        so, _ = oracle.exact_pl(inst)
        sd, net = tw_dp.solve_pl_additive_tw(inst)
        assert so == sd
        assert validate(net, "polytree", q=q).ok and score_of(inst, net) == sd
        checked += 1
    assert checked >= 250, checked


def test_unbounded_equals_large_bound():
    for seed in range(40):
        rng = random.Random(70_000 + seed)
        n = rng.randint(2, 7)
        inst = generate.random_additive(rng, n, rng.randint(0, 2),
                                        exact_fen=False)
        bounded = AdditiveInstance(inst.n, inst.names, inst.arc_scores,
                                   max_in_degree=max(1, n - 1))
        assert tw_dp.solve_bnsl_additive(inst)[0] == \
            tw_dp.solve_bnsl_additive(bounded)[0]


def test_pl_needs_bound():
    inst = AdditiveInstance(2, ("a", "b"), {(0, 1): 1})
    with pytest.raises(ValueError):
        tw_dp.solve_pl_additive_tw(inst)


def test_snapshots_witnessed_and_maximal():
    for seed in range(10):
        rng = random.Random(80_000 + seed)
        n = rng.randint(3, 7)
        q = rng.choice([None, 2])
        inst = generate.random_additive(rng, n, rng.randint(0, 2), q=q,
                                        exact_fen=False)
        decided_tables(inst, "bnsl")


def test_pl_snapshots_witnessed_and_maximal():
    for seed in range(8):
        rng = random.Random(90_000 + seed)
        n = rng.randint(3, 7)
        inst = generate.random_additive(rng, n, rng.randint(0, 2), q=2,
                                        exact_fen=False)
        decided_tables(inst, "pl")


def test_root_snapshot_single_key():
    for seed in range(20):
        rng = random.Random(95_000 + seed)
        inst = generate.random_additive(rng, rng.randint(2, 8), rng.randint(0, 2),
                                        q=rng.choice([None, 2]), exact_fen=False)
        eng = decided_tables(inst, "bnsl")
        so, _ = oracle.exact_bnsl(inst)
        assert eng.records(eng.td.root) == {(frozenset(), ()): so}


def test_agreement_with_record_solver_via_expansion():
    for seed in range(25):
        rng = random.Random(99_000 + seed)
        n = rng.randint(2, 7)
        inst = generate.random_additive(rng, n, rng.randint(0, 2),
                                        max_degree=5, exact_fen=False)
        sd, _ = tw_dp.solve_bnsl_additive(inst)
        expanded = to_nonzero(inst)
        sl, _ = lfen_dp.solve_bnsl_lfen(expanded)
        so, _ = oracle.exact_bnsl(inst)
        assert sd == sl == so


def test_supplied_decomposition_is_used():
    inst = AdditiveInstance(3, ("a", "b", "c"), {(0, 1): 2, (1, 2): 3})
    td = exact_decomposition(superstructure(inst))
    s, _ = tw_dp.solve_bnsl_additive(inst, td)
    assert s == 5


def counts(eng, inn) -> tuple:
    """The parent counts packed in `inn` at each of `eng`'s width + 1 bag
    indices, fields of q.bit_length() + 1 bits with index 0 on top; () on
    an engine without a bound."""
    if eng.q is None:
        return ()
    d, w = eng.td.width + 1, eng.q.bit_length() + 1
    return tuple(inn >> (d - 1 - j) * w & (1 << w) - 1 for j in range(d))


def dominates(eng, a, b) -> bool:
    """Entry a = (key, score) of `eng` dominates entry b: a score at least
    b's, con a subset of b's (packed, so row by row at once), inn no larger
    at any position."""
    (con1, inn1), s1 = a
    (con2, inn2), s2 = b
    return (s1 >= s2 and con1 & ~con2 == 0
            and all(x <= y for x, y in zip(counts(eng, inn1), counts(eng, inn2))))


def test_pruned_tables_keep_the_undominated_entries():
    # at every node but an introduce, which shares its child's table, the
    # pruned table holds exactly the entries of the table its step made
    # that no other entry dominates, with their scores, in insertion order;
    # every entry of the unpruned engine has a kept dominator at its node;
    # the optimum is the unpruned one and the loc-keyed engine's it
    # replaced, and the witness scores it (ties may pick another witness
    # than the unpruned engine)
    for seed in range(300):
        rng = random.Random(120_000 + seed)
        q = rng.choice([None, 1, 2, 3])
        inst = generate.random_additive(rng, rng.randint(1, 11), rng.randint(0, 4), q=q,
                                        connected=(seed % 3 != 0), exact_fen=False)
        td = graphs.tree_decomposition(superstructure(inst))
        for mode in ("bnsl",) if q is None else ("bnsl", "pl"):
            pruned = tw_dp._TwEngine(inst, td, mode, WholeGraph(inst))
            made = []

            def keep(table, made=made, prune=pruned._prune):
                made.append(table)
                return prune(table)

            pruned._prune = keep
            unpruned = keep_whole(tw_dp._TwEngine)(inst, td, mode, WholeGraph(inst))
            score, net = pruned.solve()
            full_score, _ = unpruned.solve()
            steps = [t for t in td.postorder() if td.nodes[t].kind != "introduce"]
            assert len(made) == len(steps)
            for t, table in zip(steps, made):
                kept = [(key, entry[0]) for key, entry in pruned.tables[t].items()]
                entries = [(key, entry[0]) for key, entry in table.items()]
                undominated = [(key, s) for key, s in entries if not any(
                    other != key and dominates(pruned, (other, s2), (key, s))
                    for other, s2 in entries)]
                assert kept == undominated
            for t, node in enumerate(td.nodes):
                if node.kind == "introduce":
                    assert pruned.tables[t] is pruned.tables[node.children[0]]
                    assert unpruned.tables[t] is unpruned.tables[node.children[0]]
            for t, table in unpruned.tables.items():
                kept = [(key, entry[0]) for key, entry in pruned.tables[t].items()]
                for key, entry in table.items():
                    assert any(dominates(pruned, k, (key, entry[0])) for k in kept)
            assert score == full_score
            assert score == LocSnapshotEngine(inst, td, mode, WholeGraph(inst)).solve()[0]
            assert validate(net, "polytree" if mode == "pl" else "dag", q=q).ok
            assert score_of(inst, net) == score


def test_decided_snapshots_witnessed_and_maximal():
    # each edge is decided at the forget of its first-forgotten endpoint:
    # every node's unpruned table, in both modes, with and without a
    # bound, holds exactly the snapshots of the networks on the edges
    # decided below it, each with the best score of such a network, so
    # every key is witnessed and maximal
    checked = Counter()
    for seed in range(32):
        rng = random.Random(360_000 + seed)
        q = [None, 1, 2, 3][seed % 4]
        inst = generate.random_additive(rng, rng.randint(3, 7), rng.randint(0, 2), q=q,
                                        connected=(seed % 5 != 0), exact_fen=False)
        for mode in ("bnsl",) if q is None else ("bnsl", "pl"):
            decided_tables(inst, mode)
            checked[mode, q is None] += 1
    assert checked == {("bnsl", True): 8, ("bnsl", False): 24, ("pl", False): 24}


def test_packed_counts_match_tuple_arithmetic():
    # the bag DP's steps on packed parent counts against the same steps on
    # count tuples, for q = 1..6 on 1..12 bag indices (a clique's
    # decomposition) and counts up to 2q: a forget adds one count at the
    # head of each arc of a choice, a join adds both sides' counts (the
    # loc-keyed reference also subtracts loc's), and both reject a count
    # above q through the guard; a forget clears one field and reads the
    # bonus index from it; _prune finds no field of inn' larger than
    # inn's.  Without a bound every count is 0
    rng = random.Random(340_000)
    for d in range(1, 13):
        clique = {(x, y): 1 for x in range(d) for y in range(x + 1, d)}
        for q in (None, 1, 2, 3, 4, 5, 6):
            inst = AdditiveInstance(d, tuple(f"v{x}" for x in range(d)), clique, q)
            td = graphs.tree_decomposition(superstructure(inst))
            eng = tw_dp._TwEngine(inst, td, "bnsl", WholeGraph(inst))
            assert eng.td.width == d - 1
            if q is None:
                assert eng.units == [0] * d and eng.guard == eng.over == 0
                continue
            w = q.bit_length() + 1
            units, over, guard = eng.units, eng.over, eng.guard
            assert units == [relations.pack([x == j for x in range(d)], w) for j in range(d)]
            assert guard == relations.pack([1 << w - 1] * d, w)

            def pack(counts):
                return sum(c * u for c, u in zip(counts, units))

            for _ in range(100):
                a = [rng.randint(0, q) for _ in range(d)]
                b = [rng.randint(0, q) for _ in range(d)]
                loc = [rng.randint(0, min(x, y)) for x, y in zip(a, b)]
                both = [x + y - z for x, y, z in zip(a, b, loc)]
                inn = pack(a) + pack(b) - pack(loc)
                assert inn == relations.pack(both, w)
                assert bool(inn + over & guard) == (max(both) > q)
                # v at index i, with k in-arcs and one out-arc to each of heads
                i, k = rng.randrange(d), rng.randint(0, q + 1)
                heads = [j for j in range(d) if j != i and rng.random() < 0.5]
                grown = [x + (j in heads) for j, x in enumerate(a)]
                grown[i] = k
                inn = pack(a[:i] + [0] + a[i + 1:]) + k * units[i] + sum(units[j] for j in heads)
                assert inn == relations.pack(grown, w)
                assert bool(inn + over & guard) == (max(grown) > q)
                big = [rng.randint(0, 2 * q) for _ in range(d)]
                inn = relations.pack(big, w)
                assert inn + over & guard == relations.pack([(x > q) << w - 1 for x in big], w)
                at, field = (d - 1 - i) * eng.w, (1 << eng.w) - 1
                assert inn >> at & field == big[i]
                assert inn & ~(field << at) == relations.pack(big[:i] + [0] + big[i + 1:], w)
                up = [min(q, x + rng.randint(0, 1)) for x in a]
                for c in (b, up, a):
                    no_larger = ((pack(c) | guard) - pack(a)) & guard == guard
                    assert no_larger == all(x <= y for x, y in zip(a, c))


def hanging_family(seed):
    """Superstructure with a core of `k` vertices (a cycle, a chord when k
    >= 4, none when k = 0), long paths, stars and random trees hanging off
    it, tree-only components and isolated vertices; returns (graph, k)."""
    rng = random.Random(seed)
    k = rng.choice([0, 3, 4, 5])
    edges = [(i, (i + 1) % k) for i in range(k)]
    if k >= 4:
        edges.append((0, 2))
    n = k
    small = seed % 2 == 0  # small enough for the oracle

    def grow(at, size):
        # `size` new vertices hanging from `at`; at None the edges to it
        # are dropped below, so each such vertex roots a tree component
        nonlocal n
        shape = rng.choice(["path", "star", "tree"])
        new = []
        for _ in range(size):
            if shape == "path":
                parent = new[-1] if new else at
            elif shape == "star":
                parent = new[0] if new else at
            else:
                parent = rng.choice(new + [at])
            edges.append((parent, n))
            new.append(n)
            n += 1

    budget = 9 if small else 26
    for _ in range(rng.randint(1, 4)):
        if n < budget - 1:
            grow(rng.randrange(n) if n else None, rng.randint(1, min(12, budget - 1 - n)))
    for _ in range(rng.randint(0, 2)):  # tree-only components
        if n < budget - 1:
            root = n
            n += 1
            grow(root, rng.randint(1, min(6, budget - n)))
    n += rng.randint(0, min(2, budget - n))  # isolated vertices
    edges = [(a, b) for a, b in edges if a is not None]
    return Superstructure(n, edges), k


def test_fold_matches_unfolded_dp_and_oracle():
    # trees hanging off the 2-core are folded into bonuses: the optimum
    # equals the unfolded, unpruned bag DP's (and the oracle's for n <= 9)
    # over the whole graph's decomposition cut to the core and, without a
    # decomposition, over the min-fill decomposition of the core alone;
    # the witnesses validate and score it; both decompositions are nice
    # decompositions of the core, the core's own of the whole graph's
    # min-fill width (one empty leaf of width -1 without a core)
    for seed in range(160):
        g, k = hanging_family(130_000 + seed)
        q = [None, 1, 2, 3][seed % 4]
        inst = generate.additive_for_graph(random.Random(seed), g, q=q)
        td = graphs.tree_decomposition(g)
        fold, own = tw_dp.fold_core(inst, g)
        assert len(fold.core) == k
        if k:
            core_g = Superstructure(g.n, [(a, b) for a, b in g.edges
                                          if a in fold.core and b in fold.core])
            assert graphs.check_nice(tw_dp.fold_core(inst, g, td)[1], core_g) == []
            assert graphs.check_nice(own, core_g) == []
            assert own.width == td.width
        else:
            assert own.width == -1 and own.nodes == [graphs.TDNode(frozenset(), "leaf", [])]
        for mode in ("bnsl",) if q is None else ("bnsl", "pl"):
            solve = tw_dp.solve_pl_additive_tw if mode == "pl" else tw_dp.solve_bnsl_additive
            want, _ = keep_whole(tw_dp._TwEngine)(inst, td, mode, WholeGraph(inst)).solve()
            if g.n <= 9:
                exact = oracle.exact_pl(inst) if mode == "pl" else oracle.exact_bnsl(inst)
                assert want == exact[0], (seed, mode)
            for given in ((td,), ()):
                score, net = solve(inst, *given)
                assert score == want, (seed, mode, bool(given))
                assert validate(net, "polytree" if mode == "pl" else "dag", q=q).ok
                assert score_of(inst, net) == score


def postorder_shape(td):
    """td's bags, kinds and child positions in postorder, and its width:
    equal for two decompositions that differ only in node numbering."""
    post = td.postorder()
    at = {t: i for i, t in enumerate(post)}
    nodes = [(td.nodes[t].bag, td.nodes[t].kind, [at[c] for c in td.nodes[t].children])
             for t in post]
    return nodes, td.width


def test_core_decomposition_matches_relabeled_copy():
    # the core's min-fill decomposition, built in g's own numbers, equals
    # decomposing a relabeled copy of the core and mapping the bags back,
    # node for node; cutting an all-core decomposition to the core keeps
    # its tree and child order
    families = [hanging_family(140_000 + seed) for seed in range(150)]
    for seed in range(150):
        rng = random.Random(150_000 + seed)
        g = generate.random_graph(rng, rng.randint(3, 30), rng.randint(0, 6),
                                  connected=(seed % 3 != 0), exact_fen=False)
        families.append((generate.subdivide(rng, g, rng.randint(0, 30)), None))
    all_core = 0
    for i, (g, _) in enumerate(families):
        inst = generate.additive_for_graph(random.Random(i), g)
        fold, own = tw_dp.fold_core(inst, g)
        want = core_min_fill_relabeled(g, fold.core)
        assert (own.nodes, own.root, own.width) == (want.nodes, want.root, want.width)
        direct = graphs.tree_decomposition(g, vertices=fold.core)
        assert (direct.nodes, direct.root, direct.width) == (want.nodes, want.root, want.width)
        if len(fold.core) == g.n:
            all_core += 1
            td = graphs.tree_decomposition(g)
            cut = tw_dp.fold_core(inst, g, td)[1]
            assert postorder_shape(cut) == postorder_shape(td)
    assert all_core >= 20


def relabeled_min_fill(g, rng):
    """Min-fill decomposition of a randomly relabeled copy of g with its
    bags mapped back, node numbers kept (as the benchmark's check builds
    its decomposition)."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    inv = sorted(range(g.n), key=perm.__getitem__)
    h = Superstructure(g.n, [(min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in g.edges])
    td = graphs.tree_decomposition(h)
    nodes = [graphs.TDNode(frozenset(inv[x] for x in node.bag), node.kind, node.children)
             for node in td.nodes]
    return graphs.NiceTreeDecomposition(nodes, td.root, td.width)


def padded_raw(g, rng):
    """Raw bags of g eliminated in a random order, plus extra bags under
    random ones (some a subset of their parent's bag, some empty and
    childless), as a nice decomposition."""
    order = list(range(g.n))
    rng.shuffle(order)
    bags, parent = bags_from_order_replay(g, order)
    for key in range(g.n, g.n + rng.randint(1, 6)):
        p = rng.choice(list(bags))
        sub = sorted(bags[p]) if rng.random() < 0.6 else []
        bags[key] = frozenset(rng.sample(sub, rng.randint(0, len(sub))))
        parent[key] = p
    return graphs.nice_from_raw(bags, parent)


def test_cut_matches_node_rewrite():
    # cutting a supplied decomposition to the core on its raw bags gives
    # the node-by-node rewrite's decomposition, node for node, on
    # whole-graph min-fill, exact, relabeled and padded random-order
    # decompositions, with and without a core; the bag DP over both gives
    # the same score and witness
    empty_cores = 0
    for seed in range(120):
        if seed % 2:
            g, _ = hanging_family(170_000 + seed)
        else:
            rng = random.Random(171_000 + seed)
            g = generate.random_graph(rng, rng.randint(1, 12), rng.randint(0, 5),
                                      connected=(seed % 3 != 0), exact_fen=False)
            g = generate.subdivide(rng, g, rng.randint(0, 12) if g.edges else 0)
        rng = random.Random(172_000 + seed)
        q = [None, 1, 2][seed % 3]
        inst = generate.additive_for_graph(rng, g, q=q)
        fold, _ = tw_dp.fold_core(inst, g)
        tds = [graphs.tree_decomposition(g), relabeled_min_fill(g, rng), padded_raw(g, rng)]
        if g.n <= 12:
            tds.append(exact_decomposition(g))
        for td in tds:
            want = core_decomposition_rewrite(td, fold.core)
            got = tw_dp.fold_core(inst, g, td)[1]
            assert (postorder_shape(got), got.root) == (postorder_shape(want), want.root), seed
            empty_cores += not fold.core
            if seed % 4 == 0:
                mode = "pl" if q is not None and seed % 8 == 0 else "bnsl"
                assert (tw_dp.solve_folded(inst, mode, fold, got)
                        == tw_dp.solve_folded(inst, mode, fold, want))
    assert empty_cores >= 20


def test_core_min_fill_at_scale():
    # a random 20 000-vertex tree plus 30 sampled edges, unbounded acyclic:
    # the core's own decomposition gives the optimum of the whole graph's
    rng = random.Random("tree+30")
    n = 20_000
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n - 1 + 30:
        a, b = sorted(rng.sample(range(n), 2))
        edges.add((a, b))
    g = Superstructure(n, edges)
    inst = generate.additive_for_graph(rng, g)
    score, net = tw_dp.solve_bnsl_additive(inst)
    assert score == tw_dp.solve_bnsl_additive(inst, graphs.tree_decomposition(g))[0]
    assert validate(net, "dag").ok
    assert score_of(inst, net) == score


def test_fold_with_supplied_td_through_cli(capsys, tmp_path):
    # a triangle a-b-c with the path c-d-e and the star a-f, a-g hanging
    # off it, the tree component h-i and an isolated vertex (unnamed in the
    # file, so in no bag), solved over a hand-written decomposition in both
    # modes
    names = "abcdefghij"
    edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (0, 5), (0, 6), (7, 8)]
    g = Superstructure(len(names), edges)
    inst = generate.additive_for_graph(random.Random(7), g, q=1)
    inst = AdditiveInstance(inst.n, tuple(names), inst.arc_scores, max_in_degree=1)
    p = tmp_path / "a.inst"
    p.write_text(write_additive(inst))
    inst = parse_additive(p.read_text())
    td = tmp_path / "td.txt"
    td.write_text("b 0 a b c\nb 1 c d\nb 2 d e\nb 3 a f\nb 4 a g\nb 5 h i\n"
                  "e 0 1\ne 1 2\ne 0 3\ne 0 4\n")
    for mode, exact in (("bnsl", oracle.exact_bnsl), ("polytree", oracle.exact_pl)):
        out_path = tmp_path / f"{mode}.sol"
        code = cli.main(["solve", str(p), "--mode", mode, "--algo", "twdp", "--td", str(td),
                         "--out", str(out_path)])
        out, err = capsys.readouterr()
        assert code == 0, err
        assert err.strip() == "width=2 core=3"
        assert out.strip() == f"max_score={exact(inst)[0]}"
        net = parse_solution(out_path.read_text(), inst)
        assert validate(net, "polytree" if mode == "polytree" else "dag", q=1).ok


def step_family():
    """Seeded additive instances for the bag DP's steps: chains, trees,
    near-trees (cycle rank 1-2, long pendant trees) and denser graphs of
    min-fill width up to 5, each shape with bound none, 1, 2 and 3."""
    for seed in range(80):
        rng = random.Random(140_000 + seed)
        shape = ("chain", "tree", "near-tree", "dense")[seed % 4]
        if shape == "chain":
            n = rng.randint(2, 30)
            g = Superstructure(n, [(i, i + 1) for i in range(n - 1)])
        elif shape == "tree":
            g = generate.random_graph(rng, rng.randint(2, 30))
        elif shape == "near-tree":
            g = generate.random_graph(rng, rng.randint(5, 40), rng.randint(1, 2))
        else:
            g = generate.random_graph(rng, rng.randint(10, 16), rng.randint(7, 12),
                                      max_degree=4, exact_fen=False)
        yield shape, generate.additive_for_graph(rng, g, q=[None, 1, 2, 3][seed // 4 % 4])


def test_steps_and_fold_match_loc_engine():
    # the library engine gives the optimum of the loc-keyed engine it
    # replaced, with a witness that validates and scores it: unfolded over
    # the whole graph's decomposition, pruned and (up to width 3) unpruned,
    # and folded, over the core's own decomposition or (every other
    # instance) over the whole graph's cut to the core.  The fold equals
    # the one built on generators, field by field, and lifts the same arcs
    widths, shapes = set(), set()
    for k, (shape, inst) in enumerate(step_family()):
        g = superstructure(inst)
        td = graphs.tree_decomposition(g)
        if td.width > 5:
            continue
        widths.add(td.width)
        shapes.add(shape)
        fold, old = tw_dp.Fold(inst, g), FoldGenerators(inst, g)
        assert (fold.g, fold.q, fold.core, fold.kids, fold.hang, fold.a, fold.b,
                fold.bonus, fold.roots) == (old.g, old.q, old.core, old.kids, old.hang,
                                            old.a, old.b, old.bonus, old.roots)
        assert set(vars(fold)) - {"arc_scores"} == set(vars(old)) - {"arc"}
        for mode in ("bnsl",) if inst.max_in_degree is None else ("bnsl", "pl"):
            whole = WholeGraph(inst)
            runs = [(td, whole, True)] + [(td, whole, False)] * (td.width <= 3)
            runs.append((tw_dp.fold_core(inst, g, td if k % 2 else None)[1], fold, True))
            for dec, new_fold, prune in runs:
                wrap = (lambda engine: engine) if prune else keep_whole
                score, net = wrap(LocSnapshotEngine)(inst, dec, mode, new_fold).solve()
                lib_score, lib_net = wrap(tw_dp._TwEngine)(inst, dec, mode, new_fold).solve()
                assert lib_score == score
                assert validate(lib_net, "polytree" if mode == "pl" else "dag",
                                q=inst.max_in_degree).ok
                assert score_of(inst, lib_net) == score
                if new_fold is fold:
                    core_arcs = {(x, y) for x, y in net.arcs if x not in fold.kids.get(y, ())
                                 and y not in fold.kids.get(x, ())}
                    assert fold.lift(core_arcs) == old.lift(core_arcs)
    assert widths == {1, 2, 3, 4, 5} and len(shapes) == 4


def test_each_vertex_keeps_one_index():
    # over min-fill decompositions of the whole graph, of the 2-core alone
    # and the whole graph's cut to the core: each node's index list holds
    # exactly its bag on width + 1 indices, a vertex sits at one index at
    # every node that holds it, and a join's children share their parent's
    count, kinds = 0, set()
    for seed in range(200):
        rng = random.Random(230_000 + seed)
        inst = generate.random_additive(rng, rng.randint(1, 40), rng.randint(0, 12),
                                        q=rng.choice([None, 2]), connected=(seed % 3 != 0),
                                        exact_fen=False)
        g = superstructure(inst)
        whole = graphs.tree_decomposition(g)
        for td in (whole, tw_dp.fold_core(inst, g)[1], tw_dp.fold_core(inst, g, whole)[1]):
            eng = tw_dp._TwEngine(inst, td, "bnsl", WholeGraph(inst))
            index: dict = {}
            for t, node in enumerate(td.nodes):
                verts = eng.verts[t]
                kinds.add(node.kind)
                assert len(verts) == td.width + 1
                held = [x for x in verts if x is not None]
                assert len(held) == len(node.bag) and set(held) == node.bag
                for j, x in enumerate(verts):
                    if x is not None:
                        assert index.setdefault(x, j) == j
                if node.kind == "join":
                    assert all(eng.verts[c] == verts for c in node.children)
            count += 1
    assert count == 600 and kinds == {"leaf", "introduce", "forget", "join"}


def test_snapshot_tables_are_the_solvers_tables(monkeypatch):
    # the twdp slots of the dag-additive and polytree benchmarks, seeds
    # 1-3, round 0, drawn by perfbench/ladders.py, with the whole graph's
    # min-fill decomposition and without one: for each engine the solver
    # runs, `snapshot_tables` of the engine's instance returns `fold_core`'s
    # decomposition and, in insertion order, the tables that the engine
    # fills over it.  That is the whole instance, except without a bound or
    # a decomposition, where the solver runs one engine per strongly
    # connected component of the best-arc digraph (`Condensed`), each on
    # its own dense instance.  An introduce node shares its child's table,
    # so the states the engine keeps count it once
    engines = []
    original = tw_dp._TwEngine.run_tables

    def run_tables(self):
        engines.append(self)
        return original(self)

    monkeypatch.setattr(tw_dp._TwEngine, "run_tables", run_tables)
    workloads = (("dag-additive", "bnsl", tw_dp.solve_bnsl_additive),
                 ("polytree", "pl", tw_dp.solve_pl_additive_tw))
    runs = Counter()
    for workload, mode, solve in workloads:
        for seed in range(1, 4):
            for k, slot in enumerate(benchmark_ladders().WORKLOADS[workload]):
                if slot.algo != "twdp":
                    continue
                inst = benchmark_instance(workload, seed, 0, k)
                for td in (graphs.tree_decomposition(superstructure(inst)), None):
                    engines.clear()
                    solve(inst, td)
                    split = td is None and inst.max_in_degree is None
                    assert split or len(engines) == 1
                    ran = list(engines)  # snapshot_tables runs engines of its own
                    for eng in ran:
                        assert (eng.inst is inst) != split
                        check_engine_tables(eng, mode, td)
                        runs[mode, split] += 1
    # seeds 1-3 give two components of two or more vertices
    assert min(runs["bnsl", False], runs["pl", False]) >= 6 and runs["bnsl", True] >= 2, runs


def check_engine_tables(eng, mode, td):
    """`snapshot_tables(eng.inst, mode, td)` are the tables `eng` filled,
    over the same decomposition."""
    tables, dec = tw_dp.snapshot_tables(eng.inst, mode, td)
    assert dec == eng.td
    assert list(tables) == list(eng.tables)
    for t, table in tables.items():
        assert list(table.items()) == list(eng.records(t).items())
    shared = 0
    for t, node in enumerate(dec.nodes):
        if node.kind == "introduce":
            (c,) = node.children
            assert eng.tables[t] is eng.tables[c]
            assert len(tables[t]) == len(tables[c])
            shared += len(tables[t])
    distinct = {id(table): len(table) for table in eng.tables.values()}
    assert sum(distinct.values()) == sum(map(len, tables.values())) - shared


def test_scores_match_loc_reference_on_benchmark_slots():
    # the twdp and matroid slots of the dag-additive and polytree
    # benchmarks, seeds 1-6, round 0, drawn by perfbench/ladders.py: over
    # the same fold and decomposition the library engine's optimum equals
    # the loc-keyed reference engine's, and its witness is valid and
    # scores it
    runs = Counter()
    for workload, mode, kind in (("dag-additive", "bnsl", "dag"), ("polytree", "pl", "polytree")):
        for seed in range(1, 7):
            for k, slot in enumerate(benchmark_ladders().WORKLOADS[workload]):
                if slot.algo not in ("twdp", "matroid"):
                    continue
                inst = benchmark_instance(workload, seed, 0, k)
                fold, td = tw_dp.fold_core(inst, superstructure(inst))
                score, net = tw_dp.solve_folded(inst, mode, fold, td)
                assert score == LocSnapshotEngine(inst, td, mode, fold).solve()[0], (seed, k)
                assert validate(net, kind, q=inst.max_in_degree).ok
                assert score_of(inst, net) == score
                runs[workload, slot.algo] += 1
    assert runs == {("dag-additive", "twdp"): 54, ("polytree", "twdp"): 18,
                    ("polytree", "matroid"): 12}


def test_fold_bonus_never_grows_with_core_in_degree():
    # the prune's precondition: the bonus a core vertex collects for its
    # folded trees, read at its parent count in the core where it is
    # forgotten, never grows with that count, so a snapshot with fewer
    # parents collects at least as much.  On the hanging and step
    # families, bound none to 3, as each engine reads it in both modes
    seen = Counter()
    graphs_ = [hanging_family(380_000 + seed)[0] for seed in range(120)]
    instances = [generate.additive_for_graph(random.Random(seed), g, q=[None, 1, 2, 3][seed % 4])
                 for seed, g in enumerate(graphs_)]
    instances += [inst for _, inst in step_family()]
    for inst in instances:
        q = inst.max_in_degree
        fold, td = tw_dp.fold_core(inst, superstructure(inst))
        for mode in ("bnsl",) if q is None else ("bnsl", "pl"):
            eng = tw_dp._TwEngine(inst, td, mode, fold)
            for bonus in eng.bonus.values():
                assert len(bonus) == (q or 0) + 1
                assert all(more >= less for more, less in zip(bonus, bonus[1:])), bonus
                seen[mode, q is None, len(set(bonus)) > 1] += 1
    assert min(seen[mode, False, True] for mode in ("bnsl", "pl")) >= 20, seen
    assert seen["bnsl", True, False] >= 20, seen


def test_condensed_matches_oracle():
    # without a bound or a decomposition the bag DP runs only on the
    # strongly connected components of the best-arc digraph.  Seeded
    # instances of 2-12 vertices: trees, connected and disconnected
    # graphs of cycle rank up to 6, scores up to 8 or all 1 (every edge a
    # tie, oriented (min, max)); some components of two or more vertices
    # are met
    parts = Counter()
    for seed in range(360):
        rng = random.Random(390_000 + seed)
        n = rng.randint(2, 12)
        fen = 0 if seed % 5 == 0 else rng.randint(1, 6)
        inst = generate.random_additive(rng, n, fen, max_score=1 if seed % 3 == 0 else 8,
                                        connected=seed % 4 != 1, exact_fen=False)
        split = tw_dp.Condensed(inst)
        score, net = split.solve()
        assert (score, net) == tw_dp.solve_bnsl_additive(inst)
        assert score == oracle.exact_bnsl(inst)[0], seed
        assert validate(net, "dag").ok and score_of(inst, net) == score
        assert split.core == sum(len(verts) for verts, *_ in split.parts)
        parts[len(split.parts) > 0] += 1
    assert min(parts.values()) >= 60, parts


def test_condensed_matches_supplied_td_at_scale():
    # the unbounded dag-additive slots' shapes (perfbench/ladders.py's
    # `additive_at_width`: n = 60 at cycle rank 10, n = 200 at 12, min-fill
    # width 4) on seeds the benchmark does not draw: the split's optimum
    # equals the bag DP's over the whole graph's decomposition, which is
    # the benchmark's reference, and some of them split
    split = 0
    for seed in range(16):
        n, fen = ((60, 10), (200, 12))[seed % 2]
        inst = benchmark_ladders().additive_at_width(n, fen, 4, None)(random.Random(seed))
        g = superstructure(inst)
        split += bool(tw_dp.Condensed(inst).parts)
        score, net = tw_dp.solve_bnsl_additive(inst)
        assert score == tw_dp.solve_bnsl_additive(inst, graphs.tree_decomposition(g))[0], seed
        assert validate(net, "dag").ok and score_of(inst, net) == score
    assert split >= 2, split


def test_condensed_long_cycle_without_recursion():
    # a 5000-cycle whose better arcs all point one way: one component
    # spans it, so Tarjan's search runs 5000 deep and the bag DP runs on
    # the whole cycle, dropping its cheapest arc
    n = 5000
    arcs = {(v, (v + 1) % n): 2 + v % 3 for v in range(n)}
    arcs.update({((v + 1) % n, v): 1 for v in range(0, n, 2)})
    inst = AdditiveInstance(n, tuple(f"x{v}" for v in range(n)), arcs)
    split = tw_dp.Condensed(inst)
    assert (split.width, split.core, len(split.parts)) == (2, n, 1)
    score, net = split.solve()
    forward = sum(s for (u, v), s in arcs.items() if v == (u + 1) % n)
    assert score == forward - 1  # drop one 2-arc, or turn one 2-arc for its 1
    assert validate(net, "dag").ok and score_of(inst, net) == score
