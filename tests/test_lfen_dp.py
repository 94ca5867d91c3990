import random
from operator import itemgetter

from bnsl import cli, generate, graphs, kernel, lfen_dp, oracle, relations
from bnsl.instances import parse_nonzero, score_of, superstructure, validate

from reference import (
    BnslEngineClosed,
    BnslEngineFullClosure,
    BnslEngineProduct,
    BnslEngineRowGlue,
    PlEngineClosed,
    PlEngineProduct,
    classes,
    closure,
    from_pairs,
    irreflexive,
    random_dag,
    reach_pairs,
    same_class,
    subtree_pl_record_reference,
    subtree_record_reference,
    to_pairs,
    unpack,
)


def row_table(eng, v):
    """eng.tables[v] as a list of items with every packed key, the chain's
    child keys included, turned into the row tuple of its relation."""
    bounds = eng.bounds

    def rows(c, key):
        return tuple(unpack(key, len(bounds[c].delta)))

    return [
        (rows(v, key), (score, (parents, tuple((c, rows(c, ck)) for c, ck in chain))))
        for key, (score, (parents, chain)) in eng.tables[v].items()
    ]


def one_chain_table(ref, v):
    """ref.tables[v] of an engine that keeps closed children apart, in the
    fold's entry format: each closed choice becomes the key `closed_key`
    names, merged with the open choices into one chain in child order."""
    out = []
    for key, (score, (parents, closed, opens)) in ref.tables[v].items():
        chain = [(c, ref.closed_key(c, take_arc)) for c, take_arc in closed] + list(opens)
        out.append((key, (score, (parents, tuple(sorted(chain, key=itemgetter(0)))))))
    return out


def witness_forest(instance):
    return graphs.lfen_search(superstructure(instance)).forest


def subtree_sets(forest):
    children = forest.children_lists()
    sizes = {}
    for r in forest.roots:
        stack = [(r, False)]
        while stack:
            v, done = stack.pop()
            if done:
                s = {v}
                for c in children[v]:
                    s |= sizes[c]
                sizes[v] = s
            else:
                stack.append((v, True))
                stack.extend((c, False) for c in children[v])
    return sizes


def test_boundaries_closed_child_and_root(example4):
    # a child whose delta has at most two vertices meets the rest of the
    # graph only through its tree edge
    g = superstructure(example4)
    forest = graphs.lfen_search(g).forest
    bounds = lfen_dp.boundaries(g, forest)
    root = forest.roots[0]
    assert bounds[root].delta == ()
    for v in range(g.n):
        for c in bounds[v].children:
            if len(bounds[c].delta) <= 2:
                assert set(bounds[c].delta) == {v, c}


def test_boundaries_match_edge_scan():
    for seed in range(50):
        rng = random.Random(seed)
        inst = generate.random_nonzero(rng, rng.randint(2, 10), rng.randint(0, 3),
                                       connected=False, exact_fen=False)
        g = superstructure(inst)
        forest = graphs.lfen_search(g).forest
        bounds = lfen_dp.boundaries(g, forest)
        subtrees = subtree_sets(forest)
        lfen_val = graphs.lfen_of_tree(g, forest).value
        for v in range(g.n):
            inside = subtrees[v]
            expect = set()
            for a, b in g.edges:
                if (a in inside) != (b in inside):
                    expect.update((a, b))
            assert set(bounds[v].delta) == expect
            assert len(bounds[v].delta) <= 2 * lfen_val + 2


def test_boundaries_match_definition_on_bfs_and_search_forests():
    for seed in range(60):
        rng = random.Random(2600 + seed)
        n = rng.randint(1, 40)
        g = generate.random_graph(rng, n, rng.randint(0, 6),
                                  connected=(seed % 3 != 0), exact_fen=False)
        for forest in (graphs.feedback_edge_set(g), graphs.lfen_search(g, budget=50).forest):
            subtrees = subtree_sets(forest)
            children = forest.children_lists()
            for b in lfen_dp.boundaries(g, forest):
                inside = subtrees[b.vertex]
                expect = set()
                for x, y in g.edges:
                    if (x in inside) != (y in inside):
                        expect.update((x, y))
                assert b.delta == tuple(sorted(expect))
                assert b.delta_in == tuple(x for x in b.delta if x in inside)
                assert b.delta_out == tuple(x for x in b.delta if x not in inside)
                assert b.children == tuple(children[b.vertex])


def test_leaf_records_empty_family():
    inst = parse_nonzero("2\na 0\nb 1\n4 1 a\n")
    forest = witness_forest(inst)
    leaf = next(
        v for v in range(2) if not forest.children_lists()[v]
    )
    recs = lfen_dp.record_tables(inst, forest)[0][leaf]
    assert recs[frozenset()] == 0


def test_leaf_records_single_parent():
    inst = parse_nonzero("2\nu 0\nv 1\n5 1 u\n")
    forest = witness_forest(inst)
    children = forest.children_lists()
    tables, _ = lfen_dp.record_tables(inst, forest)
    for v in range(2):
        if children[v]:
            continue
        recs = tables[v]
        if inst.entries.get(v):
            u = next(iter(inst.entries[v]))
            assert recs == {frozenset(): 0, frozenset({(next(iter(u)), v)}): 5}


def test_leaf_records_match_enumeration():
    for seed in range(40):
        rng = random.Random(200 + seed)
        inst = generate.random_nonzero(rng, rng.randint(2, 8), rng.randint(0, 2),
                                       exact_fen=False)
        g = superstructure(inst)
        forest = graphs.lfen_search(g).forest
        bounds = lfen_dp.boundaries(g, forest)
        children = forest.children_lists()
        tables, _ = lfen_dp.record_tables(inst, forest)
        for v in range(inst.n):
            if children[v]:
                continue
            got = tables[v]
            want = subtree_record_reference(inst, {v}, bounds[v].delta)
            assert got == want


def test_combine_records_closed_children_formula():
    # hub with two pendant leaves and no own entries: single empty record
    inst = parse_nonzero("3\nh 0\np 1\n2 1 h\nq 1\n7 1 h\n")
    g = superstructure(inst)
    forest = graphs.forest_from_edges(g, g.edges)
    hub = 0
    recs = lfen_dp.record_tables(inst, forest)[0][hub]
    assert recs == {frozenset(): 9}  # each leaf takes the hub when it pays


def test_solve_example(example4):
    score, net = lfen_dp.solve_bnsl_lfen(example4)
    assert score == 7
    assert validate(net, "dag").ok and score_of(example4, net) == 7


def test_solve_empty_family():
    inst = parse_nonzero("3\na 0\nb 0\nc 0\n")
    score, net = lfen_dp.solve_bnsl_lfen(inst)
    assert score == 0 and net.arcs == frozenset()


def test_solve_matches_oracle_random():
    for seed in range(200):
        rng = random.Random(10_000 + seed)
        n = rng.randint(2, 10)
        inst = generate.random_nonzero(rng, n, rng.randint(0, 3),
                                       max_degree=4, connected=(seed % 4 != 0),
                                       exact_fen=False)
        so, _ = oracle.exact_bnsl(inst)
        sd, net = lfen_dp.solve_bnsl_lfen(inst)
        assert so == sd
        assert validate(net, "dag").ok and score_of(inst, net) == sd


def test_record_tables_witnessed_and_maximal():
    for seed in range(12):
        rng = random.Random(31_000 + seed)
        inst = generate.random_nonzero(rng, rng.randint(3, 7), rng.randint(1, 2),
                                       extra_sets=0.3, exact_fen=False)
        g = superstructure(inst)
        forest = graphs.lfen_search(g).forest
        tables, eng = lfen_dp.record_tables(inst, forest)
        subtrees = subtree_sets(forest)
        bounds = lfen_dp.boundaries(g, forest)
        k = graphs.lfen_of_tree(g, forest).value
        for v in range(inst.n):
            want = subtree_record_reference(inst, subtrees[v], bounds[v].delta)
            assert tables[v] == want
            assert len(tables[v]) <= 2 ** ((2 * k + 2) ** 2)


def test_root_table_single_record():
    for seed in range(20):
        rng = random.Random(500 + seed)
        inst = generate.random_nonzero(rng, rng.randint(2, 8), rng.randint(0, 2),
                                       exact_fen=False)
        tables, eng = lfen_dp.record_tables(inst)
        so, _ = oracle.exact_bnsl(inst)
        roots = eng.forest.roots
        total = 0
        for r in roots:
            assert list(tables[r]) == [frozenset()]
            total += tables[r][frozenset()]
        assert total == so


def test_union_acyclicity_criterion():
    hits = 0
    for seed in range(1000):
        rng = random.Random(seed)
        n = rng.randint(2, 7)
        d1 = random_dag(rng, n, prob=0.4)
        d2 = random_dag(rng, n, prob=0.4)
        union = d1.arcs | d2.arcs
        con1 = reach_pairs(range(n), d1.arcs)
        con2 = reach_pairs(range(n), d2.arcs)
        closed_pairs = reach_pairs(range(n), con1 | con2)
        loop_free = not any(u == v for u, v in closed_pairs)
        acyclic = not any(u == v for u, v in reach_pairs(range(n), union))
        assert loop_free == acyclic
        hits += not acyclic
        # the row helpers and the packed relations of bnsl.relations agree
        # with the references
        verts = list(range(n))
        rows1, rows2 = from_pairs(con1, verts), from_pairs(con2, verts)
        rows = closure([a | b for a, b in zip(rows1, rows2)])
        assert to_pairs(rows, verts) == closed_pairs
        assert irreflexive(rows) == loop_free
        m1, m2 = relations.from_pairs(con1, verts), relations.from_pairs(con2, verts)
        assert (m1, m2) == (relations.pack(rows1, n), relations.pack(rows2, n))
        shared = relations.support(m1, n) & relations.support(m2, n)
        closed = relations.closed_union(m1, m2, shared, n)
        assert (closed is not None) == loop_free
        assert closed is None or relations.to_pairs(closed, verts) == closed_pairs
        root = list(verts)

        def find(x):
            while root[x] != x:
                x = root[x]
            return x

        for u, v in union:
            root[find(u)] = find(v)
        expect = {frozenset(x for x in verts if find(x) == r) for r in map(find, verts)}
        union_rows = from_pairs(union, verts)
        got = {frozenset(x for x in verts if cls >> x & 1) for cls in classes(union_rows)}
        assert got == expect and len(classes(union_rows)) == len(expect)
        same = {(x, y) for x in verts for y in verts if x != y and find(x) == find(y)}
        assert to_pairs(same_class(union_rows), verts) == same
        parts = relations.classes(relations.from_pairs(union, verts), n)
        assert {frozenset(x for x in verts if cls >> x & 1) for cls in parts} == expect
        assert relations.to_pairs(relations.class_rows(parts, n), verts) == same
    assert hits > 50  # both outcomes actually exercised


def test_long_path_solves_without_recursion(capsys, tmp_path):
    # x_i takes x_{i-1} for 1; a witness collector that recursed once per
    # tree level would overflow the interpreter stack here
    n = 1500
    text = f"{n}\nx0 0\n" + "".join(f"x{i} 1\n1 1 x{i - 1}\n" for i in range(1, n))
    inst = parse_nonzero(text)
    for solve, mode in ((lfen_dp.solve_bnsl_lfen, "dag"), (lfen_dp.solve_pl_lfen, "polytree")):
        score, net = solve(inst)
        assert score == n - 1
        assert validate(net, mode).ok and score_of(inst, net) == score
    path = tmp_path / "path.scores"
    path.write_text(text)
    assert cli.main(["solve", str(path), "--algo", "lfen"]) == 0
    assert capsys.readouterr().out.strip() == f"max_score={n - 1}"


def test_pl_solve_star_tree():
    inst = parse_nonzero(
        "4\nh 0\nx 1\n3 1 h\ny 1\n2 1 h\nz 1\n4 1 h\n"
    )
    so, _ = oracle.exact_pl(inst)
    sd, net = lfen_dp.solve_pl_lfen(inst)
    assert sd == so == 9
    assert validate(net, "polytree").ok


def test_pl_solve_empty():
    inst = parse_nonzero("2\na 0\nb 0\n")
    assert lfen_dp.solve_pl_lfen(inst)[0] == 0


def test_pl_solve_matches_oracle_random():
    for seed in range(200):
        rng = random.Random(20_000 + seed)
        n = rng.randint(2, 8)
        inst = generate.random_nonzero(rng, n, rng.randint(0, 3),
                                       connected=(seed % 4 != 0), exact_fen=False)
        if superstructure(inst).edge_count() > 13:
            continue
        so, _ = oracle.exact_pl(inst)
        sd, net = lfen_dp.solve_pl_lfen(inst)
        assert so == sd
        assert validate(net, "polytree").ok and score_of(inst, net) == sd


def test_pl_record_tables_witnessed_and_maximal():
    for seed in range(10):
        rng = random.Random(41_000 + seed)
        inst = generate.random_nonzero(rng, rng.randint(3, 7), rng.randint(1, 2),
                                       extra_sets=0.3, exact_fen=False)
        g = superstructure(inst)
        forest = graphs.lfen_search(g).forest
        tables, eng = lfen_dp.pl_record_tables(inst, forest)
        subtrees = subtree_sets(forest)
        bounds = lfen_dp.boundaries(g, forest)
        for v in range(inst.n):
            want = subtree_pl_record_reference(
                inst, subtrees[v], bounds[v].delta_in
            )
            assert tables[v] == want


def test_supplied_tree_is_respected(example4):
    g = superstructure(example4)
    a, b, c, d = range(4)
    forest = graphs.forest_from_edges(g, frozenset({(a, b), (b, d), (c, d)}))
    score, net = lfen_dp.solve_bnsl_lfen(example4, forest)
    assert score == 7


def test_tables_and_witness_match_product_engine():
    # the fold over packed keys against the engine that took the product
    # of all open children's tables on row keys and kept closed children
    # apart: acyclic tables (insertion order and backpointers, the chains'
    # keys included, compared on row tuples, the closed choices merged into
    # the chain) and witnesses are identical; polytree tables are equal as
    # dicts, and the witness, which may differ on ties, is a polytree
    # scoring the optimum
    for seed in range(320):
        rng = random.Random(130_000 + seed)
        inst = generate.random_nonzero(rng, rng.randint(1, 13), rng.randint(0, 4),
                                       connected=(seed % 3 != 0), exact_fen=False,
                                       extra_sets=rng.choice([0, 0.3, 0.6]))
        g = superstructure(inst)
        for forest in (graphs.lfen_search(g).forest, graphs.feedback_edge_set(g)):
            _, eng = lfen_dp.record_tables(inst, forest)
            ref = BnslEngineProduct(inst, g, forest)
            ref.fill()
            for v in range(inst.n):
                assert row_table(eng, v) == one_chain_table(ref, v)
            assert lfen_dp.solve_bnsl_lfen(inst, forest) == ref.solve()

            tables, _ = lfen_dp.pl_record_tables(inst, forest)
            ref = PlEngineProduct(inst, g, forest)
            best, _ = ref.solve()
            for v in range(inst.n):
                assert tables[v] == ref.records(v)
            score, net = lfen_dp.solve_pl_lfen(inst, forest)
            assert score == best
            assert validate(net, "polytree").ok and score_of(inst, net) == best


def test_tables_match_full_closure_at_kernel_scale():
    # kernels of subdivided n=60, fen=5 instances, whose largest fold
    # ground indices hold 13-21 vertices: the glue that pivots only on the
    # shared support gives the tables of the full Warshall closure on row
    # lists, in insertion order with their backpointers, and the same
    # solve.  The seeds are ones whose reference fold takes about a second
    # at most
    for seed in (0, 3, 4, 8, 16, 19, 20, 21):
        inst = generate.random_nonzero(random.Random(f"rg:{seed}"), 60, 5, subdivisions=40)
        red = kernel.kernelize_bnsl(inst).reduced
        g = superstructure(red)
        for forest in (graphs.lfen_search(g).forest, graphs.feedback_edge_set(g)):
            ref = BnslEngineFullClosure(red, g, forest)
            assert lfen_dp.solve_bnsl_lfen(red, forest) == ref.solve()
            _, eng = lfen_dp.record_tables(red, forest)
            for v in range(red.n):
                assert row_table(eng, v) == row_table(ref, v)


def test_packed_fold_matches_row_glue_on_benchmark_kernels():
    # the kernels of the dag-explicit benchmark's subdivided slots (n=60
    # fen=5, n=200 fen=3, n=800 fen=1) for seeds 1-7, both rounds, drawn
    # as perfbench/ladders.py draws them, over the witness tree the CLI
    # searches: the merge on packed ints gives the tables of the merge on
    # row lists, in insertion order with their backpointers, and the same
    # solve.  The n=1500 near-tree slot is left out: generating one takes
    # over a second, and its kernel has cycle rank 1
    slots = ((60, 5, 40), (200, 3, 150), (800, 1, 700))
    for seed in range(1, 8):
        for rnd in range(2):
            for k, (n, fen, sub) in enumerate(slots):
                rng = random.Random(f"dag-explicit:{seed}:{rnd}:{k}")
                inst = generate.random_nonzero(rng, n, fen, subdivisions=sub)
                red = kernel.kernelize_bnsl(inst).reduced
                g = superstructure(red)
                forest = graphs.lfen_search(g).forest
                ref = BnslEngineRowGlue(red, g, forest)
                assert lfen_dp.solve_bnsl_lfen(red, forest) == ref.solve()
                _, eng = lfen_dp.record_tables(red, forest)
                for v in range(red.n):
                    assert row_table(eng, v) == row_table(ref, v)


def test_tables_and_witness_match_closed_child_engine():
    # the fold that takes every child one way against the earlier engine,
    # which added each closed child's best record to the parent set's
    # score: 130 seeded instances with pendant trees and subdivided edges,
    # each raw and kernelized by its mode's kernel, over a searched and a
    # BFS forest, in both modes (1040 instance-forest pairs).  Tables are
    # identical (keys, insertion order, scores and backpointers, the closed
    # choices merged into the chain) and so are witnesses
    pairs = 0
    engines = (
        (lfen_dp._BnslEngine, BnslEngineClosed, kernel.kernelize_bnsl),
        (lfen_dp._PlEngine, PlEngineClosed, kernel.kernelize_pl),
    )
    for seed in range(130):
        rng = random.Random(310_000 + seed)
        n = rng.randint(1, 24)
        inst = generate.random_nonzero(rng, n, rng.randint(0, 3), connected=(seed % 3 != 0),
                                       exact_fen=False, subdivisions=rng.randint(0, (n - 1) // 2),
                                       extra_sets=rng.choice([0, 0.3, 0.7]))
        for engine, closed_engine, kernelize in engines:
            for work in (inst, kernelize(inst).reduced):
                g = superstructure(work)
                for forest in (graphs.lfen_search(g).forest, graphs.feedback_edge_set(g)):
                    eng = engine(work, g, forest)
                    ref = closed_engine(work, g, forest)
                    assert eng.solve() == ref.solve()
                    for v in range(work.n):
                        assert list(eng.tables[v].items()) == one_chain_table(ref, v)
                    pairs += 1
    assert pairs == 1040
