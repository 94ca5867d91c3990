import hashlib
import random

from bnsl import cli, generate, graphs, kernel, lfen_dp, oracle, relations
from bnsl.instances import parse_nonzero, score_of, superstructure, validate

from conftest import KERNEL_SLOTS, benchmark_instance, benchmark_kernel
from reference import (
    BnslEngineFullClosure,
    bnsl_glue_closed_union,
    classes,
    closure,
    from_pairs,
    irreflexive,
    keep_whole,
    pl_glue_class_count,
    random_dag,
    reach_pairs,
    same_class,
    subtree_pl_record_reference,
    subtree_record_reference,
    to_pairs,
    unpack,
    unpruned_pl_record_tables,
    unpruned_record_tables,
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
    recs = unpruned_record_tables(inst, forest)[0][leaf]
    assert recs[frozenset()] == 0


def test_leaf_records_single_parent():
    inst = parse_nonzero("2\nu 0\nv 1\n5 1 u\n")
    forest = witness_forest(inst)
    children = forest.children_lists()
    tables, _ = unpruned_record_tables(inst, forest)
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
        tables, _ = unpruned_record_tables(inst, forest)
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
    recs = unpruned_record_tables(inst, forest)[0][hub]
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


def record_family(mode):
    """The seeded family the record DP's tables and witnesses are checked
    on in `mode` ("bnsl" or "pl"): 100 instances of at most 8 vertices,
    disconnected every fourth, with pendant trees and subdivided edges,
    scored up to 2 every third (many ties); each raw and kernelized by its
    mode's kernel, as (instance, superstructure, (searched forest, BFS
    forest))."""
    kernelize = kernel.kernelize_pl if mode == "pl" else kernel.kernelize_bnsl
    for seed in range(100):
        rng = random.Random(f"record-family:{seed}")
        n = rng.randint(1, 8)
        inst = generate.random_nonzero(rng, n, rng.randint(0, 3), 2 if seed % 3 == 0 else 8,
                                       connected=seed % 4 != 0, exact_fen=False,
                                       subdivisions=rng.randint(0, (n - 1) // 2),
                                       extra_sets=rng.choice([0, 0.3, 0.7]))
        for work in (inst, kernelize(inst).reduced):
            g = superstructure(work)
            yield work, g, (graphs.lfen_search(g).forest, graphs.feedback_edge_set(g))


def check_tables_by_brute_force(mode, tables_of, reference, delta_of):
    """Fill `tables_of` (an unpruned engine's tables) on `record_family(mode)`
    and compare each vertex's table with `reference` on its subtree and
    `delta_of` its boundary; the number of tables compared."""
    checked = 0
    for work, g, forests in record_family(mode):
        want = {}  # the two forests share subtrees, the roots' at least
        for forest in forests:
            tables, _ = tables_of(work, forest)
            subtrees = subtree_sets(forest)
            bounds = lfen_dp.boundaries(g, forest)
            k = graphs.lfen_of_tree(g, forest).value
            for v in range(work.n):
                key = (frozenset(subtrees[v]), delta_of(bounds[v]))
                if key not in want:
                    want[key] = reference(work, *key)
                assert tables[v] == want[key]
                assert len(tables[v]) <= 2 ** ((2 * k + 2) ** 2)
                checked += 1
    return checked


def test_record_tables_witnessed_and_maximal():
    # every acyclic record table the engine fills, unpruned, is the best
    # score per record over every parent-set choice in the subtree
    checked = check_tables_by_brute_force("bnsl", unpruned_record_tables,
                                          subtree_record_reference, lambda b: b.delta)
    assert checked > 1400, checked


def test_root_table_single_record():
    for seed in range(20):
        rng = random.Random(500 + seed)
        inst = generate.random_nonzero(rng, rng.randint(2, 8), rng.randint(0, 2),
                                       exact_fen=False)
        tables, eng = unpruned_record_tables(inst)
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
    # the same for the polytree record tables
    checked = check_tables_by_brute_force("pl", unpruned_pl_record_tables,
                                          subtree_pl_record_reference, lambda b: b.delta_in)
    assert checked > 1400, checked


def test_supplied_tree_is_respected(example4):
    g = superstructure(example4)
    a, b, c, d = range(4)
    forest = graphs.forest_from_edges(g, frozenset({(a, b), (b, d), (c, d)}))
    score, net = lfen_dp.solve_bnsl_lfen(example4, forest)
    assert score == 7


# sha256 of the witnesses the solvers return on `record_family`, one line
# "score sorted-arcs" per instance and forest, taken when every score was
# checked equal to the exhaustive oracle's: a change that picks another
# optimal network on a tie changes them, and must say why
WITNESS_DIGESTS = {
    "bnsl": "f86b77c551c27f2b98bd6f54b29629bb4e493a9345f8fd35ea74fdd5fcd6dcf2",
    "pl": "ba4475fb4999763668a04e77f08ee1f21c555e70bb7aedca62c2a21cd33db27e",
}


def test_witnesses_match_pinned_digests():
    solvers = {"bnsl": (lfen_dp.solve_bnsl_lfen, "dag"),
               "pl": (lfen_dp.solve_pl_lfen, "polytree")}
    for mode, (solve, kind) in solvers.items():
        digest = hashlib.sha256()
        for work, _, forests in record_family(mode):
            for forest in forests:
                score, net = solve(work, forest)
                assert validate(net, kind).ok and score_of(work, net) == score
                digest.update(f"{score} {sorted(net.arcs)}\n".encode())
        assert digest.hexdigest() == WITNESS_DIGESTS[mode], mode


def test_tables_match_full_closure_at_kernel_scale():
    # the kernels of the benchmark's explicit slots (`KERNEL_SLOTS`, the
    # acyclic kernel of each), seeds 1-7, both rounds, drawn as
    # perfbench/ladders.py draws them, over the witness tree the CLI
    # searches: the glue that pivots only on the shared support, after its
    # 2-cycle reject, gives the tables of the full Warshall closure on row
    # lists, in insertion order with their backpointers, and the same solve
    for seed in range(1, 8):
        for rnd in range(2):
            for workload, k in KERNEL_SLOTS:
                red, forest = benchmark_kernel(workload, seed, rnd, k, "bnsl")
                ref = keep_whole(BnslEngineFullClosure)(red, superstructure(red), forest)
                assert lfen_dp.solve_bnsl_lfen(red, forest) == ref.solve()
                _, eng = unpruned_record_tables(red, forest)
                for v in range(red.n):
                    assert row_table(eng, v) == row_table(ref, v)


def random_strict_order(rng, d, planted=()):
    """A strict partial order on range(d), packed: the `planted` pairs,
    which share no index, and random pairs along a random linear order of
    the indices that agrees with them, closed."""
    order = rng.sample(range(d), d)
    for x, y in planted:
        i, j = order.index(x), order.index(y)
        if i > j:
            order[i], order[j] = y, x
    rows = [0] * d
    for x, y in planted:
        rows[x] |= 1 << y
    for _ in range(rng.randint(0, d) if d > 1 else 0):
        i, j = sorted(rng.sample(range(d), 2))
        rows[order[i]] |= 1 << order[j]
    return relations.pack(closure(rows), d)


def random_pl_state(rng, d, outs):
    """A polytree engine state on range(d): the same-class pairs of a random
    partition of the inner indices, and arcs from some of the `outs` rows
    into inner indices; every fourth one an irreflexive random relation."""
    if rng.random() < 0.25:
        diagonal = sum(1 << (d - 1 - i) * d + i for i in range(d))
        return rng.getrandbits(d * d) & rng.getrandbits(d * d) & ~diagonal
    inner = [x for x in range(d) if x not in outs]
    rng.shuffle(inner)
    parts, at = [], 0
    while at < len(inner):
        k = rng.randint(1, 3)
        parts.append(sum(1 << x for x in inner[at:at + k]))
        at += k
    parts += [1 << x for x in outs]
    m = relations.class_rows(parts, d)
    for x in outs:
        if inner and rng.random() < 0.5:
            m |= 1 << (d - 1 - x) * d + rng.choice(inner)
    return m


def test_cycle_rejects_agree_with_the_full_glues_on_random_relations():
    # each engine's glue with its cheap reject against the glue without it
    # (the acyclic one closing every union, the polytree one counting the
    # classes of every union): the same None or the same int on operands
    # made by the engine's `operand` over d <= 12 indices.  Acyclic
    # operands are strict partial orders along two random linear orders,
    # so many unions close a cycle, some only through four or more indices
    tally = {"two": 0, "longer": 0, "closed": 0}
    for seed in range(3000):
        rng = random.Random(f"reject:{seed}")
        d = rng.randint(1, 12)
        outside = relations.pack((rng.choice([0, (1 << d) - 1]) for _ in range(d)), d)
        # half of the pairs get a ring of 4 to 12 indices whose pairs
        # alternate between the operands
        ring = rng.sample(range(d), d // 2 * 2) if d >= 4 and seed % 2 else []
        planted = (list(zip(ring[0::2], ring[1::2])), list(zip(ring[1::2], ring[2::2] + ring[:1])))
        held, cheld = (lfen_dp._BnslEngine.operand(random_strict_order(rng, d, pairs), d)
                       for pairs in planted)
        got = lfen_dp._BnslEngine.glue(held, cheld, outside, d)
        assert got == bnsl_glue_closed_union(held, cheld, outside, d)
        kind = "closed" if got is not None else "two" if held[0] & cheld[2] else "longer"
        tally[kind] += 1
    assert tally["two"] > 1000 and tally["longer"] > 50 and tally["closed"] > 1000, tally
    tally = {"shared": 0, "count": 0, "forest": 0}
    for seed in range(3000):
        rng = random.Random(f"pl-reject:{seed}")
        d = rng.randint(1, 12)
        outs = set(rng.sample(range(d), rng.randint(0, d // 2)))
        outside = relations.pack(((1 << d) - 1 if x in outs else 0 for x in range(d)), d)
        held, cheld = (lfen_dp._PlEngine.operand(random_pl_state(rng, d, outs), d)
                       for _ in range(2))
        got = lfen_dp._PlEngine.glue(held, cheld, outside, d)
        assert got == pl_glue_class_count(held, cheld, outside, d)
        kind = "forest" if got is not None else "shared" if held[0] & cheld[0] else "count"
        tally[kind] += 1
    assert min(tally.values()) > 300, tally


def checked_engine(engine, plain, cheap, tally):
    """`engine` whose glue also runs `plain` on every pair and asserts the
    same result; `tally` counts the pairs, those `cheap` rejects, and the
    other rejected ones."""

    class Checked(engine):
        def glue(self, held, cheld, outside, d):
            got = engine.glue(held, cheld, outside, d)
            assert got == plain(held, cheld, outside, d)
            tally["pairs"] += 1
            if got is None:
                tally["cheap" if cheap(held, cheld) else "other"] += 1
            return got

    return Checked


def test_cycle_rejects_agree_with_the_full_glues_on_benchmark_kernels():
    # the kernels of the dag-explicit benchmark's subdivided slots and of
    # the polytree benchmark's explicit slots, seeds 1-6 but 4 (whose
    # polytree kernels glue 5.3 million pairs, 45 times the others' sum),
    # both rounds, drawn as perfbench/ladders.py draws them, through each
    # mode's kernel and record DP over the witness tree the CLI searches:
    # every glued pair gives what the glue without its cheap reject gives
    modes = (
        (lfen_dp._BnslEngine, bnsl_glue_closed_union, lambda h, c: h[0] & c[2], "bnsl"),
        (lfen_dp._PlEngine, pl_glue_class_count, lambda h, c: h[0] & c[0], "pl"),
    )
    tallies = []
    for engine, plain, cheap, mode in modes:
        tally = {"pairs": 0, "cheap": 0, "other": 0}
        for seed in (1, 2, 3, 5, 6):
            for rnd in range(2):
                for workload, k in KERNEL_SLOTS:
                    red, forest = benchmark_kernel(workload, seed, rnd, k, mode)
                    eng = keep_whole(checked_engine(engine, plain, cheap, tally))(
                        red, superstructure(red), forest)
                    eng.solve()
        tallies.append(tally)
    bnsl, pl = tallies
    assert bnsl["cheap"] > 50_000 and pl["cheap"] > 100_000, tallies


def test_pruned_solves_match_oracle():
    # the solves, which drop dominated records, against the exhaustive
    # oracles in both modes over the searched and the BFS forest: the same
    # optimum and a valid witness that scores it.  Some tables must lose
    # records to the prune, or the test shows nothing
    cases = shrunk = 0
    for seed in range(320):
        rng = random.Random(f"prune-oracle:{seed}")
        n = rng.randint(2, 9)
        inst = generate.random_nonzero(rng, n, rng.randint(0, 3), max_degree=4,
                                       connected=(seed % 4 != 0), exact_fen=False,
                                       extra_sets=rng.choice([0, 0.3, 0.6]))
        g = superstructure(inst)
        best, _ = oracle.exact_bnsl(inst)
        pl_best = oracle.exact_pl(inst)[0] if g.edge_count() <= 13 else None
        for forest in (graphs.lfen_search(g).forest, graphs.feedback_edge_set(g)):
            score, net = lfen_dp.solve_bnsl_lfen(inst, forest)
            assert score == best
            assert validate(net, "dag").ok and score_of(inst, net) == best
            if pl_best is not None:
                score, net = lfen_dp.solve_pl_lfen(inst, forest)
                assert score == pl_best
                assert validate(net, "polytree").ok and score_of(inst, net) == pl_best
            shrunk += check_prune(lfen_dp._BnslEngine, inst, g, forest) > 0
            cases += 1
    assert cases == 640 and shrunk > 100, shrunk


def undominated(table):
    """The items of a record table that no other item dominates (a subset
    key, read as a pair set, with a score at least as high), in order."""
    return [(key, entry) for key, entry in table.items()
            if not any(other != key and not other & ~key and table[other][0] >= entry[0]
                       for other in table)]


def check_prune(engine, work, g, forest):
    """Fill a pruned `engine` on `work`, checking that each table it keeps is
    the undominated part of the table its fold made, in insertion order;
    the number of records dropped."""
    made = {}

    class Recording(engine):
        def combine_records(self, v):
            made[v] = table = engine.combine_records(self, v)
            return table

    eng = Recording(work, g, forest)
    eng.fill()
    for v in range(work.n):
        assert list(eng.tables[v].items()) == undominated(made[v])
    return sum(len(made[v]) - len(eng.tables[v]) for v in range(work.n))


def test_pruned_tables_are_the_undominated_records():
    # the dag-explicit benchmark's kernels of seeds 1-7 (drawn as in
    # test_tables_match_full_closure_at_kernel_scale) and 1040
    # instance-forest pairs: 130 seeded instances of up to 24 vertices with
    # pendant trees and subdivided edges, each raw and kernelized by its
    # mode's kernel, over a searched and a BFS forest, in both modes
    dropped = 0
    for seed in range(1, 8):
        for rnd in range(2):
            for workload, k in KERNEL_SLOTS:
                if workload != "dag-explicit":
                    continue
                red, forest = benchmark_kernel(workload, seed, rnd, k, "bnsl")
                dropped += check_prune(lfen_dp._BnslEngine, red, superstructure(red), forest)
    assert dropped > 1000, dropped
    pairs = {lfen_dp._BnslEngine: 0, lfen_dp._PlEngine: 0}
    dropped = dict.fromkeys(pairs, 0)
    for seed in range(130):
        rng = random.Random(310_000 + seed)
        n = rng.randint(1, 24)
        inst = generate.random_nonzero(rng, n, rng.randint(0, 3), connected=(seed % 3 != 0),
                                       exact_fen=False, subdivisions=rng.randint(0, (n - 1) // 2),
                                       extra_sets=rng.choice([0, 0.3, 0.7]))
        for engine, kernelize in ((lfen_dp._BnslEngine, kernel.kernelize_bnsl),
                                  (lfen_dp._PlEngine, kernel.kernelize_pl)):
            for work in (inst, kernelize(inst).reduced):
                g = superstructure(work)
                for forest in (graphs.lfen_search(g).forest, graphs.feedback_edge_set(g)):
                    dropped[engine] += check_prune(engine, work, g, forest)
                    pairs[engine] += 1
    assert sum(pairs.values()) == 1040 and min(dropped.values()) > 100, dropped


def random_subset_order(rng, m, d):
    """A strict partial order inside the strict partial order `m` on
    range(d): the closure of a random subset of its pairs."""
    return relations.pack(closure(unpack(m & rng.getrandbits(d * d), d)), d)


def test_glues_are_monotone_in_the_key():
    # what the prune's proof uses: with a' a subset of a, the glue of a'
    # and b fails only where that of a and b fails, and is then a subset
    # of it, with a' on either side.  Acyclic keys are strict partial
    # orders, checked through closed_union alone and through the glue;
    # polytree operands are any irreflexive relations and their subsets
    tally = {"bnsl": 0, "pl": 0}
    for seed in range(3000):
        rng = random.Random(f"monotone:{seed}")
        d = rng.randint(1, 12)
        outs = set(rng.sample(range(d), rng.randint(0, d // 2)))
        outside = relations.pack(((1 << d) - 1 if x in outs else 0 for x in range(d)), d)
        a, b = random_strict_order(rng, d), random_strict_order(rng, d)
        sub = random_subset_order(rng, a, d)
        assert not sub & ~a
        sup_b = relations.support(b, d)
        whole = relations.closed_union(a, b, relations.support(a, d) & sup_b, d)
        part = relations.closed_union(sub, b, relations.support(sub, d) & sup_b, d)
        assert whole is None or part is not None and not part & ~whole
        op = lfen_dp._BnslEngine.operand
        for x, y, x1, y1 in ((a, b, sub, b), (b, a, b, sub)):
            whole = lfen_dp._BnslEngine.glue(op(x, d), op(y, d), outside, d)
            part = lfen_dp._BnslEngine.glue(op(x1, d), op(y1, d), outside, d)
            assert whole is None or part is not None and not part & ~whole
            tally["bnsl"] += whole is not None and part != whole
        a, b = random_pl_state(rng, d, outs), random_pl_state(rng, d, outs)
        sub = a & rng.getrandbits(d * d)
        op = lfen_dp._PlEngine.operand
        for x, y, x1, y1 in ((a, b, sub, b), (b, a, b, sub)):
            whole = lfen_dp._PlEngine.glue(op(x, d), op(y, d), outside, d)
            part = lfen_dp._PlEngine.glue(op(x1, d), op(y1, d), outside, d)
            assert whole is None or part is not None and not part & ~whole
            tally["pl"] += whole is not None and part != whole
    assert tally["bnsl"] > 1000 and tally["pl"] > 200, tally


def test_record_tables_are_the_solvers_tables(monkeypatch):
    # the kernels of the explicit slots of the dag-explicit and polytree
    # benchmarks, seeds 1-3, both rounds, drawn as perfbench/ladders.py
    # draws them, over the witness tree the CLI searches: `record_tables`
    # and `pl_record_tables` return the tables that the solver's own engine
    # fills, in insertion order, and the engine they return solves the
    # same.  The n=1500 near-tree slot is left out (`KERNEL_SLOTS`).  Each slot
    # drawn through the ladder is the explicit instance of its sizes
    filled = []
    original = lfen_dp._RecordEngine.fill

    def fill(self):
        filled.append(self)
        original(self)

    monkeypatch.setattr(lfen_dp._RecordEngine, "fill", fill)
    sizes = ((60, 5, 40), (200, 3, 150), (800, 1, 700), (200, 1, 150), (800, 1, 700))
    for (workload, k), (n, fen, sub) in zip(KERNEL_SLOTS, sizes):
        rng = random.Random(f"{workload}:1:0:{k}")
        want = generate.random_nonzero(rng, n, fen, subdivisions=sub)
        assert benchmark_instance(workload, 1, 0, k) == want
    modes = {"dag-explicit": ("bnsl", lfen_dp.solve_bnsl_lfen, lfen_dp.record_tables),
             "polytree": ("pl", lfen_dp.solve_pl_lfen, lfen_dp.pl_record_tables)}
    dropped = 0
    for seed in range(1, 4):
        for rnd in range(2):
            for workload, k in KERNEL_SLOTS:
                mode, solve, tables_of = modes[workload]
                red, forest = benchmark_kernel(workload, seed, rnd, k, mode)
                filled.clear()
                solved = solve(red, forest)
                (eng,) = filled
                tables, ref = tables_of(red, forest)
                assert type(ref) is type(eng) and ref.solve() == solved
                for v in range(red.n):
                    assert list(tables[v].items()) == list(eng.records(v).items())
                whole, _ = unpruned_record_tables(red, forest, type(eng))
                dropped += sum(map(len, whole.values())) - sum(map(len, tables.values()))
    assert dropped > 1000, dropped
