"""Acceptance criteria.

Each test runs one criterion end to end at its stated tolerance (exact
equality everywhere) and prints a single pass line with its runtime; run
with `pytest tests/test_acceptance.py -s` to see the lines live.
"""

import random
import time

from bnsl import depset, generate, graphs, kernel, lfen_dp, oracle, polytree, tw_dp
from bnsl.instances import (
    parse_nonzero,
    score_of,
    superstructure,
    validate,
)

from conftest import EXAMPLE4
from reference import (
    WholeGraph,
    decided_snapshot_reference,
    exact_lfen,
    keep_whole,
    random_dag,
    reach_pairs,
    subtree_record_reference,
    unpruned_record_tables,
)


def report(number, label, t0, limit):
    elapsed = time.time() - t0
    print(f"criterion {number} ({label}): PASS in {elapsed:.2f}s "
          f"(budget {limit:.0f}s)")
    assert elapsed < limit, f"criterion {number} exceeded its {limit}s budget"


def planted_nonzero(seed, n_max, k_values):
    rng = random.Random(seed)
    k = rng.choice(k_values)
    base = max(3, k)
    while (base * (base - 1)) // 2 - (base - 1) < k:
        base += 1
    base = rng.randint(base, base + 2)
    n = rng.randint(base, n_max)
    return generate.random_nonzero(rng, n, k, subdivisions=max(0, n - base)), k


def test_criterion_1_worked_example():
    t0 = time.time()
    inst = parse_nonzero(EXAMPLE4)
    assert oracle.exact_bnsl(inst)[0] == 7
    assert lfen_dp.solve_bnsl_lfen(inst)[0] == 7
    res = kernel.kernelize_bnsl(inst)
    sr, netr = lfen_dp.solve_bnsl_lfen(res.reduced)
    assert sr == 7
    lifted = res.lift(netr)
    assert validate(lifted, "dag").ok and score_of(inst, lifted) == 7
    assert depset.solve_bnsl_depset(inst)[0] == 7
    report(1, "worked example, all four solvers", t0, 1)


def test_criterion_2_kernel_safeness_and_size():
    t0 = time.time()
    done, seed = 0, 0
    while done < 100:
        seed += 1
        try:
            inst, k = planted_nonzero(seed, 12, [1, 2, 3, 4])
        except ValueError:
            continue
        done += 1
        res = kernel.kernelize_bnsl(inst)
        assert res.reduced.n <= 16 * k
        so, _ = oracle.exact_bnsl(inst)
        sr, netr = oracle.exact_bnsl(res.reduced)
        assert sr == so
        lifted = res.lift(netr)
        assert validate(lifted, "dag").ok
        assert score_of(inst, lifted) == so
    report(2, "kernel safeness + 16k size, 100 planted instances", t0, 120)


def test_criterion_3_pl_kernel():
    t0 = time.time()
    done, seed = 0, 10_000
    while done < 100:
        seed += 1
        try:
            inst, k = planted_nonzero(seed, 8, [1, 2, 3, 4])
        except ValueError:
            continue
        if superstructure(inst).edge_count() > 13:
            continue
        done += 1
        res = kernel.kernelize_pl(inst)
        assert res.reduced.n <= 24 * k
        so, _ = oracle.exact_pl(inst)
        sr, netr = oracle.exact_pl(res.reduced)
        assert sr == so
        lifted = res.lift(netr)
        assert validate(lifted, "polytree").ok
        assert score_of(inst, lifted) == so
    report(3, "polytree kernel safeness + 24k size, 100 instances", t0, 120)


def test_criterion_4_record_dp():
    t0 = time.time()
    done, seed = 0, 20_000
    while done < 200:
        seed += 1
        rng = random.Random(seed)
        n = rng.randint(2, 10)
        inst = generate.random_nonzero(rng, n, rng.randint(0, 3), max_degree=4,
                                       connected=True, exact_fen=False)
        done += 1
        so, _ = oracle.exact_bnsl(inst)
        sd, net = lfen_dp.solve_bnsl_lfen(inst)
        assert sd == so
        assert validate(net, "dag").ok and score_of(inst, net) == sd
    report(4, "record DP = oracle, 200 connected instances", t0, 180)


def test_criterion_5_pl_record_dp():
    t0 = time.time()
    done, seed = 0, 30_000
    while done < 200:
        seed += 1
        rng = random.Random(seed)
        n = rng.randint(2, 8)
        inst = generate.random_nonzero(rng, n, rng.randint(0, 3),
                                       connected=(seed % 4 != 0), exact_fen=False)
        if superstructure(inst).edge_count() > 13:
            continue
        done += 1
        so, _ = oracle.exact_pl(inst)
        sd, net = lfen_dp.solve_pl_lfen(inst)
        assert sd == so
        assert validate(net, "polytree").ok and score_of(inst, net) == sd
    report(5, "polytree record DP = oracle, 200 instances", t0, 180)


def test_criterion_6_additive_bag_dp():
    t0 = time.time()
    done, seed = 0, 40_000
    while done < 200:
        seed += 1
        rng = random.Random(seed)
        n = rng.randint(2, 9)
        q = rng.choice([1, 2, 3, None])
        inst = generate.random_additive(rng, n, rng.randint(0, 4), q=q,
                                        connected=(seed % 4 != 0),
                                        exact_fen=False)
        done += 1
        so, _ = oracle.exact_bnsl(inst)
        sd, net = tw_dp.solve_bnsl_additive(inst)
        assert sd == so
        assert validate(net, "dag", q=q).ok and score_of(inst, net) == sd
    report(6, "additive bag DP = oracle, 200 instances, q in {1,2,3,inf}", t0, 180)


def test_criterion_7_polytree_polynomial_solvers():
    t0 = time.time()
    done, seed = 0, 50_000
    while done < 200:
        seed += 1
        rng = random.Random(seed)
        n = rng.randint(2, 8)
        q = rng.choice([1, 2, 3, None])
        inst = generate.random_additive(rng, n, rng.randint(0, 3), q=q,
                                        connected=(seed % 4 != 0),
                                        exact_fen=False)
        if superstructure(inst).edge_count() > 13:
            continue
        done += 1
        so, _ = oracle.exact_pl(inst)
        if q is None:
            sm, net = polytree.solve_pl_additive_mst(inst)
            assert sm == so
            assert validate(net, "polytree").ok
        else:
            sb, net = polytree.solve_pl_additive_bounded(inst)
            st, _ = tw_dp.solve_pl_additive_tw(inst)
            assert sb == so and st == sb
            assert validate(net, "polytree", q=q).ok
            assert score_of(inst, net) == sb
    report(7, "spanning forest + matroid intersection = oracle = bag DP", t0, 180)


def test_criterion_8_dependent_vertex_branching():
    t0 = time.time()
    done, seed = 0, 60_000
    while done < 200:
        seed += 1
        rng = random.Random(seed)
        inst = generate.random_limited_dependents(rng, rng.randint(2, 9),
                                                  rng.randint(1, 4))
        if len(depset.dependent_vertices(inst)) > 4:
            continue
        done += 1
        so, _ = oracle.exact_bnsl(inst)
        sd, net = depset.solve_bnsl_depset(inst)
        assert sd == so
        assert validate(net, "dag").ok and score_of(inst, net) == sd
    report(8, "dependent-vertex branching = oracle, 200 instances", t0, 120)


def test_criterion_9_parameter_hierarchy():
    t0 = time.time()
    done, seed = 0, 70_000
    while done < 100:
        seed += 1
        rng = random.Random(seed)
        n = rng.randint(2, 8)
        g = generate.random_graph(rng, n, rng.randint(0, 4),
                                  connected=(seed % 3 != 0), exact_fen=False)
        done += 1
        fen = len(graphs.feedback_edge_set(g).feedback_edges)
        exact, _ = exact_lfen(g)
        assert exact <= fen
        search = graphs.lfen_search(g, budget=rng.choice([2, 20_000]))
        assert search.value >= exact
        assert search.value <= fen
        if search.exact:
            assert search.value == exact
    report(9, "local feedback <= feedback; search bounds exact", t0, 60)


def test_criterion_10_record_and_snapshot_semantics():
    t0 = time.time()
    # 20 explicit-representation instances: every stored record equals the
    # enumerated best over the subtree's partial solutions
    for seed in range(20):
        rng = random.Random(80_000 + seed)
        n = rng.randint(3, 8)
        inst = generate.random_nonzero(rng, n, rng.randint(1, 2),
                                       max_degree=3, extra_sets=0.25,
                                       exact_fen=False)
        g = superstructure(inst)
        forest = graphs.lfen_search(g).forest
        tables, eng = unpruned_record_tables(inst, forest)
        bounds = lfen_dp.boundaries(g, forest)
        children = forest.children_lists()
        subtree = {}
        for v in _postorder(forest):
            s = {v}
            for c in children[v]:
                s |= subtree[c]
            subtree[v] = s
        for v in range(inst.n):
            want = subtree_record_reference(inst, subtree[v], bounds[v].delta)
            assert tables[v] == want
    # 10 additive instances: every snapshot the shipped bag DP stores
    # (unpruned, over the whole superstructure) equals the enumerated best
    # over networks on the edges decided below the node
    for seed in range(10):
        rng = random.Random(81_000 + seed)
        n = rng.randint(3, 7)
        q = rng.choice([None, 2])
        inst = generate.random_additive(rng, n, rng.randint(0, 2), q=q,
                                        exact_fen=False)
        td = graphs.tree_decomposition(superstructure(inst))
        eng = keep_whole(tw_dp._TwEngine)(inst, td, "bnsl", WholeGraph(inst))
        eng.run_tables()
        below = {}
        for t in td.postorder():
            s = set(td.nodes[t].bag)
            for c in td.nodes[t].children:
                s |= below[c]
            below[t] = s
        for t in td.postorder():
            want = decided_snapshot_reference(inst, below[t], td.nodes[t].bag, q, "bnsl")
            assert eng.records(t) == want
    report(10, "stored records/snapshots witnessed and maximal, 30 instances",
           t0, 300)


def _postorder(forest):
    children = forest.children_lists()
    order = []
    for r in forest.roots:
        stack = [(r, False)]
        while stack:
            v, done = stack.pop()
            if done:
                order.append(v)
            else:
                stack.append((v, True))
                stack.extend((c, False) for c in children[v])
    return order


def test_criterion_11_union_acyclicity():
    t0 = time.time()
    both = [0, 0]
    for seed in range(1000):
        rng = random.Random(seed)
        n = rng.randint(2, 7)
        d1 = random_dag(rng, n, prob=0.4)
        d2 = random_dag(rng, n, prob=0.4)
        con1 = reach_pairs(range(n), d1.arcs)
        con2 = reach_pairs(range(n), d2.arcs)
        closure = reach_pairs(range(n), con1 | con2)
        irreflexive = not any(u == v for u, v in closure)
        union_arcs = d1.arcs | d2.arcs
        union_acyclic = validate(type(d1)(n, union_arcs), "dag").ok
        assert irreflexive == union_acyclic
        both[union_acyclic] += 1
    assert min(both) > 50  # both outcomes exercised
    report(11, "union of two partial networks acyclic iff closure irreflexive",
           t0, 30)
