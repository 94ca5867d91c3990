import random

import pytest

from bnsl import generate, graphs, lfen_dp, oracle, tw_dp
from bnsl.instances import (
    AdditiveInstance,
    score_of,
    superstructure,
    to_nonzero,
    validate,
)

from reference import TwEngineDicts, snapshot_reference, snapshot_tables_dicts


def below_sets(td):
    out = {}
    for t in td.postorder():
        node = td.nodes[t]
        s = set(node.bag)
        for c in node.children:
            s |= out[c]
        out[t] = s
    return out


def test_leaf_table():
    inst = AdditiveInstance(2, ("a", "b"), {(0, 1): 3}, max_in_degree=1)
    tables, td = tw_dp.snapshot_tables(inst)
    for t in td.postorder():
        if td.nodes[t].kind == "leaf":
            (v,) = td.nodes[t].bag
            assert tables[t] == {(frozenset(), frozenset(), ((v, 0),)): 0}


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


def test_bnsl_matches_oracle_random():
    for seed in range(200):
        rng = random.Random(50_000 + seed)
        n = rng.randint(2, 9)
        q = rng.choice([None, 1, 2, 3])
        inst = generate.random_additive(rng, n, rng.randint(0, 4), q=q,
                                        connected=(seed % 4 != 0), exact_fen=False)
        so, _ = oracle.exact_bnsl(inst)
        sd, net = tw_dp.solve_bnsl_additive(inst)
        assert so == sd
        assert validate(net, "dag", q=q).ok and score_of(inst, net) == sd


def test_pl_matches_oracle_random():
    for seed in range(150):
        rng = random.Random(60_000 + seed)
        n = rng.randint(2, 8)
        q = rng.choice([1, 2, 3])
        inst = generate.random_additive(rng, n, rng.randint(0, 3), q=q,
                                        connected=(seed % 4 != 0), exact_fen=False)
        if superstructure(inst).edge_count() > 13:
            continue
        so, _ = oracle.exact_pl(inst)
        sd, net = tw_dp.solve_pl_additive_tw(inst)
        assert so == sd
        assert validate(net, "polytree", q=q).ok and score_of(inst, net) == sd


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
        tables, td = tw_dp.snapshot_tables(inst, "bnsl")
        below = below_sets(td)
        for t in td.postorder():
            want = snapshot_reference(inst, below[t], td.nodes[t].bag, q, "bnsl")
            assert tables[t] == want


def test_pl_snapshots_witnessed_and_maximal():
    for seed in range(8):
        rng = random.Random(90_000 + seed)
        n = rng.randint(3, 7)
        inst = generate.random_additive(rng, n, rng.randint(0, 2), q=2,
                                        exact_fen=False)
        tables, td = tw_dp.snapshot_tables(inst, "pl")
        below = below_sets(td)
        for t in td.postorder():
            want = snapshot_reference(inst, below[t], td.nodes[t].bag, 2, "pl")
            assert tables[t] == want


def test_root_snapshot_single_key():
    for seed in range(20):
        rng = random.Random(95_000 + seed)
        inst = generate.random_additive(rng, rng.randint(2, 8), rng.randint(0, 2),
                                        q=rng.choice([None, 2]), exact_fen=False)
        tables, td = tw_dp.snapshot_tables(inst, "bnsl")
        assert list(tables[td.root]) == [(frozenset(), frozenset(), ())]
        so, _ = oracle.exact_bnsl(inst)
        assert tables[td.root][(frozenset(), frozenset(), ())] == so


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
    td = graphs.tree_decomposition(superstructure(inst), exact=True)
    s, _ = tw_dp.solve_bnsl_additive(inst, td)
    assert s == 5


def test_tables_and_witness_match_dict_engine():
    # every node table, insertion order included, and the witness network
    # equal those of the engine with per-state in-degree dicts
    for seed in range(300):
        rng = random.Random(120_000 + seed)
        q = rng.choice([None, 1, 2, 3])
        inst = generate.random_additive(rng, rng.randint(1, 11), rng.randint(0, 4), q=q,
                                        connected=(seed % 3 != 0), exact_fen=False)
        td = graphs.tree_decomposition(superstructure(inst))
        for mode in ("bnsl",) if q is None else ("bnsl", "pl"):
            tables, _ = tw_dp.snapshot_tables(inst, mode, td)
            want = snapshot_tables_dicts(inst, mode, td)
            assert list(tables) == list(want)
            for t, table in tables.items():
                assert list(table.items()) == list(want[t].items())
            unpruned = tw_dp._TwEngine(inst, td, mode, q, prune=False)
            assert unpruned.solve() == TwEngineDicts(inst, td, mode, q).solve()


def dominates(a, b) -> bool:
    """Entry a = (key, score) dominates entry b: same loc, a score at least
    b's, con a subset of b's row by row, inn no larger at any position."""
    (loc1, con1, inn1), s1 = a
    (loc2, con2, inn2), s2 = b
    return (loc1 == loc2 and s1 >= s2 and all(x | y == y for x, y in zip(con1, con2))
            and all(x <= y for x, y in zip(inn1, inn2)))


def test_pruned_tables_keep_the_undominated_entries():
    # on the seeds above: at every node the pruned table holds exactly the
    # entries of the unpruned one that no other entry dominates, with their
    # scores; the optimum is the unpruned one and the witness scores it
    # (ties may pick another witness than the unpruned engine)
    for seed in range(300):
        rng = random.Random(120_000 + seed)
        q = rng.choice([None, 1, 2, 3])
        inst = generate.random_additive(rng, rng.randint(1, 11), rng.randint(0, 4), q=q,
                                        connected=(seed % 3 != 0), exact_fen=False)
        td = graphs.tree_decomposition(superstructure(inst))
        for mode in ("bnsl",) if q is None else ("bnsl", "pl"):
            pruned = tw_dp._TwEngine(inst, td, mode, q)
            unpruned = tw_dp._TwEngine(inst, td, mode, q, prune=False)
            score, net = pruned.solve()
            full_score, _ = unpruned.solve()
            for t, table in unpruned.tables.items():
                kept = {key: entry[0] for key, entry in pruned.tables[t].items()}
                entries = [(key, entry[0]) for key, entry in table.items()]
                undominated = {key: s for key, s in entries if not any(
                    other != key and dominates((other, s2), (key, s)) for other, s2 in entries)}
                assert kept == undominated
                for entry in entries:
                    assert entry[0] in kept or any(dominates(k, entry) for k in kept.items())
            assert score == full_score
            assert validate(net, "polytree" if mode == "pl" else "dag", q=q).ok
            assert score_of(inst, net) == score
