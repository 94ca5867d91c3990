import random
import time
from collections import Counter

import pytest

from bnsl import generate, graphs, oracle, polytree, tw_dp
from bnsl.instances import AdditiveInstance, score_of, superstructure, validate
from reference import (
    exact_common_independent,
    weighted_matroid_intersection_pairwise,
)


def test_mst_triangle():
    inst = AdditiveInstance(
        3, ("a", "b", "c"), {(0, 1): 3, (0, 2): 2, (2, 1): 1}
    )
    # edge weights: ab=3, ac=2, bc=1 -> forest {ab, ac}
    s, net = polytree.solve_pl_additive_mst(inst)
    assert s == 5
    assert net.arcs == frozenset({(0, 1), (0, 2)})


def test_mst_empty():
    inst = AdditiveInstance(4, tuple("abcd"), {})
    s, net = polytree.solve_pl_additive_mst(inst)
    assert s == 0 and net.arcs == frozenset()


def test_mst_matches_oracle_random():
    for seed in range(200):
        rng = random.Random(seed)
        n = rng.randint(2, 8)
        inst = generate.random_additive(rng, n, rng.randint(0, 3),
                                        connected=(seed % 4 != 0), exact_fen=False)
        if superstructure(inst).edge_count() > 13:
            continue
        so, _ = oracle.exact_pl(inst)
        sm, net = polytree.solve_pl_additive_mst(inst)
        assert so == sm
        assert validate(net, "polytree").ok and score_of(inst, net) == sm


def test_mst_output_always_polytree():
    for seed in range(50):
        rng = random.Random(700 + seed)
        inst = generate.random_additive(rng, rng.randint(2, 10), rng.randint(0, 4),
                                        connected=False, exact_fen=False)
        _, net = polytree.solve_pl_additive_mst(inst)
        assert validate(net, "polytree").ok


def random_elements(rng, n, count):
    els = []
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    rng.shuffle(pairs)
    for a, b in pairs[:count]:
        els.append(polytree.GroundElement((a, b), rng.randint(1, 9)))
    return els


def test_intersection_single_element():
    oracles = polytree.MatroidOracles(2, 1)
    e = polytree.GroundElement((0, 1), 4)
    assert polytree.weighted_matroid_intersection([e], oracles) == [e]


def test_intersection_parallel_orientations():
    oracles = polytree.MatroidOracles(2, 2)
    e1 = polytree.GroundElement((0, 1), 2)
    e2 = polytree.GroundElement((1, 0), 3)
    got = polytree.weighted_matroid_intersection([e1, e2], oracles)
    assert got == [e2]


def test_intersection_matches_subset_oracle():
    for seed in range(120):
        rng = random.Random(3000 + seed)
        n = rng.randint(2, 6)
        q = rng.choice([1, 2, None])
        els = random_elements(rng, n, rng.randint(0, 12))
        oracles = polytree.MatroidOracles(n, q)
        got = polytree.weighted_matroid_intersection(els, oracles)
        assert oracles.graphic_independent(got)
        assert oracles.partition_independent(got)
        w_best, _ = exact_common_independent(els, oracles)
        assert sum(e.weight for e in got) == w_best


def test_intersection_stagewise_extremal():
    # the classical invariant: after augmenting to size k the set is
    # max-weight among all common independent sets of size k
    for seed in range(40):
        rng = random.Random(4000 + seed)
        n = rng.randint(2, 5)
        els = random_elements(rng, n, rng.randint(0, 10))
        oracles = polytree.MatroidOracles(n, 2)
        per = exact_common_independent(els, oracles, per_cardinality=True)
        got = polytree.weighted_matroid_intersection(els, oracles)
        w = sum(e.weight for e in got)
        assert w == max((v for v, _ in per.values()), default=0)


def test_matroid_axioms_spot_check():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randint(2, 6)
        els = random_elements(rng, n, rng.randint(0, 10))
        oracles = polytree.MatroidOracles(n, 2)
        for test in (oracles.graphic_independent, oracles.partition_independent):
            k = rng.randint(0, len(els))
            sub = rng.sample(els, k)
            if not test(sub):
                continue
            # downward closure
            if sub:
                smaller = rng.sample(sub, len(sub) - 1)
                assert test(smaller)
            # exchange: a larger independent set lends an element
            k2 = min(len(els), len(sub) + 1)
            for _ in range(20):
                cand = rng.sample(els, k2)
                if test(cand) and len(cand) > len(sub):
                    assert any(
                        test(sub + [x]) for x in cand if x not in sub
                    )
                    break


def test_bounded_matches_oracle_and_bag_dp():
    for seed in range(200):
        rng = random.Random(5000 + seed)
        n = rng.randint(2, 11)
        q = rng.choice([1, 2, 3])
        inst = generate.random_additive(rng, n, rng.randint(0, 3), q=q,
                                        connected=(seed % 4 != 0), exact_fen=False)
        if superstructure(inst).edge_count() > 13:
            continue
        so, _ = oracle.exact_pl(inst)
        sb, net = polytree.solve_pl_additive_bounded(inst)
        st, _ = tw_dp.solve_pl_additive_tw(inst)
        assert so == sb == st
        assert validate(net, "polytree", q=q).ok and score_of(inst, net) == sb


def test_bounded_q1_star():
    # all leaves point at the hub, but in-degree 1 admits only the best one;
    # the hub can still feed every other leaf
    arcs = {(1, 0): 5, (2, 0): 7, (3, 0): 6,
            (0, 1): 1, (0, 2): 2, (0, 3): 3}
    inst = AdditiveInstance(4, ("h", "x", "y", "z"), arcs, max_in_degree=1)
    s, net = polytree.solve_pl_additive_bounded(inst)
    so, _ = oracle.exact_pl(inst)
    assert s == so == 7 + 1 + 3  # y -> h, h -> x, h -> z
    assert validate(net, "polytree", q=1).ok


def test_bounded_large_q_agrees_with_mst():
    for seed in range(60):
        rng = random.Random(6000 + seed)
        n = rng.randint(2, 8)
        inst0 = generate.random_additive(rng, n, rng.randint(0, 3),
                                         exact_fen=False)
        inst = AdditiveInstance(inst0.n, inst0.names, inst0.arc_scores,
                                max_in_degree=max(1, n - 1))
        sm, _ = polytree.solve_pl_additive_mst(inst0)
        sb, _ = polytree.solve_pl_additive_bounded(inst)
        assert sm == sb


def test_bounded_requires_q():
    inst = AdditiveInstance(2, ("a", "b"), {(0, 1): 1})
    with pytest.raises(ValueError):
        polytree.solve_pl_additive_bounded(inst)


def parallel_elements(rng, n, count):
    """random_elements plus, for some of them, the reverse orientation."""
    els = random_elements(rng, n, count)
    for e in list(els):
        rev = (e.arc[1], e.arc[0])
        if rng.random() < 0.4 and all(f.arc != rev for f in els):
            els.append(polytree.GroundElement(rev, rng.randint(1, 9)))
    rng.shuffle(els)
    return els


def test_intersection_matches_pairwise_reference():
    for seed in range(320):
        rng = random.Random(12000 + seed)
        n = rng.randint(2, 9)
        q = (1, 2, 3, None)[seed % 4]
        els = parallel_elements(rng, n, rng.randint(0, 16))
        oracles = polytree.MatroidOracles(n, q)
        got = polytree.weighted_matroid_intersection(els, oracles)
        assert got == weighted_matroid_intersection_pairwise(els, oracles)


class CountingOracles:
    """MatroidOracles that tally queries by the size of the queried set."""

    def __init__(self, n, q):
        self.inner = polytree.MatroidOracles(n, q)
        self.by_size = Counter()

    def graphic_independent(self, elements):
        self.by_size[len(elements)] += 1
        return self.inner.graphic_independent(elements)

    def partition_independent(self, elements):
        self.by_size[len(elements)] += 1
        return self.inner.partition_independent(elements)


def test_intersection_oracle_calls_per_augmentation():
    # each augmentation grows the current set by one, so the queried sizes
    # tell the rounds apart: at most two queries per ground element a round
    for seed in range(40):
        rng = random.Random(13000 + seed)
        n = rng.randint(3, 10)
        els = parallel_elements(rng, n, rng.randint(5, 30))
        oracles = CountingOracles(n, rng.choice([1, 2, None]))
        polytree.weighted_matroid_intersection(els, oracles)
        assert max(oracles.by_size.values()) <= 2 * len(els)


def test_forest_answers_match_oracles_at_larger_m():
    # the forest-answered loop against the oracle-driven one and against the
    # loop that asks the oracles for every exchange arc, element for
    # element; weights in {1, 2} on a third of the sets force ties in
    # Bellman-Ford
    for seed in range(200):
        rng = random.Random(14000 + seed)
        n = rng.randint(9, 16)
        q = (1, 2, 3, None)[seed % 4]
        els = parallel_elements(rng, n, rng.randint(20, 45))[:60]
        if seed % 3 == 0:
            els = [polytree.GroundElement(e.arc, rng.choice((1, 2))) for e in els]
        got = polytree.weighted_matroid_intersection(els, q=q)
        oracles = polytree.MatroidOracles(n, q)
        assert got == polytree.weighted_matroid_intersection(els, oracles)
        assert got == weighted_matroid_intersection_pairwise(els, oracles)


def test_intersection_raises_when_bellman_ford_does_not_converge(monkeypatch):
    # every node at cost -1 makes the member <-> source-and-sink cycles of
    # the second round negative, so no pass count suffices
    monkeypatch.setattr(polytree, "_node_costs", lambda items, in_set: [-1] * len(items))
    els = [polytree.GroundElement((0, 1), 3),
           polytree.GroundElement((1, 2), 2)]
    with pytest.raises(RuntimeError, match="did not converge"):
        polytree.weighted_matroid_intersection(els, q=2)
    with pytest.raises(RuntimeError, match="did not converge"):
        polytree.weighted_matroid_intersection(els, polytree.MatroidOracles(3, 2))


def test_bounded_at_scale():
    # a near-tree with 594 candidate arcs, 63 on the folded 2-core: about
    # 0.02 s, 1 s unfolded, and about 30 s unfolded when Bellman-Ford
    # relaxed every dense exchange arc (shared 2-core VM)
    inst = generate.random_additive(random.Random(400), 400, 3, q=2)
    start = time.perf_counter()
    score, net = polytree.solve_pl_additive_bounded(inst)
    elapsed = time.perf_counter() - start
    td = graphs.tree_decomposition(superstructure(inst))
    reference, _ = tw_dp.solve_pl_additive_tw(inst, td)
    assert score == reference
    assert validate(net, "polytree", q=2).ok and score_of(inst, net) == score
    assert elapsed < 10.0, elapsed


def folded_cases():
    """Seeded instances for the folded matroid, q 1-3: every fifth a forest
    (no core), every fourth in several components."""
    for seed in range(330):
        rng = random.Random(15000 + seed)
        q = 1 + seed % 3
        n = rng.randint(2, 40)
        fen = 0 if seed % 5 == 0 else rng.randint(1, 4)
        yield q, generate.random_additive(rng, n, fen, q=q, connected=(seed % 4 != 0),
                                          exact_fen=False)


def test_folded_matches_unfolded_intersection():
    forests = tree_components = crowded = 0
    for q, inst in folded_cases():
        score, net = polytree.solve_pl_additive_bounded(inst)
        unfolded = polytree.weighted_matroid_intersection(polytree.arc_elements(inst), q=q)
        assert score == sum(e.weight for e in unfolded)
        assert validate(net, "polytree", q=q).ok and score_of(inst, net) == score
        fold = tw_dp.Fold(inst, superstructure(inst))
        forests += not fold.core
        tree_components += bool(fold.core and fold.roots)
        # a core vertex with more positive hanging gains than virtual arcs
        crowded += any(len(fold.hang[x][1]) > q for x in fold.bonus)
    assert forests >= 20 and tree_components >= 20 and crowded >= 20


def test_folded_ground_set_through_oracles():
    # the virtual arcs' leaves are n, n+1, ...: the oracles number the
    # vertices 0 .. n + #virtual - 1 and must give the forest answers
    virtual_total = 0
    for q, inst in folded_cases():
        elements = polytree.folded_elements(inst, tw_dp.Fold(inst, superstructure(inst)))
        virtual = sorted(e.arc[0] for e in elements if e.arc[0] >= inst.n)
        assert virtual == list(range(inst.n, inst.n + len(virtual)))
        oracles = polytree.MatroidOracles(inst.n + len(virtual), q)
        assert (polytree.weighted_matroid_intersection(elements, oracles)
                == polytree.weighted_matroid_intersection(elements, q=q))
        virtual_total += len(virtual)
    assert virtual_total >= 300


def test_folded_near_tree_at_scale():
    # gen --rep additive --n 1500 --fen 2 --max-parents 2 --seed 1: 2246
    # candidate arcs, 74 on the folded 31-vertex core; about 0.05 s.  A like
    # instance (2253 arcs, 65 on a 25-vertex core) took 16-21 s unfolded
    inst = generate.random_additive(1, 1500, 2, q=2)
    start = time.perf_counter()
    score, net = polytree.solve_pl_additive_bounded(inst)
    elapsed = time.perf_counter() - start
    assert score == tw_dp.solve_pl_additive_tw(inst)[0] == 7463
    assert validate(net, "polytree", q=2).ok and score_of(inst, net) == score
    assert elapsed < 5.0, elapsed
