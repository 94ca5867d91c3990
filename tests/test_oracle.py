import random

import pytest

from bnsl import generate, oracle
from bnsl.instances import (
    AdditiveInstance,
    NonZeroInstance,
    parse_nonzero,
    score_of,
    superstructure,
    validate,
)
from reference import exact_common_independent, exact_lfen


def test_example_optimum(example4):
    s, net = oracle.exact_bnsl(example4)
    assert s == 7
    assert validate(net, "dag").ok and score_of(example4, net) == 7


def test_empty_family():
    inst = parse_nonzero("3\na 0\nb 0\nc 0\n")
    assert oracle.exact_bnsl(inst)[0] == 0
    assert oracle.exact_pl(inst)[0] == 0


def test_two_vertex_orientation_conflict():
    inst = parse_nonzero("2\na 1\n2 1 b\nb 1\n3 1 a\n")
    s, net = oracle.exact_bnsl(inst)
    assert s == 3 and net.arcs == frozenset({(0, 1)})


def test_size_limit():
    inst = NonZeroInstance(21, tuple(f"v{i}" for i in range(21)), {})
    with pytest.raises(oracle.OracleLimitError):
        oracle.exact_bnsl(inst)


def test_monotone_under_added_entries():
    for seed in range(40):
        rng = random.Random(seed)
        inst = generate.random_nonzero(rng, rng.randint(2, 8), 1,
                                       connected=False, exact_fen=False)
        base, _ = oracle.exact_bnsl(inst)
        g = superstructure(inst)
        v = rng.randrange(inst.n)
        nbrs = sorted(g.adj[v]) or [u for u in range(inst.n) if u != v]
        extra = frozenset(rng.sample(nbrs, min(len(nbrs), rng.randint(1, 2))))
        entries = {u: dict(sets) for u, sets in inst.entries.items()}
        entries.setdefault(v, {})
        if extra not in entries[v]:
            entries[v][extra] = rng.randint(1, 20)
            richer = NonZeroInstance(inst.n, inst.names, entries)
            assert oracle.exact_bnsl(richer)[0] >= base


def test_pl_single_edge():
    inst = AdditiveInstance(2, ("a", "b"), {(0, 1): 4, (1, 0): 6})
    s, net = oracle.exact_pl(inst)
    assert s == 6 and net.arcs == frozenset({(1, 0)})


def test_pl_triangle_additive():
    arcs = {}
    for a in range(3):
        for b in range(3):
            if a != b:
                arcs[(a, b)] = 1
    inst = AdditiveInstance(3, ("a", "b", "c"), arcs)
    s, net = oracle.exact_pl(inst)
    assert s == 2 and validate(net, "polytree").ok


def test_pl_at_most_bnsl():
    for seed in range(60):
        rng = random.Random(seed)
        inst = generate.random_nonzero(rng, rng.randint(2, 7), rng.randint(0, 2),
                                       connected=False, exact_fen=False)
        sb, nb = oracle.exact_bnsl(inst)
        sp, _ = oracle.exact_pl(inst)
        assert sp <= sb
        if validate(nb, "polytree").ok:
            assert sp == sb


def test_pl_respects_q():
    for seed in range(40):
        rng = random.Random(seed)
        q = rng.choice([1, 2])
        inst = generate.random_additive(rng, rng.randint(2, 7), rng.randint(0, 2),
                                        q=q, connected=False, exact_fen=False)
        s, net = oracle.exact_pl(inst)
        assert validate(net, "polytree", q=q).ok
        assert score_of(inst, net) == s


def test_deterministic():
    inst = generate.random_nonzero(5, 7, 2)
    assert oracle.exact_bnsl(inst) == oracle.exact_bnsl(inst)
    assert oracle.exact_pl(inst) == oracle.exact_pl(inst)


def test_exact_lfen_small_cases():
    from bnsl.instances import Superstructure

    tree = generate.random_graph(3, 6, 0)
    assert exact_lfen(tree)[0] == 0
    cyc = Superstructure(5, [(i, (i + 1) % 5) for i in range(5)])
    assert exact_lfen(cyc)[0] == 1


def test_exact_lfen_example(example4):
    g = superstructure(example4)
    value, tree = exact_lfen(g)
    assert value == 2
    assert len(tree) == 3


def test_common_independent_empty_and_single():
    from bnsl.polytree import GroundElement, MatroidOracles

    oracles = MatroidOracles(3, 1)
    assert exact_common_independent([], oracles) == (0, ())
    e = GroundElement((0, 1), 5)
    w, Sel = exact_common_independent([e], oracles)
    assert w == 5 and list(Sel) == [e]
