"""Seeded instances, byte for byte, and the sampler that plants edges.

A seed fixes every generated file.  The digests below were taken from the
generator that plants each extra edge by rejection: it draws two vertices
and keeps the pair only when it can be planted, or lists the plantable
pairs once when that costs less.  A change to the generator that moves any
draw re-seeds every instance, the CI's scores and the benchmark's files
with them.  The tests after the digests check the sampler itself: its draws
grow with n + fen, each plantable pair is equally likely, and the planted
edges stay inside their forest's components and under the degree bound.
"""

import hashlib
import random
from collections import Counter

import pytest

from bnsl import generate, write_additive, write_nonzero
from bnsl.instances import AdditiveInstance, Superstructure

# (name, seed, call, sha256 of the written file, the generator's next random())
CASES = [
    ("n1", 1, lambda r: generate.random_nonzero(r, 1),
     "b74bc051307f949f707b2344da9ce5a6e4da079118a01544ba2d15b8c378acad", 0.763774618976614),
    ("n1-additive", 2, lambda r: generate.random_additive(r, 1, q=1),
     "687c6ce3a2c14fa8ebf930871575c4fab5a91fe78c1e033337aff879375e002b", 0.9560342718892494),
    ("n2", 3, lambda r: generate.random_nonzero(r, 2),
     "57fe3c9d4d9ff4ab29da8f7600db506de3b65f2ce91a9343bf811aafd369098d", 0.5507846417600732),
    ("n2-additive", 4, lambda r: generate.random_additive(r, 2, q=1),
     "f9e35814a245ee333b4de6fb461ea7c31f98d4f46dec2823e1c3ab95bb2ec424", 0.06651509567958991),
    ("fen", 5, lambda r: generate.random_nonzero(r, 40, 5),
     "0793accf8c037976dba346cec770c5f30eea4cb22a5879ea464904ff9988ab1d", 0.37586934383435733),
    ("forest", 6, lambda r: generate.random_nonzero(r, 60, 4, connected=False),
     "8f64acd684e382bb23c15a652d0c96d8fdde2d526dc85f6b4a1a2472d0f69146", 0.5319280707312968),
    ("forest-shortfall", 7,
     lambda r: generate.random_additive(r, 30, 200, connected=False, exact_fen=False),
     "d85db837979d2db8ea752564079acbd833d9e86c18073e878af060f3e5b807e0", 0.9487613036841315),
    ("degree", 8, lambda r: generate.random_nonzero(r, 50, 6, max_degree=3),
     "525101977c2ca0d292719162a98638d6d445742e9d5e3764cc16210f34c21543", 0.3793739827692869),
    ("degree-saturated", 9,
     lambda r: generate.random_additive(r, 30, 12, max_degree=3, exact_fen=False),
     "5dbc74c00005a563428d78259b0b1e7c4cbcc4eea108f91eb04da1bd1703f7d3", 0.5470170269576397),
    ("degree-fallback", 10,
     lambda r: generate.random_nonzero(r, 20, 2, max_degree=1, exact_fen=False),
     "5a4e33ef3e72e7ce3c7ed5fc17050f2e61d77016d169815c0bf1cfeae21b35e2", 0.34897921030630463),
    ("degree-zero", 11,
     lambda r: generate.random_additive(r, 8, 1, max_degree=0, exact_fen=False),
     "c25877094c1308c560297f1bbfffab23a2df278f6eaa5b82561be2d49a5e12bd", 0.6402917079191771),
    ("degree-forest", 12,
     lambda r: generate.random_nonzero(r, 40, 3, max_degree=2, connected=False,
                                       exact_fen=False),
     "74becc10c604b60dcecf45b3010375a358007685b7be554efccd5d3d77f183a9", 0.024657019036375294),
    ("shortfall", 13, lambda r: generate.random_nonzero(r, 6, 20, exact_fen=False),
     "e221ae422f9f93fc768b2af1b6298747405aa856d70adb91730cd3b995ca6c99", 0.06857795833160263),
    ("subdivide", 14, lambda r: generate.random_nonzero(r, 60, 4, subdivisions=30),
     "bb72ca94342391b10dccc226d049d9e1ffcdcb6432b62c5afb3608038597731e", 0.17030268085072975),
    ("subdivide-forest", 15,
     lambda r: generate.random_nonzero(r, 50, 3, subdivisions=20, connected=False,
                                       exact_fen=False),
     "67e645a68585d4d4d27bdb57d656668390d5d1749ce4c4975d3d8c0ccfd8efea", 0.5823328692924891),
    ("q", 16, lambda r: generate.random_additive(r, 50, 4, q=2),
     "c4319274787dcc11df5df8068cad602e7676f153bbc198c65882c3f411b7255d", 0.6679845120976416),
    ("max-score", 17, lambda r: generate.random_nonzero(r, 30, 2, max_score=1000),
     "f95755269294167525f417d384c1cbae0d7f48ddf813a494b6ce3a6f51fedc08", 0.4361646203357752),
    ("ladder", 3, lambda r: generate.random_additive(r, 1500, 2, q=2),
     "345582e84aad14f1b5fe344a03a8ce4b704c27717c697f1fd9fb364ee76087d1", 0.1037507360002049),
    ("dependents", 18, lambda r: generate.random_limited_dependents(r, 40, 6),
     "1dd6ef24f8d9035f9a8e86b26d4b843fd7a13bc489127b5ee23847fc0ed6a4aa", 0.7481665466968374),
    ("dependents-all", 19, lambda r: generate.random_limited_dependents(r, 5, 9),
     "fdfd28d3b2b58e762963c9b5dc31f9ea88c96c439d8154639d3118c86a84ff79", 0.502300954116932),
]


def _digest(inst):
    write = write_additive if isinstance(inst, AdditiveInstance) else write_nonzero
    return hashlib.sha256(write(inst).encode()).hexdigest()


@pytest.mark.parametrize("name, seed, make, digest, after", CASES, ids=[c[0] for c in CASES])
def test_seeded_file_is_pinned(name, seed, make, digest, after):
    rng = random.Random(seed)
    assert _digest(make(rng)) == digest
    assert rng.random() == after


@pytest.mark.parametrize("n, extra, kwargs, planted", [
    (6, 20, {}, 10),
    (10, 5, {"max_degree": 1}, 0),
    (5, 10, {"connected": False}, 6),
])
def test_shortfall_raises_under_exact_fen(n, extra, kwargs, planted):
    rng = random.Random(n)
    with pytest.raises(ValueError) as err:
        generate.random_graph(rng, n, extra, **kwargs)
    assert str(err.value) == f"could only plant {planted} of {extra} extra edges"


class _CountingRandom(random.Random):
    """Counts the 32-bit words it draws; stops the run once past `budget`."""

    def __init__(self, seed, budget):
        super().__init__(seed)
        self.words, self.budget = 0, budget

    def _count(self, words):
        self.words += words
        if self.words > self.budget:
            raise RuntimeError(f"more than {self.budget} words drawn")

    def random(self):
        self._count(2)
        return super().random()

    def getrandbits(self, k):
        self._count(-(-k // 32))
        return super().getrandbits(k)


@pytest.mark.parametrize("kwargs", [{}, {"connected": False}, {"max_degree": 3}],
                         ids=["tree", "forest", "degree"])
def test_planting_draws_grow_with_n_plus_fen(kwargs):
    # the tree takes a word or two per vertex (and a random() per vertex in a
    # forest), each planted edge two vertices and their rejections: a pool
    # of every candidate pair would draw about n^2/2 words here
    n, fen = 20_000, 5
    rng = _CountingRandom(1, budget=4 * (n + fen))
    g = generate.random_graph(rng, n, fen, **kwargs)
    assert len(g.edges) - n + len(g.components()) == fen


def _plantable(n, edges, cap):
    """The pairs that can still take an edge: in one component of `edges`,
    not an edge, both ends of degree below cap."""
    comp = {v: i for i, c in enumerate(Superstructure(n, edges).components()) for v in c}
    deg = Counter(v for e in edges for v in e)
    return [(a, b) for a in range(n) for b in range(a + 1, n)
            if comp[a] == comp[b] and (a, b) not in edges and deg[a] < cap and deg[b] < cap]


def _marginals(n, forest, k, max_degree):
    """Chance that each pair is planted when each of k steps draws
    uniformly from the pairs still plantable."""
    cap = n if max_degree is None else max_degree
    out = Counter()

    def step(edges, left, p):
        pairs = _plantable(n, edges, cap) if left else []
        for pair in pairs:
            out[pair] += p / len(pairs)
            step(edges | {pair}, left - 1, p / len(pairs))

    step(frozenset(forest), k, 1.0)
    return out


def _path(first, last):
    return [(v, v + 1) for v in range(first, last)]


# (n, forest, pairs to plant, max_degree): the first three and the fifth
# draw vertex pairs by rejection; the rest list the pool at once, the last
# one short of pairs in every repeat
UNIFORM_CASES = [
    (8, _path(0, 7), 1, None),
    (10, _path(0, 9), 2, None),
    (24, _path(0, 11) + _path(12, 23), 2, None),
    (9, _path(0, 3) + [(4, 5), (4, 6), (4, 7)], 2, None),
    (10, [(0, v) for v in range(1, 10)], 3, 2),
    (9, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 6), (6, 7), (6, 8)], 2, 3),
    (10, [(0, v) for v in range(1, 10)], 5, 2),
]
REPS = 3000


def _planted_counts(n, forest, k, max_degree):
    """How often each pair is planted over REPS seeded repeats, and how many
    pairs each repeat planted."""
    g = Superstructure(n, forest)
    comp = [0] * n
    for i, members in enumerate(g.components()):
        for v in members:
            comp[v] = i
    cap = n if max_degree is None else max_degree
    planted, added = Counter(), Counter()
    for seed in range(REPS):
        edges, deg = set(forest), [g.degree(v) for v in range(n)]
        added[generate._plant(random.Random(seed), edges, deg, comp, cap, k)] += 1
        planted.update(edges - set(forest))
    return planted, added


def _within_tolerance(count, p):
    # five standard deviations of the repeats' binomial count, plus one
    return abs(count - REPS * p) <= 5 * (REPS * p * (1 - p)) ** 0.5 + 1


@pytest.mark.parametrize("n, forest, k, max_degree", UNIFORM_CASES,
                         ids=["path8", "path10", "two-paths", "forest", "star-degree",
                              "tree-degree", "star-shortfall"])
def test_each_plantable_pair_is_equally_likely(n, forest, k, max_degree):
    # each pair is planted within tolerance of the count its exact chance
    # predicts, and no pair outside the plantable ones ever is
    want = _marginals(n, forest, k, max_degree)
    planted, added = _planted_counts(n, forest, k, max_degree)
    assert list(added) == [round(sum(want.values()))]
    assert set(planted) <= set(want)
    assert all(_within_tolerance(planted[pair], p) for pair, p in want.items())


def test_a_used_up_pool_falls_back_to_a_list():
    # a 15-vertex star under max_degree 2: only its 14 leaves take an edge,
    # one each.  8 pairs are few enough against the pool of 91 for rejection
    # (4 * 8 * 15^2 <= 91^2); the 7th planted pair uses the pool up, the
    # rejected draws then outnumber it, and the list of what is left is
    # empty.  Every repeat plants a perfect matching of the leaves, and by
    # symmetry each of the 91 leaf pairs with chance 7/91
    star = [(0, v) for v in range(1, 15)]
    planted, added = _planted_counts(15, star, 8, 2)
    assert list(added) == [7]
    assert set(planted) <= {(a, b) for a in range(1, 15) for b in range(a + 1, 15)}
    assert len(planted) == 91
    assert all(_within_tolerance(count, 7 / 91) for count in planted.values())


def test_planted_edges_stay_inside_components_and_under_the_bound():
    # seeded families in every mode: the planted edges are the graph's
    # edges beyond its forest (the same seed with nothing planted), each
    # joins two vertices of one component and leaves both ends within
    # max_degree; they number the request, or fewer only under
    # exact_fen=False and then no plantable pair is left; and the feedback
    # edge number is the planted count
    for seed in range(300):
        rng = random.Random(9000 + seed)
        n = rng.randint(1, 80)
        kwargs = {"connected": seed % 3 != 0, "exact_fen": False,
                  "max_degree": rng.choice([None, None, 1, 2, 3, 4])}
        extra = rng.randint(0, 25) if seed % 4 else rng.randint(0, n * n // 4)
        forest = generate.random_graph(random.Random(seed), n, 0, **kwargs)
        g = generate.random_graph(random.Random(seed), n, extra, **kwargs)
        planted = g.edges - forest.edges
        comp = {v: i for i, c in enumerate(forest.components()) for v in c}
        cap = n if kwargs["max_degree"] is None else kwargs["max_degree"]
        assert forest.edges <= g.edges, seed
        assert all(comp[a] == comp[b] for a, b in planted), seed
        assert all(g.degree(v) <= cap for e in planted for v in e), seed
        assert len(g.edges) - n + len(g.components()) == len(planted), seed
        if len(planted) < extra:
            assert not _plantable(n, g.edges, cap), seed
        else:
            assert len(planted) == extra, seed
