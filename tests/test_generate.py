"""Seeded instances, byte for byte.

A seed fixes every generated file.  The digests below were taken from the
generator that planted feedback edges by shuffling a list of pair tuples
with `random.Random.shuffle`.  The current one holds an array of pair codes
of the same length and order, and draws the shuffle's words itself, in
blocks; it leaves the pairs it plants, and the generator's state, as that
shuffle would, so it writes the same files.  A change to the generator that
moves any of them re-seeds every instance, the CI's scores and the
benchmark's files with them.
"""

import hashlib
import random
from array import array

import pytest

from bnsl import generate, write_additive, write_nonzero
from bnsl.instances import AdditiveInstance
from reference import random_graph_tuple_pool

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
     "96a7b1ade787d77ab0fddc0f777801bf69bae39d6ce1e87c63f64b059e514b62", 0.4395821053536507),
    ("forest", 6, lambda r: generate.random_nonzero(r, 60, 4, connected=False),
     "38b689c7881a8c890d578fae3cad745e9f5d5012dd30a4caedb18b114deba662", 0.3716967196504949),
    ("forest-shortfall", 7,
     lambda r: generate.random_additive(r, 30, 200, connected=False, exact_fen=False),
     "e50ff559ec61af7e4feee3b04b6dec7c729eb777f75018405c841a74f8559cd3", 0.9487613036841315),
    ("degree", 8, lambda r: generate.random_nonzero(r, 50, 6, max_degree=3),
     "b46b61cab4ee0d58e32c911d8995f5c5d753c6803177f2e372d580308244198d", 0.5173251535736769),
    ("degree-saturated", 9,
     lambda r: generate.random_additive(r, 30, 12, max_degree=3, exact_fen=False),
     "e54566781edf108e7ba6e322aea54b9441d3116d5ea9738d6fd2689c9934350d", 0.3574121174141286),
    ("degree-fallback", 10,
     lambda r: generate.random_nonzero(r, 20, 2, max_degree=1, exact_fen=False),
     "5a4e33ef3e72e7ce3c7ed5fc17050f2e61d77016d169815c0bf1cfeae21b35e2", 0.34897921030630463),
    ("degree-zero", 11,
     lambda r: generate.random_additive(r, 8, 1, max_degree=0, exact_fen=False),
     "c25877094c1308c560297f1bbfffab23a2df278f6eaa5b82561be2d49a5e12bd", 0.6402917079191771),
    ("degree-forest", 12,
     lambda r: generate.random_nonzero(r, 40, 3, max_degree=2, connected=False,
                                       exact_fen=False),
     "6c94cee773f4dbaa433514bbeeccd570d0d1408fe4900e8c94cd8122bc269213", 0.4138168903512993),
    ("shortfall", 13, lambda r: generate.random_nonzero(r, 6, 20, exact_fen=False),
     "6337e6f8965126aec3e89cfcfa6d627779b14ee0f27f23f9c892e49a157f27ff", 0.3761677406830839),
    ("subdivide", 14, lambda r: generate.random_nonzero(r, 60, 4, subdivisions=30),
     "c45fe96f2a963c91f2196c438313f66d47cb6a964b34fe5185dfb74655d5f68f", 0.7205563088265384),
    ("subdivide-forest", 15,
     lambda r: generate.random_nonzero(r, 50, 3, subdivisions=20, connected=False,
                                       exact_fen=False),
     "bc4eecb80650c228f4226adebaca27d72f3c21486fa49eb53e9a8d16d0c346ca", 0.4241483370566905),
    ("q", 16, lambda r: generate.random_additive(r, 50, 4, q=2),
     "072dcf978f365b705fd14692db245b2d7fa7a426b776e84b90126a155f13a8c1", 0.5688341228345503),
    ("max-score", 17, lambda r: generate.random_nonzero(r, 30, 2, max_score=1000),
     "67baf6c24563f72d10c08dcaa2002a1876c8a32dd07226136e7bea909785bcb1", 0.8120850678900818),
    ("ladder", 3, lambda r: generate.random_additive(r, 1500, 2, q=2),
     "69d676e516212b115627c6aee80722e62e51889f50b316ee63d446509dbcb8f3", 0.6014310510949141),
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


def test_shuffle_front_is_random_shuffle():
    # the front and the generator's next draw are random.Random.shuffle's,
    # at every length to 300 and on each side of the powers of two where
    # the targets' bit length changes, up to 2**17 + 1 (blocks of 2**16
    # words)
    lengths = [*range(301), *((1 << k) + d for k in range(9, 18) for d in (-1, 0, 1))]
    for length in lengths:
        for seed in range(3):
            want = array("I", range(length))
            rng = random.Random(seed)
            rng.shuffle(want)
            after = rng.random()
            for front in (0, 1, 5, length // 3, length):
                got = array("I", range(length))
                rng = random.Random(seed)
                generate._shuffle_front(rng, got, front)
                assert got[:front] == want[:front], (length, seed, front)
                assert rng.random() == after, (length, seed, front)


def test_random_graph_matches_tuple_pool_reference():
    # the pair-code array draws what the shuffled tuple list drew, and
    # leaves the generator in the same state: 300 graphs of up to 40
    # vertices (pools of at most 780 pairs, targets of up to 10 bits), then
    # 20 of 100-500 vertices (up to 17 bits, several blocks of words at one
    # bit length), half of them under a degree bound, where the loop reads
    # the whole pool and skips pairs
    for seed in range(320):
        rng = random.Random(5000 + seed)
        if seed < 300:
            n = rng.randint(1, 40)
            extra = rng.randint(0, 12)
            max_degree = rng.choice([None, None, 0, 1, 2, 3, 5])
        else:
            n = rng.randint(100, 500)
            extra = rng.randint(0, 60)
            max_degree = rng.randint(2, 5) if seed % 2 else None
        connected = seed % 3 != 0
        state = rng.getstate()
        got = generate.random_graph(rng, n, extra, max_degree=max_degree,
                                    connected=connected, exact_fen=False)
        after = rng.random()
        rng.setstate(state)
        assert got == random_graph_tuple_pool(rng, n, extra, max_degree=max_degree,
                                              connected=connected, exact_fen=False)
        assert after == rng.random()
