import random

from bnsl import relations
from reference import reindex


def random_order(rng, d, verts, planted=()):
    """A strict partial order (transitive, irreflexive) on `verts`, as rows
    over range(d): the `planted` pairs, which share no index, and a few
    random pairs along a random linear order that agrees with them, closed."""
    order = rng.sample(verts, len(verts))
    for x, y in planted:
        i, j = order.index(x), order.index(y)
        if i > j:
            order[i], order[j] = y, x
    rows = [0] * d
    for x, y in planted:
        rows[x] |= 1 << y
    for _ in range(rng.randint(0, len(verts)) if len(verts) > 1 else 0):
        i, j = sorted(rng.sample(range(len(order)), 2))
        rows[order[i]] |= 1 << order[j]
    return relations.closure(rows)


def test_pack_and_cut():
    for seed in range(200):
        rng = random.Random(seed)
        d = rng.randint(0, 14)
        rows = [rng.getrandbits(d) for _ in range(d)]
        m = relations.pack(rows)
        assert m < 1 << d * d and relations.unpack(m, d) == rows
        keep = rng.getrandbits(d)
        assert relations.unpack(m & relations.cut_mask(keep, d), d) == (
            relations.restrict(rows, keep))


def test_remap_matches_reindex():
    # vertex lists that overlap in part, one missing from the other, or
    # hold the same vertices in another order
    for seed in range(300):
        rng = random.Random(seed)
        pool = list(range(20))
        src = rng.sample(pool, rng.randint(0, 9))
        dst = rng.sample(src, rng.randint(0, len(src))) + rng.sample(
            [x for x in pool if x not in src], rng.randint(0, 4))
        rng.shuffle(dst)
        to_dst = relations.remap(src, dst)
        for _ in range(5):
            rows = [rng.getrandbits(len(src)) for _ in src]
            assert to_dst(rows) == reindex(rows, src, dst)


def test_support_is_the_indices_in_some_pair():
    for seed in range(200):
        rng = random.Random(seed)
        d = rng.randint(0, 14)
        rows = random_order(rng, d, rng.sample(range(d), rng.randint(0, d)))
        pairs = relations.to_pairs(rows, range(d))
        assert relations.support(relations.pack(rows), d) == (
            sum({1 << x for pair in pairs for x in pair}))


def test_closed_union_matches_full_closure():
    # pairs of strict partial orders whose supports overlap.  Half of them
    # get a planted cycle whose pairs alternate between the operands around
    # an even ring of shared indices; some unions close a cycle only
    # through four or more shared indices (no pair is related both ways)
    cycles = long_cycles = 0
    for seed in range(3000):
        rng = random.Random(7_000 + seed)
        d = rng.randint(1, 14)
        shared_verts = rng.sample(range(d), rng.randint(1, d))
        rest = [x for x in range(d) if x not in shared_verts]
        ring = shared_verts[:len(shared_verts) // 2 * 2] if rng.random() < 0.5 else []
        planted_a = list(zip(ring[0::2], ring[1::2]))
        planted_b = list(zip(ring[1::2], ring[2::2] + ring[:1]))
        a = random_order(rng, d, shared_verts + rng.sample(rest, rng.randint(0, len(rest))),
                         planted_a)
        b = random_order(rng, d, shared_verts + rng.sample(rest, rng.randint(0, len(rest))),
                         planted_b)
        assert relations.irreflexive(a) and relations.irreflexive(b)
        full = relations.closure([x | y for x, y in zip(a, b)])
        keep = rng.getrandbits(d)
        pa, pb = relations.pack(a), relations.pack(b)
        shared = relations.support(pa, d) & relations.support(pb, d)
        # a wider pivot mask than the shared support changes nothing
        for pivots in (shared, shared | rng.getrandbits(d)):
            got = relations.closed_union(pa, pb, pivots, relations.cut_mask(keep, d), d)
            if relations.irreflexive(full):
                assert got == relations.pack(relations.restrict(full, keep))
            else:
                assert got is None
        if not relations.irreflexive(full):
            cycles += 1
            if not any(a[x] >> y & 1 and b[y] >> x & 1 for x in range(d) for y in range(d)):
                long_cycles += 1
    assert cycles > 500 and long_cycles > 50
