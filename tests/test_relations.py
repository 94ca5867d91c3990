import random

from bnsl import relations
from reference import (
    class_rows,
    classes,
    closure,
    drop_index,
    from_pairs,
    insert_index,
    irreflexive,
    reindex,
    remap,
    restrict,
    to_pairs,
    unpack,
)


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
    return closure(rows)


def test_pack_and_cut():
    # d = 0 is the bag DP's empty root bag and a closed root's empty delta
    assert relations.pack([], 0) == relations.unit(0) == relations.cut_mask(0, 0) == 0
    for seed in range(200):
        rng = random.Random(seed)
        d = rng.randint(0, 14)
        rows = [rng.getrandbits(d) for _ in range(d)]
        m = relations.pack(rows, d)
        assert m < 1 << d * d and unpack(m, d) == rows
        assert relations.unit(d) == relations.pack([1] * d, d)
        keep = rng.getrandbits(d)
        assert unpack(m & relations.cut_mask(keep, d), d) == restrict(rows, keep)
        # row 0 in the top field: ints sort as their row tuples
        many = [tuple(rng.getrandbits(d) for _ in range(d)) for _ in range(20)]
        assert sorted(relations.pack(r, d) for r in many) == [
            relations.pack(r, d) for r in sorted(many)]


def test_remap_matches_reindex():
    # vertex lists that overlap in part, one missing from the other, or
    # hold the same vertices in another order
    assert relations.remap([], [])(0) == 0
    for seed in range(300):
        rng = random.Random(seed)
        pool = list(range(20))
        src = rng.sample(pool, rng.randint(0, 9))
        dst = rng.sample(src, rng.randint(0, len(src))) + rng.sample(
            [x for x in pool if x not in src], rng.randint(0, 4))
        rng.shuffle(dst)
        to_dst = relations.remap(src, dst)
        to_dst_rows = remap(src, dst)
        for _ in range(5):
            rows = [rng.getrandbits(len(src)) for _ in src]
            want = reindex(rows, src, dst)
            assert to_dst_rows(rows) == want
            assert to_dst(relations.pack(rows, len(src))) == relations.pack(want, len(dst))


def test_insert_and_drop_index_match_remap():
    # two sorted vertex lists that differ by one vertex: the per-shape maps
    # the bag DP once took between sorted bags equal the general remap
    # between them, both ways
    for seed in range(300):
        rng = random.Random(20_000 + seed)
        dst = sorted(rng.sample(range(30), rng.randint(1, 10)))
        i = rng.randrange(len(dst))
        src = dst[:i] + dst[i + 1:]
        s = len(src)
        for _ in range(5):
            m = rng.getrandbits(s * s)
            assert insert_index(s, i)(m) == relations.remap(src, dst)(m)
            m = rng.getrandbits((s + 1) ** 2)
            assert drop_index(s + 1, i)(m) == relations.remap(dst, src)(m)


def test_pair_and_class_functions_match_row_forms():
    # from_pairs, to_pairs, classes and class_rows against the row helpers,
    # on random relations, symmetric ones (the polytree cons) included
    assert relations.classes(0, 0) == [] and relations.class_rows([], 0) == 0
    assert relations.to_pairs(0, ()) == frozenset() and relations.from_pairs([], ()) == 0
    for seed in range(300):
        rng = random.Random(50_000 + seed)
        d = rng.randint(0, 12)
        verts = rng.sample(range(40), d)
        pairs = {(x, y) for x in verts for y in verts if rng.random() < 0.15}
        if seed % 2:
            pairs |= {(y, x) for x, y in pairs}
        rows = from_pairs(pairs, verts)
        m = relations.from_pairs(pairs, verts)
        assert m == relations.pack(rows, d)
        assert relations.to_pairs(m, verts) == to_pairs(rows, verts) == pairs
        parts = relations.classes(m, d)
        assert parts == classes(rows)
        assert relations.class_rows(parts, d) == relations.pack(class_rows(parts, d), d)


def test_support_is_the_indices_in_some_pair():
    for seed in range(200):
        rng = random.Random(seed)
        d = rng.randint(0, 14)
        rows = random_order(rng, d, rng.sample(range(d), rng.randint(0, d)))
        pairs = to_pairs(rows, range(d))
        assert relations.support(relations.pack(rows, d), d) == (
            sum({1 << x for pair in pairs for x in pair}))


def test_transpose_is_the_converse():
    # every pair turned around, on dense and sparse relations, d = 0 too;
    # turning twice gives the relation back
    for seed in range(500):
        rng = random.Random(f"transpose:{seed}")
        d = rng.randint(0, 14)
        rows = [rng.getrandbits(d) & rng.getrandbits(d) if seed % 2 else rng.getrandbits(d)
                for _ in range(d)]
        m = relations.pack(rows, d)
        pairs = to_pairs(rows, range(d))
        t = relations.transpose(m, d)
        assert to_pairs(unpack(t, d), range(d)) == {(y, x) for x, y in pairs}
        assert relations.transpose(t, d) == m


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
        assert irreflexive(a) and irreflexive(b)
        full = closure([x | y for x, y in zip(a, b)])
        keep = rng.getrandbits(d)
        pa, pb = relations.pack(a, d), relations.pack(b, d)
        shared = relations.support(pa, d) & relations.support(pb, d)
        # a wider pivot mask than the shared support changes nothing; the
        # record DP cuts the result down to `keep`
        for pivots in (shared, shared | rng.getrandbits(d)):
            got = relations.closed_union(pa, pb, pivots, d)
            if irreflexive(full):
                assert got == relations.pack(full, d)
                assert got & relations.cut_mask(keep, d) == relations.pack(restrict(full, keep), d)
            else:
                assert got is None
        if not irreflexive(full):
            cycles += 1
            if not any(a[x] >> y & 1 and b[y] >> x & 1 for x in range(d) for y in range(d)):
                long_cycles += 1
    assert cycles > 500 and long_cycles > 50


def test_closed_union_of_an_order_and_a_star():
    # the bag DP's introduce: a strict partial order on every index but v,
    # and arcs that all touch v (each edge at most one way); the support of
    # the arcs is enough to pivot on, both for the closure and for cycles
    cycles = 0
    for seed in range(2000):
        rng = random.Random(9_000 + seed)
        d = rng.randint(1, 12)
        v = rng.randrange(d)
        others = [x for x in range(d) if x != v]
        a = random_order(rng, d, others)
        b = [0] * d
        for u in rng.sample(others, rng.randint(0, len(others))):
            if rng.random() < 0.5:
                b[v] |= 1 << u
            else:
                b[u] |= 1 << v
        full = closure([x | y for x, y in zip(a, b)])
        pb = relations.pack(b, d)
        got = relations.closed_union(relations.pack(a, d), pb, relations.support(pb, d), d)
        if irreflexive(full):
            assert got == relations.pack(full, d)
        else:
            assert got is None
            cycles += 1
    assert cycles > 300
