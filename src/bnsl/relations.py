"""Binary relations on a small vertex list, packed into one int.

A relation over a vertex list `verts` of d vertices is one int of d fields
of d bits, row 0 in the top field: bit j of row i, bit (d - 1 - i) * d + j
of the int, is set when (verts[i], verts[j]) is related (`pack(rows, d)`
builds it from its rows).  With row 0 on top, the order of the ints is
the lexicographic order of their row tuples.  Both dynamic programs keep
every boundary relation in this form: strict reachability for acyclic
networks, same-component pairs for polytrees.

Union is `|`, the cut to an index mask is `&` with `cut_mask`, the
converse is `transpose`, and `closed_union` closes the union of two
relations by pivoting only on the indices where a path can pass from one
to the other (for two closed relations, the indices that both of them
touch: `support`), each pivot a shift, a mask and a product on the whole
int.  `classes` gives
the connected classes and `class_rows` their same-class relation.  The
record DP moves relations between vertex lists through `remap`, which
compiles a fixed source -> target map once for many relations.  Both
dynamic programs drop dominated table entries through `undominated`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Optional, Sequence


def pack(values: Iterable[int], width: int) -> int:
    """`values`, each below 2**width, as the fields of one int, the first
    in the top field."""
    out = 0
    for x in values:
        out = out << width | x
    return out


@lru_cache(maxsize=None)
def unit(d: int) -> int:
    """One bit at the base of each of the d fields of a relation."""
    return sum(1 << i * d for i in range(d))


def cut_mask(keep: int, d: int) -> int:
    """The mask that restricts a relation to the indices in `keep`."""
    return sum(keep << (d - 1 - i) * d for i in range(d) if keep >> i & 1)


def transpose(m: int, d: int) -> int:
    """The converse relation: (j, i) for each pair (i, j).  The pair at
    bit k = f * d + j (row d - 1 - f, column j) moves to bit
    d*d - 1 - (j * d + f); one step per pair."""
    top = d * d - 1
    out = 0
    while m:
        k = m.bit_length() - 1
        out |= 1 << top - k % d * d - k // d
        m ^= 1 << k
    return out


def closed_union(a: int, b: int, shared: int, d: int) -> Optional[int]:
    """closure(a | b) for relations `a` and `b` over range(d), or None when
    that closure is not irreflexive.  `shared` must hold every index at
    which a shortest path of the union switches operand or takes two pairs
    of one operand in a row.

    For strict partial orders (transitive and irreflexive) the
    intersection of their supports does: transitivity shortens any path
    of the union until its pairs alternate between `a` and `b`, and each
    index inside it is then one where the path switches operand, which
    both supports hold.  So Warshall over the pivots in `shared` alone
    gives the closure, in O(|shared|) operations on d*d-bit ints.  A
    shortest cycle of the union passes only pivots too, and the last of
    them taken as a pivot already reaches itself then.  A pivot at k adds
    row k to every row that holds k: `(m >> k) & unit(d)` has bit k of
    each row at the base of its field, and its product with row k (below
    1 << d) cannot carry.
    """
    m = a | b
    field = (1 << d) - 1
    units = unit(d)
    top = (d - 1) * d
    while shared:
        low = shared & -shared
        k = low.bit_length() - 1
        rk = m >> top - k * d & field
        if rk & low:
            return None
        m |= (m >> k & units) * rk
        shared ^= low
    return m


def support(m: int, d: int) -> int:
    """Index mask of the indices in some pair of a relation."""
    field = (1 << d) - 1
    out = 0
    while m:
        f = (m.bit_length() - 1) // d
        row = m >> f * d & field
        out |= row | 1 << d - 1 - f
        m ^= row << f * d
    return out


def remap(src: Sequence, dst: Sequence):
    """The fixed map from vertex list `src` to vertex list `dst`, compiled
    once: the returned function re-expresses a relation over `src` as one
    over `dst`, dropping pairs with a vertex missing from `dst`.  Its cost
    per call is one step per kept row and per pair in it."""
    pos = {x: i for i, x in enumerate(dst)}
    s, d = len(src), len(dst)
    moves = [((s - 1 - i) * s, (d - 1 - pos[x]) * d) for i, x in enumerate(src) if x in pos]
    bit = [1 << pos[x] if x in pos else 0 for x in src]
    kept = sum(1 << i for i, x in enumerate(src) if x in pos)

    def apply(m: int) -> int:
        out = 0
        for at, to in moves:
            row = m >> at & kept
            new = 0
            while row:
                low = row & -row
                new |= bit[low.bit_length() - 1]
                row ^= low
            out |= new << to
        return out

    return apply


def classes(m: int, d: int) -> list[int]:
    """Index masks of the connected classes of the symmetric closure; every
    index lies in exactly one class."""
    field = (1 << d) - 1
    out: list[int] = []
    for i in range(d):
        cls = m >> (d - 1 - i) * d & field | 1 << i
        rest = []
        for other in out:
            if other & cls:
                cls |= other
            else:
                rest.append(other)
        rest.append(cls)
        out = rest
    return out


def class_rows(parts: Iterable[int], d: int) -> int:
    """Pairs of distinct indices in one of `parts`, index masks that
    partition range(d)."""
    out = 0
    for cls in parts:
        rest = cls
        while rest:
            low = rest & -rest
            out |= (cls ^ low) << (d - low.bit_length()) * d
            rest ^= low
    return out


def undominated(table: dict, guard: int) -> dict:
    """The entries of `table` that no other entry dominates, in their
    insertion order.

    Keys are (rel, counts) pairs, and each entry holds its score first.
    Entry (rel', counts') with score s' dominates (rel, counts) with score
    s when s' >= s, rel' is a subset of rel, and counts' <= counts at every
    field: `counts` packs fields whose top bits are the bits of `guard`,
    each field's value below its guard bit (all 0 with `guard` 0).  The
    entries are read in the order of (-score, rel, counts), and an entry is
    dropped when one kept before it dominates it.  A distinct dominator
    comes first, as a subset rel and counts no larger in any field are no
    larger ints.  Distinct entries never dominate each other both ways, so
    every dominated entry has an undominated dominator, kept before it: the
    entries kept are exactly those no other entry dominates.
    """
    if len(table) <= 1:
        return table
    # rel' is a subset of rel when rel' & ~rel is 0, and counts' <= counts
    # at every field when subtracting counts' from counts with every guard
    # set borrows no guard away
    dropped = set()
    kept: dict = {}  # rel -> counts of each kept entry with it
    for _, key in sorted((-entry[0], key) for key, entry in table.items()):
        rel, counts = key
        high = counts | guard
        for rel1, counts_kept in kept.items():
            if not rel1 & ~rel and any((high - c1) & guard == guard for c1 in counts_kept):
                dropped.add(key)
                break
        else:
            kept.setdefault(rel, []).append(counts)
    return {key: entry for key, entry in table.items() if key not in dropped}


def from_pairs(pairs: Iterable[tuple], verts: Sequence) -> int:
    """The relation over `verts` holding the given vertex pairs."""
    pos = {x: i for i, x in enumerate(verts)}
    d = len(verts)
    m = 0
    for x, y in pairs:
        m |= 1 << (d - 1 - pos[x]) * d + pos[y]
    return m


def to_pairs(m: int, verts: Sequence) -> frozenset:
    """The vertex pairs held by a relation over `verts`."""
    d = len(verts)
    out = []
    while m:
        k = m.bit_length() - 1
        out.append((verts[d - 1 - k // d], verts[k % d]))
        m ^= 1 << k
    return frozenset(out)
