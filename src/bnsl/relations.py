"""Binary relations on a small vertex list, stored as bit rows.

A relation over a vertex list `verts` is a sequence of ints `rows`, one per
vertex: bit j of rows[i] is set when (verts[i], verts[j]) is related.  Both
dynamic programs keep their boundary relations in this form: strict
reachability for acyclic networks, same-component pairs for polytrees.
The bag DP closes a merged relation with a full Warshall (`closure`).

The acyclic record DP folds in packed form instead: the d rows over its
ground index range(d) sit in one int, row i in bits [i*d, (i+1)*d)
(`pack`, `unpack`).  Union is `|`, the cut to an index mask is `&` with
`cut_mask`, and it merges two relations that are already closed, so
`closed_union` pivots only on the indices that both of them touch
(`support`), each pivot a shift, a mask and a product on the whole int.

Both DPs move relations between vertex lists through `remap`, which
compiles a fixed source -> target map once for many relations.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Optional, Sequence


def closure(rows: Sequence[int]) -> list[int]:
    """Transitive closure (Warshall)."""
    rows = list(rows)
    d = len(rows)
    for k in range(d):
        col = 1 << k
        rk = rows[k]
        for i in range(d):
            if rows[i] & col:
                rows[i] |= rk
    return rows


def pack(rows: Sequence[int]) -> int:
    """Rows over range(d) as one int, row i in bits [i*d, (i+1)*d)."""
    d = len(rows)
    return sum(row << i * d for i, row in enumerate(rows))


def unpack(m: int, d: int) -> list[int]:
    """The d rows of a packed relation."""
    field = (1 << d) - 1
    return [m >> i * d & field for i in range(d)]


@lru_cache(maxsize=None)
def unit(d: int) -> int:
    """One bit at the base of each of the d fields of a packed relation."""
    return sum(1 << i * d for i in range(d))


def cut_mask(keep: int, d: int) -> int:
    """The packed mask that restricts a relation to the indices in `keep`."""
    return sum(keep << i * d for i in range(d) if keep >> i & 1)


def closed_union(a: int, b: int, shared: int, cut: int, d: int) -> Optional[int]:
    """Packed restrict(closure(a | b), keep), with `cut` = cut_mask(keep,
    d), for packed strict partial orders `a` and `b` over range(d)
    (transitive and irreflexive) whose supports meet only inside the
    index mask `shared`; None when that closure is not irreflexive.

    Transitivity shortens any path of the union until its pairs alternate
    between `a` and `b`; then each index inside it is one where the path
    switches operand, which both supports hold.  So Warshall over the
    pivots in `shared` alone gives the closure, in O(|shared|) operations
    on d*d-bit ints.  Neither operand has a cycle, so a cycle of the
    union alternates too, and the last of its indices taken as a pivot
    already reaches itself then.  A pivot at k adds row k to every row
    that holds k: `(m >> k) & unit(d)` has bit k of row i at the base of
    field i, and its product with row k (below 1 << d) cannot carry.
    """
    m = a | b
    field = (1 << d) - 1
    units = unit(d)
    while shared:
        low = shared & -shared
        k = low.bit_length() - 1
        rk = m >> k * d & field
        if rk & low:
            return None
        m |= (m >> k & units) * rk
        shared ^= low
    return m & cut


def support(m: int, d: int) -> int:
    """Index mask of the indices in some pair of a packed relation."""
    field = (1 << d) - 1
    out = 0
    while m:
        i = ((m & -m).bit_length() - 1) // d
        row = m >> i * d & field
        out |= row | 1 << i
        m ^= row << i * d
    return out


def irreflexive(rows: Sequence[int]) -> bool:
    """True when no index is related to itself."""
    return not any(row >> i & 1 for i, row in enumerate(rows))


def restrict(rows: Sequence[int], mask: int) -> list[int]:
    """Only the pairs with both indices in `mask`."""
    return [row & mask if mask >> i & 1 else 0 for i, row in enumerate(rows)]


def remap(src: Sequence, dst: Sequence):
    """The fixed map from vertex list `src` to vertex list `dst`, compiled
    once: the returned function re-expresses rows over `src` as rows over
    `dst`, dropping pairs with a vertex missing from `dst`.  Its cost per
    call is one step per kept row and per pair in it."""
    pos = {x: i for i, x in enumerate(dst)}
    moves = [(i, pos[x]) for i, x in enumerate(src) if x in pos]
    bit = [1 << pos[x] if x in pos else 0 for x in src]
    kept = sum(1 << i for i, _ in moves)
    d = len(dst)

    def apply(rows: Sequence[int]) -> list[int]:
        out = [0] * d
        for i, j in moves:
            row = rows[i] & kept
            new = 0
            while row:
                low = row & -row
                new |= bit[low.bit_length() - 1]
                row ^= low
            out[j] = new
        return out

    return apply


def classes(rows: Sequence[int]) -> list[int]:
    """Index masks of the connected classes of the symmetric closure; every
    index lies in exactly one class."""
    out: list[int] = []
    for i, row in enumerate(rows):
        cls = row | 1 << i
        rest = []
        for other in out:
            if other & cls:
                cls |= other
            else:
                rest.append(other)
        rest.append(cls)
        out = rest
    return out


def same_class(rows: Sequence[int]) -> list[int]:
    """Pairs of distinct indices in one class of the symmetric closure."""
    return class_rows(classes(rows), len(rows))


def class_rows(parts: Iterable[int], d: int) -> list[int]:
    """Pairs of distinct indices in one of `parts`, index masks that
    partition range(d)."""
    out = [0] * d
    for cls in parts:
        for i in range(d):
            if cls >> i & 1:
                out[i] = cls & ~(1 << i)
    return out


def from_pairs(pairs: Iterable[tuple], verts: Sequence) -> list[int]:
    """Rows over `verts` holding the given vertex pairs."""
    pos = {x: i for i, x in enumerate(verts)}
    rows = [0] * len(verts)
    for x, y in pairs:
        rows[pos[x]] |= 1 << pos[y]
    return rows


def to_pairs(rows: Sequence[int], verts: Sequence) -> frozenset:
    """The vertex pairs held by rows over `verts`."""
    return frozenset(
        (verts[i], verts[j])
        for i, row in enumerate(rows)
        for j in range(len(verts))
        if row >> j & 1
    )
