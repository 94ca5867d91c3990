"""Binary relations on a small vertex list, stored as bit rows.

A relation over a vertex list `verts` is a sequence of ints `rows`, one per
vertex: bit j of rows[i] is set when (verts[i], verts[j]) is related.  Both
dynamic programs keep their boundary relations in this form: strict
reachability for acyclic networks, same-component pairs for polytrees.
The bag DP closes a merged relation with a full Warshall (`closure`); the
acyclic record DP merges two relations that are already closed, so
`closed_union` pivots only on the indices that both of them touch.
"""

from __future__ import annotations

from operator import or_
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


def closed_union(a: Sequence[int], b: Sequence[int], shared: int, keep: int) -> Optional[list[int]]:
    """restrict(closure(a | b), keep) for strict partial orders `a` and `b`
    (transitive and irreflexive) whose supports meet only inside the index
    mask `shared`; None when that closure is not irreflexive.

    Transitivity shortens any path of the union until its pairs alternate
    between `a` and `b`; then each index inside it is one where the path
    switches operand, which both supports hold.  So Warshall over the
    pivots in `shared` alone gives the closure, in O(|shared| d).  Neither
    operand has a cycle, so a cycle of the union alternates too, and the
    last of its indices taken as a pivot already reaches itself then.
    """
    rows = list(map(or_, a, b))
    while shared:
        low = shared & -shared
        rk = rows[low.bit_length() - 1]
        if rk & low:
            return None
        for i, row in enumerate(rows):
            if row & low:
                rows[i] = row | rk
        shared ^= low
    return restrict(rows, keep)


def support(rows: Sequence[int]) -> int:
    """Index mask of the indices in some pair."""
    out = 0
    for i, row in enumerate(rows):
        if row:
            out |= row | 1 << i
    return out


def irreflexive(rows: Sequence[int]) -> bool:
    """True when no index is related to itself."""
    return not any(row >> i & 1 for i, row in enumerate(rows))


def restrict(rows: Sequence[int], mask: int) -> list[int]:
    """Only the pairs with both indices in `mask`."""
    return [row & mask if mask >> i & 1 else 0 for i, row in enumerate(rows)]


def reindex(rows: Sequence[int], src: Sequence, dst: Sequence) -> list[int]:
    """Rows over vertex list `src` re-expressed over vertex list `dst`;
    pairs with a vertex missing from `dst` are dropped."""
    pos = {x: i for i, x in enumerate(dst)}
    to = [pos.get(x) for x in src]
    out = [0] * len(dst)
    for i, row in enumerate(rows):
        if to[i] is None:
            continue
        new = 0
        j = 0
        while row:
            if row & 1 and to[j] is not None:
                new |= 1 << to[j]
            row >>= 1
            j += 1
        out[to[i]] = new
    return out


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
