"""Exhaustive reference solvers.

Desk-scale brute force only; every other solver in the package is checked
against these.  Parent sets are handled as bitmasks throughout.
"""

from __future__ import annotations

from typing import Optional

from .instances import (
    Instance,
    Network,
    NonZeroInstance,
    superstructure,
)


class OracleLimitError(ValueError):
    """Instance too large for the exhaustive solver."""


def _nonzero_tables(instance: NonZeroInstance):
    """Per-vertex dict mask -> score for listed parent sets (plus empty)."""
    tables = []
    for v in range(instance.n):
        table = {0: instance.score(v, frozenset())}
        for parents, s in instance.entries.get(v, {}).items():
            mask = 0
            for p in parents:
                mask |= 1 << p
            table[mask] = s
        tables.append(table)
    return tables


def exact_bnsl(instance: Instance) -> tuple[int, Network]:
    """Optimal acyclic network by sink-ordering dynamic programming over
    vertex subsets: best(W) = max_v best_local(v, W-v) + best(W-v)."""
    n = instance.n
    if n > 20:
        raise OracleLimitError(f"subset DP limited to 20 variables, got {n}")
    g = superstructure(instance)
    nbr_mask = [0] * n
    for v in range(n):
        for w in g.adj[v]:
            nbr_mask[v] |= 1 << w

    if isinstance(instance, NonZeroInstance):
        tables = _nonzero_tables(instance)
        q = None

        def best_local(v: int, allowed: int) -> tuple[int, int]:
            best, best_mask = -1, 0
            for mask, s in tables[v].items():
                if mask & ~allowed:
                    continue
                if s > best or (s == best and mask < best_mask):
                    best, best_mask = s, mask
            return best, best_mask

    else:
        q = instance.max_in_degree
        in_arcs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for (u, v), s in instance.arc_scores.items():
            in_arcs[v].append((s, u))
        for v in range(n):
            in_arcs[v].sort(key=lambda t: (-t[0], t[1]))

        def best_local(v: int, allowed: int) -> tuple[int, int]:
            total, mask, taken = 0, 0, 0
            for s, u in in_arcs[v]:
                if q is not None and taken >= q:
                    break
                if allowed & (1 << u):
                    total += s
                    mask |= 1 << u
                    taken += 1
            return total, mask

    memo: dict[tuple[int, int], tuple[int, int]] = {}

    def local(v: int, allowed: int) -> tuple[int, int]:
        key = (v, allowed & nbr_mask[v])
        got = memo.get(key)
        if got is None:
            got = best_local(v, key[1])
            memo[key] = got
        return got

    full = (1 << n) - 1
    best = [0] * (full + 1)
    choice: list[Optional[tuple[int, int]]] = [None] * (full + 1)
    for w_mask in range(1, full + 1):
        best_val, best_choice = -1, None
        rest = w_mask
        while rest:
            bit = rest & -rest
            v = bit.bit_length() - 1
            rest ^= bit
            sub = w_mask ^ bit
            s, pmask = local(v, sub)
            val = s + best[sub]
            if val > best_val:
                best_val, best_choice = val, (v, pmask)
        best[w_mask] = best_val
        choice[w_mask] = best_choice

    arcs = set()
    w_mask = full
    while w_mask:
        v, pmask = choice[w_mask]
        while pmask:
            bit = pmask & -pmask
            arcs.add((bit.bit_length() - 1, v))
            pmask ^= bit
        w_mask ^= 1 << v
    return best[full], Network(n, frozenset(arcs))


def exact_pl(instance: Instance) -> tuple[int, Network]:
    """Optimal polytree by exhaustive orientation of skeleton-forest edge
    subsets of the superstructure, filtered by the instance's own bound."""
    n = instance.n
    g = superstructure(instance)
    edges = sorted(g.edges)
    m = len(edges)
    if m > 16:
        raise OracleLimitError(f"polytree search limited to 16 edges, got {m}")
    if isinstance(instance, NonZeroInstance):
        tables = _nonzero_tables(instance)
        q = None

        def gain(v: int, old_mask: int, new_mask: int) -> int:
            t = tables[v]
            return t.get(new_mask, 0) - t.get(old_mask, 0)

    else:
        q = instance.max_in_degree

        def gain(v: int, old_mask: int, new_mask: int) -> int:
            added = new_mask & ~old_mask
            u = added.bit_length() - 1
            return instance.arc(u, v)

    best_score = -1
    best_arcs: set[tuple[int, int]] = set()
    arcs: list[tuple[int, int]] = []
    pmask = [0] * n
    indeg = [0] * n

    def find(parent, x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def rec(i: int, parent: list[int], score: int):
        nonlocal best_score, best_arcs
        if i == m:
            if score > best_score:
                best_score = score
                best_arcs = set(arcs)
            return
        a, b = edges[i]
        rec(i + 1, parent, score)  # skip the edge
        ra, rb = find(parent, a), find(parent, b)
        if ra == rb:
            return  # a skeleton cycle either way
        merged = parent[:]
        merged[ra] = rb
        for u, v in ((a, b), (b, a)):  # orient u -> v
            if q is not None and indeg[v] >= q:
                continue
            old = pmask[v]
            pmask[v] = old | (1 << u)
            indeg[v] += 1
            arcs.append((u, v))
            rec(i + 1, merged, score + gain(v, old, pmask[v]))
            arcs.pop()
            indeg[v] -= 1
            pmask[v] = old

    # empty configuration baseline: explicit empty-set scores still count
    base = 0
    if isinstance(instance, NonZeroInstance):
        base = sum(instance.score(v, frozenset()) for v in range(n))
        # gain() above is relative to the all-empty assignment
    rec(0, list(range(n)), 0)
    return base + best_score, Network(n, frozenset(best_arcs))
