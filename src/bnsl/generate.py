"""Reproducible random instances.

Graphs are grown as a random tree plus a chosen number of extra edges, so
the number of feedback edges is planted exactly.  Subdividing edges then
creates the long degree-2 paths the reduction rules act on without changing
the feedback count.  All draws come from one `random.Random`, so a seed
fixes the written file byte for byte; tests/test_generate.py and the CI pin
the sha256 of seeded files, so a change that moves a draw shows.

The extra edges are the front of a shuffle of every candidate pair, one
4-byte code per pair (no per-pair object).  It makes the n^2/2 draws that
`random.Random.shuffle` makes, so it stays O(n^2) and the files stay the
same, but it takes them in blocks of 32-bit words and only half-moves the
pairs that are never planted: `gen --n 1500 --fen 2` takes 0.4-0.45 s and
`gen --n 4000 --fen 3` 2.7-3.0 s at 50 MB peak RSS on a 2-core machine.
A generator passed as `seed_or_rng` must therefore be a `random.Random`,
whose `shuffle` this reproduces.
"""

from __future__ import annotations

import random
import sys
from array import array
from bisect import bisect_left, insort
from typing import Optional

from .instances import AdditiveInstance, NonZeroInstance, Superstructure, find

_EMPTY_SET_PROB = 0.15  # scores_for_graph: chance of an explicit empty-set score
_BOTH_ARCS_PROB = 0.5  # additive_for_graph: chance that an edge scores both arcs
_DEPENDENTS_EMPTY_PROB = 0.2  # random_limited_dependents: chance of an empty-set score
_BIG_ENDIAN = sys.byteorder == "big"


def _rng(seed_or_rng) -> random.Random:
    if isinstance(seed_or_rng, random.Random):
        return seed_or_rng
    return random.Random(seed_or_rng)


def random_graph(
    seed_or_rng,
    n: int,
    extra_edges: int = 0,
    max_degree: Optional[int] = None,
    connected: bool = True,
    exact_fen: bool = True,
) -> Superstructure:
    """Random tree (or forest) on n vertices plus `extra_edges` non-tree
    edges; the minimum feedback edge set has exactly that size.  With
    exact_fen=False a shortfall of plantable edges is tolerated."""
    rng = _rng(seed_or_rng)
    deg = [0] * n
    edges = set()
    # the vertices below v still under max_degree, in order: each parent is
    # drawn from them, or from range(v) when there are none (always, without
    # max_degree)
    room: list[int] = []
    for v in range(1, n):
        if max_degree is not None and deg[v - 1] < max_degree:
            room.append(v - 1)
        if not connected and rng.random() < 0.15:
            continue
        u = rng.choice(room or range(v))
        edges.add((u, v))
        deg[u] += 1
        deg[v] += 1
        if room and deg[u] == max_degree:
            del room[bisect_left(room, u)]
    # The pool holds each candidate pair (a, b), a < b, as the code a*n + b:
    # not an edge, in one component, both ends under max_degree, in
    # lexicographic order.  Row a is the part after a of its component's
    # list of such vertices, cut at a's tree neighbours.  Shuffling it draws
    # the same words as shuffling a list of the same length would.
    comp = _components_of(n, edges)
    members: dict[int, list[int]] = {}
    pos: list[Optional[int]] = [None] * n  # index in its component's list
    for v in range(n):
        if max_degree is None or deg[v] < max_degree:
            row = members.setdefault(comp[v], [])
            pos[v] = len(row)
            row.append(v)
    above: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        above[a].append(b)
    pool = array("I" if n <= 1 << 16 else "Q")  # 4 bytes a pair while n*n fits
    for a in range(n):
        if pos[a] is None:
            continue
        row, start, add = members[comp[a]], pos[a] + 1, (a * n).__add__
        for b in sorted(above[a]):
            if pos[b] is not None:
                pool.extend(map(add, row[start:pos[b]]))
                start = pos[b] + 1
        pool.extend(map(add, row[start:]))
    # the pairs the loop below reads: without max_degree it plants each one
    # and stops at extra_edges of them; under max_degree (or with a count
    # below 0, which never stops it) it may read them all
    if max_degree is not None or extra_edges < 0:
        front = len(pool)
    else:
        front = min(extra_edges, len(pool))
    _shuffle_front(rng, pool, front)
    added = 0
    for code in pool:
        if added == extra_edges:
            break
        a, b = divmod(code, n)
        if max_degree is not None and (deg[a] >= max_degree or deg[b] >= max_degree):
            continue
        edges.add((a, b))
        deg[a] += 1
        deg[b] += 1
        added += 1
    if added < extra_edges and exact_fen:
        raise ValueError(f"could only plant {added} of {extra_edges} extra edges")
    return Superstructure(n, edges)


def _shuffle_front(rng: random.Random, x, front: int) -> None:
    """Leave x[:front] and rng as rng.shuffle(x) would; the rest of x is
    left in no particular order.

    Step i of the shuffle swaps x[i] with x[j], j = rng._randbelow(i + 1):
    the top k = (i + 1).bit_length() bits of one 32-bit word, drawn again
    while j > i.  The words come in blocks of at most 2**16, never more than
    the steps left at this k, so each word drawn is one that a step of
    rng.shuffle would read.  No later step reads x[i], so a step at or past
    the front only moves x[i] into x[j].
    """
    getrandbits = rng.getrandbits
    i = len(x) - 1
    while i > 0:
        k = (i + 1).bit_length()
        if k <= 32:
            # the steps down to stop + 1 all take k-bit targets and lie all
            # before the front or all at or past it; each reads a word or more
            stop = (1 << (k - 1)) - 2
            if i >= front:
                stop = max(stop, front - 1)
            m = min(i - stop, 1 << 16)
            words = array("I", getrandbits(32 * m).to_bytes(4 * m, "little"))
            if _BIG_ENDIAN:
                words.byteswap()
            shift = 32 - k
        else:  # 2**32 pairs or more: one draw of k bits, as Random makes it
            words, shift = (getrandbits(k),), 0
        if i >= front:
            for w in words:
                j = w >> shift
                if j <= i:
                    x[j] = x[i]
                    i -= 1
        else:
            for w in words:
                j = w >> shift
                if j <= i:
                    x[i], x[j] = x[j], x[i]
                    i -= 1


def _components_of(n, edges):
    comp = list(range(n))
    for a, b in edges:
        ra, rb = find(comp, a), find(comp, b)
        if ra != rb:
            comp[ra] = rb
    return [find(comp, v) for v in range(n)]


def subdivide(seed_or_rng, g: Superstructure, times: int) -> Superstructure:
    """Split random edges with fresh degree-2 vertices (feedback count is
    preserved); grows long induced paths for the reduction rules."""
    rng = _rng(seed_or_rng)
    n = g.n
    edges = sorted(g.edges)  # kept sorted, so each draw sees the same list
    if times and not edges:
        raise ValueError("cannot subdivide an edgeless graph")
    for _ in range(times):
        a, b = e = rng.choice(edges)
        del edges[bisect_left(edges, e)]
        insort(edges, (a, n))  # n is the largest vertex, so (a, n) is ordered
        insort(edges, (b, n))
        n += 1
    return Superstructure(n, edges)


def scores_for_graph(
    seed_or_rng,
    g: Superstructure,
    max_score: int = 8,
    extra_sets: float = 0.7,
) -> NonZeroInstance:
    """Random explicit score family whose superstructure is exactly g.

    Every edge is covered by a singleton entry on one side; extra entries
    draw larger subsets of the neighbourhood; a few vertices get an
    explicit empty-set score.
    """
    rng = _rng(seed_or_rng)
    entries: dict[int, dict[frozenset[int], int]] = {v: {} for v in range(g.n)}
    for a, b in sorted(g.edges):
        child, parent = (b, a) if rng.random() < 0.5 else (a, b)
        entries[child][frozenset([parent])] = rng.randint(1, max_score)
    for v in range(g.n):
        nbrs = sorted(g.adj[v])
        attempts = int(extra_sets * len(nbrs)) + (1 if rng.random() < extra_sets else 0)
        for _ in range(attempts):
            k = rng.randint(1, min(3, len(nbrs))) if nbrs else 0
            if not k:
                continue
            subset = frozenset(rng.sample(nbrs, k))
            if subset not in entries[v]:
                entries[v][subset] = rng.randint(1, max_score)
        if rng.random() < _EMPTY_SET_PROB:
            entries[v][frozenset()] = rng.randint(1, max_score)
    entries = {v: sets for v, sets in entries.items() if sets}
    names = tuple(f"x{i}" for i in range(g.n))
    return NonZeroInstance(g.n, names, entries)


def additive_for_graph(
    seed_or_rng,
    g: Superstructure,
    max_score: int = 8,
    q: Optional[int] = None,
) -> AdditiveInstance:
    """Random additive scores whose superstructure is exactly g."""
    rng = _rng(seed_or_rng)
    arcs: dict[tuple[int, int], int] = {}
    for a, b in sorted(g.edges):
        first = (a, b) if rng.random() < 0.5 else (b, a)
        arcs[first] = rng.randint(1, max_score)
        if rng.random() < _BOTH_ARCS_PROB:
            u, v = first
            arcs[(v, u)] = rng.randint(1, max_score)
    names = tuple(f"x{i}" for i in range(g.n))
    return AdditiveInstance(g.n, names, arcs, max_in_degree=q)


def random_nonzero(
    seed_or_rng,
    n: int,
    fen: int = 0,
    max_score: int = 8,
    max_degree: Optional[int] = None,
    subdivisions: int = 0,
    connected: bool = True,
    exact_fen: bool = True,
    extra_sets: float = 0.7,
) -> NonZeroInstance:
    rng = _rng(seed_or_rng)
    base = max(1, n - subdivisions)
    g = random_graph(rng, base, fen, max_degree=max_degree, connected=connected,
                     exact_fen=exact_fen)
    if subdivisions:
        g = subdivide(rng, g, subdivisions)
    return scores_for_graph(rng, g, max_score, extra_sets=extra_sets)


def random_additive(
    seed_or_rng,
    n: int,
    fen: int = 0,
    max_score: int = 8,
    q: Optional[int] = None,
    max_degree: Optional[int] = None,
    connected: bool = True,
    exact_fen: bool = True,
) -> AdditiveInstance:
    rng = _rng(seed_or_rng)
    g = random_graph(rng, n, fen, max_degree=max_degree, connected=connected,
                     exact_fen=exact_fen)
    return additive_for_graph(rng, g, max_score, q)


def random_limited_dependents(
    seed_or_rng,
    n: int,
    dependents: int,
    max_score: int = 8,
) -> NonZeroInstance:
    """Instance where only a chosen few vertices have candidate parents.

    Every superstructure edge must point into a dependent vertex, so the
    others attach to the dependent core only.
    """
    rng = _rng(seed_or_rng)
    dependents = min(dependents, n)
    dep = sorted(rng.sample(range(n), dependents))
    entries: dict[int, dict[frozenset[int], int]] = {x: {} for x in dep}
    others = [v for v in range(n) if v not in entries]
    for v in others:
        hubs = rng.sample(dep, rng.randint(1, min(2, len(dep)))) if dep else []
        for x in hubs:
            entries[x][frozenset([v])] = rng.randint(1, max_score)
    for i, x in enumerate(dep):
        for y in dep[i + 1:]:
            if rng.random() < 0.5:
                child, par = (x, y) if rng.random() < 0.5 else (y, x)
                entries[child][frozenset([par])] = rng.randint(1, max_score)
    for x in dep:
        nbrs = sorted({u for s in entries[x] for u in s})
        for _ in range(rng.randint(0, 2)):
            if len(nbrs) >= 2:
                subset = frozenset(rng.sample(nbrs, rng.randint(2, min(3, len(nbrs)))))
                if subset not in entries[x]:
                    entries[x][subset] = rng.randint(1, max_score)
    names = tuple(f"x{i}" for i in range(n))
    inst_entries = {v: sets for v, sets in entries.items() if sets}
    for v in range(n):
        if rng.random() < _DEPENDENTS_EMPTY_PROB:
            inst_entries.setdefault(v, {})[frozenset()] = rng.randint(1, max_score)
    inst_entries = {v: s for v, s in inst_entries.items() if s}
    return NonZeroInstance(n, names, inst_entries)
