"""Reproducible random instances.

Graphs are grown as a random tree plus a chosen number of extra edges, so
the number of feedback edges is planted exactly.  Subdividing edges then
creates the long degree-2 paths the reduction rules act on without changing
the feedback count.  All draws come from one `random.Random`, so a seed
fixes the written file byte for byte; tests/test_generate.py and the CI pin
the sha256 of seeded files, so a change that moves a draw shows.

Each extra edge is drawn uniformly from the pairs that can still take one,
by rejection: two uniform vertices, drawn again until they make such a
pair, about twice per edge on a tree.  So a graph costs time and draws
linear in its vertices and extra edges: `gen --n 4000 --fen 3` takes
0.14-0.22 s at 22 MB peak RSS, and `gen --n 200000 --fen 45` 4.5-4.6 s
(1.7-2.6 s with `--rep additive`), most of it in the scores, on a
2-core machine.  A generator passed as `seed_or_rng` must be a
`random.Random`.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from typing import Optional

from .instances import AdditiveInstance, NonZeroInstance, Superstructure

_EMPTY_SET_PROB = 0.15  # scores_for_graph: chance of an explicit empty-set score
_BOTH_ARCS_PROB = 0.5  # additive_for_graph: chance that an edge scores both arcs
_DEPENDENTS_EMPTY_PROB = 0.2  # random_limited_dependents: chance of an empty-set score


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
    comp = list(range(n))  # each vertex's component, named by its first vertex
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
        comp[v] = comp[u]
        deg[u] += 1
        deg[v] += 1
        if room and deg[u] == max_degree:
            del room[bisect_left(room, u)]
    cap = n if max_degree is None else max_degree  # no degree reaches n
    added = _plant(rng, edges, deg, comp, cap, extra_edges)
    if added < extra_edges and exact_fen:
        raise ValueError(f"could only plant {added} of {extra_edges} extra edges")
    return Superstructure(n, edges)


def _plant(rng: random.Random, edges: set, deg: list[int], comp: list[int], cap: int,
           extra_edges: int) -> int:
    """Add up to `extra_edges` pairs (every one it can, if negative) to the
    forest `edges` of ordered pairs, whose vertex degrees are `deg` and
    components `comp`, and return how many it added.

    Each pair is drawn uniformly from those still plantable: in one
    component, not an edge, both ends of degree below cap.  Two uniform
    vertices make such a pair with chance about 2 * pool / n^2, so rejection
    takes about extra_edges * n^2 / (2 * pool) draws.  When that is not well
    under the pool's size, or when the rejected draws outnumber the pool
    (the degree bound has nearly used it up), it lists the plantable pairs
    once and draws from the list, so a shortfall is counted exactly.
    """
    n = len(deg)
    rows: dict[int, list[int]] = {}  # each component's vertices below cap
    for v in range(n):
        if deg[v] < cap:
            rows.setdefault(comp[v], []).append(v)
    pool = (sum(len(row) * (len(row) - 1) // 2 for row in rows.values())
            - sum(deg[a] < cap and deg[b] < cap for a, b in edges))
    added = rejected = 0
    if 0 <= extra_edges and 4 * extra_edges * n * n <= pool * pool:
        while added < extra_edges and rejected < pool:
            a, b = rng.randrange(n), rng.randrange(n)
            if a > b:
                a, b = b, a
            if (a == b or comp[a] != comp[b] or deg[a] >= cap or deg[b] >= cap
                    or (a, b) in edges):
                rejected += 1
                continue
            edges.add((a, b))
            deg[a] += 1
            deg[b] += 1
            added += 1
    if added == extra_edges:
        return added
    pairs = [(a, b) for row in rows.values() for i, a in enumerate(row) if deg[a] < cap
             for b in row[i + 1:] if deg[b] < cap and (a, b) not in edges]
    while added != extra_edges and pairs:
        i = rng.randrange(len(pairs))
        a, b = pairs[i]
        pairs[i] = pairs[-1]
        pairs.pop()
        if deg[a] < cap and deg[b] < cap:
            edges.add((a, b))
            deg[a] += 1
            deg[b] += 1
            added += 1
    return added


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
