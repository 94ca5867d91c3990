"""Polynomial polytree solvers for additive scores.

Without an in-degree bound the problem is a maximum-weight spanning forest:
weight each superstructure edge by its better orientation and run a greedy
forest build.  With a bound q it is a maximum-weight common independent set
of two matroids over the candidate arcs: the graphic matroid of the
skeleton (forest-ness) and the partition matroid capping each vertex's
incoming arcs at q.  The intersection is solved with weight-splitting
augmenting paths; after every augmentation the current set is maximum
weight for its cardinality, and the best stage overall is returned (a
polytree need not be spanning, so a basis is not required).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .instances import AdditiveInstance, Network, superstructure


@dataclass(frozen=True)
class GroundElement:
    """One candidate arc; both orientations of an edge share skeleton_edge."""

    arc: tuple[int, int]
    weight: int
    skeleton_edge: frozenset[int]


@dataclass(frozen=True)
class MatroidOracles:
    """Independence tests for the two matroids over candidate arcs."""

    n: int
    q: Optional[int]

    def graphic_independent(self, elements: Sequence[GroundElement]) -> bool:
        parent = list(range(self.n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        seen_edges = set()
        for e in elements:
            if e.skeleton_edge in seen_edges:
                return False
            seen_edges.add(e.skeleton_edge)
            a, b = sorted(e.skeleton_edge)
            ra, rb = find(a), find(b)
            if ra == rb:
                return False
            parent[ra] = rb
        return True

    def partition_independent(self, elements: Sequence[GroundElement]) -> bool:
        if self.q is None:
            return True
        indeg: dict[int, int] = {}
        for e in elements:
            v = e.arc[1]
            indeg[v] = indeg.get(v, 0) + 1
            if indeg[v] > self.q:
                return False
        return True


def arc_elements(instance: AdditiveInstance) -> list[GroundElement]:
    """Ground set: every positively scored arc (zero-weight arcs can never
    improve a solution and are left out)."""
    out = []
    for (u, v), w in sorted(instance.arc_scores.items()):
        out.append(GroundElement((u, v), w, frozenset((u, v))))
    return out


def solve_pl_additive_mst(instance: AdditiveInstance) -> tuple[int, Network]:
    """Unbounded polytree optimum via a maximum-weight spanning forest."""
    g = superstructure(instance)
    weighted = []
    for a, b in sorted(g.edges):
        w = max(instance.arc(a, b), instance.arc(b, a))
        if w > 0:
            weighted.append((w, a, b))
    weighted.sort(key=lambda t: (-t[0], t[1], t[2]))
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    arcs = set()
    total = 0
    for w, a, b in weighted:
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        parent[ra] = rb
        total += w
        fwd, bwd = instance.arc(a, b), instance.arc(b, a)
        if fwd > bwd or (fwd == bwd and a < b):
            arcs.add((a, b))
        else:
            arcs.add((b, a))
    return total, Network(instance.n, frozenset(arcs))


def weighted_matroid_intersection(
    elements: Sequence[GroundElement], oracles: MatroidOracles
) -> list[GroundElement]:
    """Maximum-weight common independent set over all cardinalities.

    Augmenting-path scheme: exchange arcs x->y when I-x+y stays independent
    in the graphic matroid and y->x for the partition matroid; node costs
    -weight outside I, +weight inside; augment along a minimum-cost,
    fewest-arcs source-to-sink path while one exists.
    """
    items = list(elements)
    m = len(items)
    in_set = [False] * m
    best_weight = 0
    best_set: list[int] = []

    def members(exclude=None, include=None):
        out = [items[i] for i in range(m) if in_set[i] and i != exclude]
        if include is not None:
            out.append(items[include])
        return out

    while True:
        sources = []
        sinks = set()
        for y in range(m):
            if in_set[y]:
                continue
            if oracles.graphic_independent(members(include=y)):
                sources.append(y)
            if oracles.partition_independent(members(include=y)):
                sinks.add(y)
        if not sources:
            break
        arcs: dict[int, list[int]] = {i: [] for i in range(m)}
        for x in range(m):
            if not in_set[x]:
                continue
            for y in range(m):
                if in_set[y]:
                    continue
                if oracles.graphic_independent(members(exclude=x, include=y)):
                    arcs[x].append(y)
                if oracles.partition_independent(members(exclude=x, include=y)):
                    arcs[y].append(x)

        def cost(z):
            return items[z].weight if in_set[z] else -items[z].weight

        INF = float("inf")
        dist = {z: (INF, INF) for z in range(m)}
        pred: dict[int, Optional[int]] = {}
        for s in sources:
            d = (cost(s), 0)
            if d < dist[s]:
                dist[s] = d
                pred[s] = None
        for _ in range(m + 1):
            changed = False
            for u in range(m):
                if dist[u][0] == INF:
                    continue
                for v in arcs[u]:
                    nd = (dist[u][0] + cost(v), dist[u][1] + 1)
                    if nd < dist[v]:
                        dist[v] = nd
                        pred[v] = u
                        changed = True
            if not changed:
                break
        target = None
        for y in sorted(sinks):
            if dist[y][0] == INF:
                continue
            if target is None or dist[y] < dist[target]:
                target = y
        if target is None:
            break
        path = []
        z = target
        while z is not None:
            path.append(z)
            z = pred.get(z)
        for z in path:
            in_set[z] = not in_set[z]
        weight = sum(items[i].weight for i in range(m) if in_set[i])
        if weight > best_weight:
            best_weight = weight
            best_set = [i for i in range(m) if in_set[i]]
    return [items[i] for i in best_set]


def solve_pl_additive_bounded(instance: AdditiveInstance) -> tuple[int, Network]:
    """In-degree-bounded polytree optimum via matroid intersection."""
    if instance.max_in_degree is None:
        raise ValueError("no in-degree bound; use solve_pl_additive_mst")
    elements = arc_elements(instance)
    oracles = MatroidOracles(instance.n, instance.max_in_degree)
    chosen = weighted_matroid_intersection(elements, oracles)
    arcs = frozenset(e.arc for e in chosen)
    total = sum(e.weight for e in chosen)
    return total, Network(instance.n, arcs)

