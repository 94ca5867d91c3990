"""Polynomial polytree solvers for additive scores.

Without an in-degree bound the problem is a maximum-weight spanning forest:
weight each superstructure edge by its better orientation and run a greedy
forest build.  With a bound q it is a maximum-weight common independent set
of two matroids over the candidate arcs: the graphic matroid of the
skeleton (forest-ness) and the partition matroid capping each vertex's
incoming arcs at q.

The intersection grows a common independent set I one augmentation at a
time.  Each round builds the exchange graph of I: a non-member y is a
source when I+y is a forest and a sink when I+y respects the caps; x->y
when I-x+y is a forest and y->x when I-x+y respects the caps.  I-x+y is
independent iff I+y is, or x lies on the circuit I+y closes, so the arcs
come from two circuits per non-member, read off the rooted forest of I:
the graphic circuit is I's members on the forest path between y's
endpoints, the partition circuit is I's members with y's head.  Nodes cost
-weight outside I and +weight inside; Bellman-Ford finds a minimum-cost
source-to-sink path, ties broken by fewest arcs, and I is flipped along
it.  After every augmentation I is maximum weight for its cardinality, and
the best stage overall is returned (a polytree need not be spanning, so a
basis is not required).
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

        # a repeated skeleton edge (both orientations) closes a 2-cycle
        for e in elements:
            a, b = e.skeleton_edge
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


def _forest_links(items, inside):
    """Root the forest of the members `inside`: vertex -> (parent vertex,
    member on the parent edge, depth), and the members grouped by head."""
    adj: dict[int, list[tuple[int, int]]] = {}
    by_head: dict[int, list[int]] = {}
    for i in inside:
        a, b = items[i].skeleton_edge
        adj.setdefault(a, []).append((b, i))
        adj.setdefault(b, []).append((a, i))
        by_head.setdefault(items[i].arc[1], []).append(i)
    link: dict[int, tuple] = {}
    for r in adj:
        if r in link:
            continue
        link[r] = (None, None, 0)
        stack = [r]
        while stack:
            v = stack.pop()
            depth = link[v][2] + 1
            for w, i in adj[v]:
                if w not in link:
                    link[w] = (v, i, depth)
                    stack.append(w)
    return link, by_head


def _forest_path(link, u: int, w: int) -> list[int]:
    """Members on the forest path between two vertices of one tree."""
    out = []
    while u != w:
        (pu, iu, du), (pw, iw, dw) = link[u], link[w]
        if du >= dw:
            out.append(iu)
            u = pu
        else:
            out.append(iw)
            w = pw
    return out


def weighted_matroid_intersection(
    elements: Sequence[GroundElement], oracles: MatroidOracles
) -> list[GroundElement]:
    """Maximum-weight common independent set over all cardinalities.

    Augmenting paths over the exchange graph of the current set I (see
    the module docstring).  Per round each non-member y costs one query of
    each oracle, on I+y; every node's out-arcs are listed in ascending
    order, which fixes the order in which Bellman-Ford relaxes them.
    """
    items = list(elements)
    m = len(items)
    in_set = [False] * m
    best_weight = 0
    best_set: list[int] = []

    while True:
        inside = [i for i in range(m) if in_set[i]]
        chosen = [items[i] for i in inside]
        link, by_head = _forest_links(items, inside)
        sources = []
        sinks = set()
        arcs: list[list[int]] = [[] for _ in range(m)]
        for y in range(m):
            if in_set[y]:
                continue
            trial = chosen + [items[y]]
            if oracles.graphic_independent(trial):
                sources.append(y)
                exchange = inside
            else:
                exchange = _forest_path(link, *items[y].skeleton_edge)
            for x in exchange:
                arcs[x].append(y)
            if oracles.partition_independent(trial):
                sinks.add(y)
                arcs[y] = inside
            else:
                arcs[y] = by_head.get(items[y].arc[1], [])
        if not sources:
            break

        cost = [items[z].weight if in_set[z] else -items[z].weight for z in range(m)]
        INF = float("inf")
        dist = [(INF, INF)] * m
        pred: dict[int, Optional[int]] = {}
        for s in sources:
            d = (cost[s], 0)
            if d < dist[s]:
                dist[s] = d
                pred[s] = None
        for _ in range(m + 1):
            changed = False
            for u in range(m):
                du, hu = dist[u]
                if du == INF:
                    continue
                for v in arcs[u]:
                    nd = (du + cost[v], hu + 1)
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

