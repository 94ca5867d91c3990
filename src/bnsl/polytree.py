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
when I-x+y is a forest and y->x when I-x+y respects the caps.  Both
questions about I+y are answered in O(1) from the rooted forest of I:
y's endpoints lie in different trees, and y's head has fewer than q
members.  I-x+y is independent iff I+y is, or x lies on the circuit I+y
closes.  So every member has an arc to every source and every sink an
arc to every member (the dense arcs); the other arcs come from two
circuits per non-member, read off the same forest: the graphic circuit
is I's members on the forest path between y's endpoints, the partition
circuit is I's members with y's head.  Nodes cost -weight outside I and
+weight inside; Bellman-Ford finds a minimum-cost source-to-sink path,
ties broken by fewest arcs, and I is flipped along it.  The dense and
partition-circuit arcs are never listed: each node pulls its best
in-neighbour from running minima, so a pass costs O(m) plus the graphic
circuits.  After every augmentation I is maximum weight for its
cardinality, and the best stage overall is returned (a polytree need not
be spanning, so a basis is not required).

The bounded solver runs the intersection on the 2-core of the
superstructure only, with the bag DP's fold (`tw_dp.Fold`).  The trees
hanging off the core touch it only through the in-degree of the core
vertex they hang from: with k core parents, x collects a base plus its
q - k best positive gains.  Those gains enter the ground set as virtual
arcs into x, each from a fresh leaf id (n, n+1, ...), so the core arcs
plus the virtual arcs an optimum picks score the folded optimum less the
bases, and the hanging trees leave the ground set.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from .instances import AdditiveInstance, Network, find, superstructure
from .tw_dp import Fold


@dataclass(frozen=True)
class GroundElement:
    """One candidate arc and its weight; the graphic matroid reads the arc's
    two endpoints, so both orientations of an edge are one skeleton edge."""

    arc: tuple[int, int]
    weight: int


@dataclass(frozen=True)
class MatroidOracles:
    """Independence tests for the two matroids over candidate arcs."""

    n: int
    q: Optional[int]

    def graphic_independent(self, elements: Sequence[GroundElement]) -> bool:
        parent = list(range(self.n))

        def find(x):  # its own copy: tests check the library against it
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        # a repeated skeleton edge (both orientations) closes a 2-cycle
        for e in elements:
            a, b = e.arc
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
        out.append(GroundElement((u, v), w))
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
    arcs = set()
    total = 0
    for w, a, b in weighted:
        ra, rb = find(parent, a), find(parent, b)
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
    member on the parent edge, depth), vertex -> its tree's root, and the
    members grouped by head.  Vertices that no member touches are left
    out of both maps."""
    adj: dict[int, list[tuple[int, int]]] = {}
    by_head: dict[int, list[int]] = {}
    for i in inside:
        a, b = items[i].arc
        adj.setdefault(a, []).append((b, i))
        adj.setdefault(b, []).append((a, i))
        by_head.setdefault(items[i].arc[1], []).append(i)
    link: dict[int, tuple] = {}
    root: dict[int, int] = {}
    for r in adj:
        if r in link:
            continue
        link[r] = (None, None, 0)
        root[r] = r
        stack = [r]
        while stack:
            v = stack.pop()
            depth = link[v][2] + 1
            for w, i in adj[v]:
                if w not in link:
                    link[w] = (v, i, depth)
                    root[w] = r
                    stack.append(w)
    return link, root, by_head


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


def _node_costs(items, in_set) -> list[int]:
    """Exchange-graph node costs: +weight inside I, -weight outside."""
    return [e.weight if inside else -e.weight for e, inside in zip(items, in_set)]


def weighted_matroid_intersection(
    elements: Sequence[GroundElement],
    oracles: Optional[MatroidOracles] = None,
    q: Optional[int] = None,
) -> list[GroundElement]:
    """Maximum-weight common independent set over all cardinalities.

    Augmenting paths over the exchange graph of the current set I (see
    the module docstring).  Per round each non-member y needs two
    answers: is I+y a forest, and does it respect the caps.  With
    `oracles` they come from one query of each oracle on I+y (`q` is then
    unused); without, they are read off the rooted forest of I in O(1):
    y's endpoints lie in different trees, and y's head has fewer than `q`
    members (always, when `q` is None).  Both give the same result.

    Bellman-Ford runs Gauss-Seidel passes over the nodes in element
    order, each relaxing its out-arcs with the (cost, hops) it holds when
    its turn comes (its snapshot).  The dense arcs (every member to every
    source, every sink to every member) and the partition-circuit arcs
    (every non-sink to the members with its head) are not built: all arcs
    into a node add the same node cost, so its best in-neighbour is the
    earliest one with the least snapshot.  Each node takes the least
    snapshot published before it (running minima over members, over
    sinks, and per head over non-sinks) when its turn comes, and the
    least published after it at the end of the pass.  The graphic-circuit
    arcs, member to non-source, are relaxed one by one.  This gives the
    distances, predecessors and pass count of relaxing every arc in
    ascending order, in O(m + graphic-circuit arcs) per pass.

    Raises RuntimeError if the distances still change after m+1 passes
    or the predecessors close a cycle, neither of which happens on
    consistent oracles.
    """
    items = list(elements)
    m = len(items)
    head = [e.arc[1] for e in items]
    in_set = [False] * m
    best_weight = 0
    best_set: list[int] = []
    INF = float("inf")

    while True:
        inside = [i for i in range(m) if in_set[i]]
        link, root, by_head = _forest_links(items, inside)
        source = [False] * m
        sink = [False] * m
        circuit: list[list[int]] = [[] for _ in range(m)]
        for y in range(m):
            if in_set[y]:
                continue
            a, b = items[y].arc
            if oracles is None:
                forest = root.get(a, a) != root.get(b, b)
                capped = q is None or len(by_head.get(head[y], ())) < q
            else:
                trial = [items[i] for i in inside + [y]]
                forest = oracles.graphic_independent(trial)
                capped = oracles.partition_independent(trial)
            if forest:
                source[y] = True
            else:
                for x in _forest_path(link, a, b):
                    circuit[x].append(y)
            sink[y] = capped
        if not any(source):
            break

        cost = _node_costs(items, in_set)
        dist = [(INF, INF)] * m
        pred: list[Optional[int]] = [None] * m
        for y in range(m):
            if source[y]:
                dist[y] = (cost[y], 0)

        for _ in range(m + 1):
            changed = False
            snap: list[Optional[tuple]] = [None] * m
            # forward: each node pulls from the snapshots published before
            # it, then publishes its own; backward: from those after it
            for forward in (True, False):
                members = sinks = None
                heads: dict[int, tuple] = {}
                for u in range(m) if forward else range(m - 1, -1, -1):
                    if in_set[u]:
                        best = heads.get(head[u])
                        if best is None or (sinks is not None and sinks < best):
                            best = sinks
                    else:
                        best = members if source[u] else None
                    if best is not None:
                        nd = (best[0] + cost[u], best[1] + 1)
                        if nd < dist[u]:
                            dist[u] = nd
                            pred[u] = best[2]
                            changed = True
                    if forward and dist[u][0] != INF:
                        du, hu = dist[u]
                        snap[u] = (du, hu, u)
                        for y in circuit[u]:
                            nd = (du + cost[y], hu + 1)
                            if nd < dist[y]:
                                dist[y] = nd
                                pred[y] = u
                                changed = True
                    s = snap[u]
                    if s is None:
                        continue
                    if in_set[u]:
                        if members is None or s < members:
                            members = s
                    elif sink[u]:
                        if sinks is None or s < sinks:
                            sinks = s
                    else:
                        least = heads.get(head[u])
                        if least is None or s < least:
                            heads[head[u]] = s
            if not changed:
                break
        else:
            raise RuntimeError("matroid intersection: Bellman-Ford did not "
                               f"converge in {m + 1} passes")
        target = None
        for y in range(m):
            if not sink[y] or dist[y][0] == INF:
                continue
            if target is None or dist[y] < dist[target]:
                target = y
        if target is None:
            break
        path = []
        z = target
        while z is not None:
            if len(path) == m:
                raise RuntimeError("matroid intersection: predecessor cycle")
            path.append(z)
            z = pred[z]
        for z in path:
            in_set[z] = not in_set[z]
        weight = sum(items[i].weight for i in range(m) if in_set[i])
        if weight > best_weight:
            best_weight = weight
            best_set = [i for i in range(m) if in_set[i]]
    return [items[i] for i in best_set]


def folded_elements(instance: AdditiveInstance, fold: Fold) -> list[GroundElement]:
    """The ground set on `fold`'s 2-core: every positive arc with both ends
    in the core, then, for each core vertex x with hanging trees, one
    virtual arc per gain among its q best, from a fresh leaf id (n, n+1,
    ...) into x and weighing that gain."""
    core = frozenset(fold.core)
    out = [e for e in arc_elements(instance) if core.issuperset(e.arc)]
    leaf = instance.n
    for x in sorted(fold.bonus):
        for gain, _ in fold.hang[x][1][:fold.q]:
            out.append(GroundElement((leaf, x), gain))
            leaf += 1
    return out


def solve_pl_additive_bounded(instance: AdditiveInstance) -> tuple[int, Network]:
    """In-degree-bounded polytree optimum via matroid intersection on the
    2-core of the superstructure.

    The trees hanging off the core are folded as the bag DP folds them
    (`tw_dp.Fold`): a core vertex x with k parents in the core collects
    bonus[x][k], its hanging trees' best score with q - k parent slots
    left, that is a base plus its q - k best positive gains.  The gains
    enter the ground set as virtual arcs (`folded_elements`): each comes
    from a leaf of its own, so it never closes a skeleton cycle, and it
    counts against x's cap as a core arc does.  Given the core arcs chosen,
    the best virtual arcs fill x's free slots, so the intersection's
    optimum plus the bases is the folded optimum.  The score is summed as
    the bag DP sums it (core arcs, each core vertex's bonus at its core
    in-degree, the tree components), and `Fold.lift` completes the
    witness, so the two agree by construction.
    """
    q = instance.max_in_degree
    if q is None:
        raise ValueError("no in-degree bound; use solve_pl_additive_mst")
    fold = Fold(instance, superstructure(instance))
    chosen = weighted_matroid_intersection(folded_elements(instance, fold), q=q)
    core = [e for e in chosen if e.arc[0] < instance.n]  # virtual arcs start at n
    arcs = [e.arc for e in core]
    indeg = Counter(v for _, v in arcs)
    total = sum(e.weight for e in core) + fold.tree_score()
    total += sum(bonus[indeg[x]] for x, bonus in fold.bonus.items())
    return total, Network(instance.n, frozenset(arcs) | fold.lift(arcs))
