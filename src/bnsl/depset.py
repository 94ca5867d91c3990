"""Branching solver over the arcs among dependent vertices.

A vertex is dependent when it has at least one non-empty candidate parent
set.  Only dependent vertices can ever receive parents, so branching over
the arc configurations among them (three states per pair) and choosing,
per branch, the best parent set that matches the configuration exactly
solves the problem; all other vertices stay parentless.
"""

from __future__ import annotations

from itertools import combinations

from .instances import Network, NonZeroInstance


class TooManyDependentError(ValueError):
    def __init__(self, size, limit):
        super().__init__(
            f"{size} dependent vertices exceeds the branching limit {limit} "
            f"(3^{size * (size - 1) // 2} branches); use the record-DP "
            f"solvers instead (--algo kernel-lfen or lfen)"
        )


def dependent_vertices(instance: NonZeroInstance) -> tuple[int, ...]:
    """Vertices with at least one non-empty candidate parent set, ascending."""
    return tuple(
        v for v in range(instance.n)
        if any(parents for parents in instance.entries.get(v, {}))
    )


def arc_configurations(members: tuple[int, ...]):
    """All arc sets over the members: per unordered pair, absent or one of
    the two orientations (3^(k choose 2) configurations)."""
    pairs = list(combinations(members, 2))

    def rec(i, arcs):
        if i == len(pairs):
            yield tuple(arcs)
            return
        x, y = pairs[i]
        yield from rec(i + 1, arcs)
        arcs.append((x, y))
        yield from rec(i + 1, arcs)
        arcs.pop()
        arcs.append((y, x))
        yield from rec(i + 1, arcs)
        arcs.pop()

    yield from rec(0, [])


def _acyclic(members, arcs) -> bool:
    indeg = {v: 0 for v in members}
    out = {v: [] for v in members}
    for u, v in arcs:
        out[u].append(v)
        indeg[v] += 1
    queue = [v for v in members if indeg[v] == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return seen == len(members)


def solve_bnsl_depset(
    instance: NonZeroInstance, max_dependent: int = 5
) -> tuple[int, Network]:
    """Optimal acyclic network by dependent-vertex branching over at most
    `max_dependent` dependent vertices."""
    if max_dependent < 0:
        raise ValueError(f"the branching limit must be at least 0, not {max_dependent}")
    members = dependent_vertices(instance)
    if len(members) > max_dependent:
        raise TooManyDependentError(len(members), max_dependent)
    xset = set(members)
    base = sum(
        instance.score(v, frozenset()) for v in range(instance.n) if v not in xset
    )
    best = None
    for arcs in arc_configurations(members):
        if not _acyclic(members, arcs):
            continue
        total = base
        chosen = []
        for x in members:
            required = frozenset(u for u, w in arcs if w == x)
            best_local, best_parents = None, None
            for parents in instance.parent_sets(x):
                if parents & xset != required:
                    continue
                s = instance.score(x, parents)
                if best_local is None or s > best_local:
                    best_local, best_parents = s, parents
            if best_parents is None:
                # the required set itself, unlisted, scores zero
                best_local, best_parents = 0, required
            total += best_local
            chosen.append((x, best_parents))
        if best is None or total > best[0]:
            net_arcs = set(arcs)
            for x, parents in chosen:
                for u in parents:
                    net_arcs.add((u, x))
            best = (total, frozenset(net_arcs))
    if best is None:
        raise RuntimeError("no acyclic arc configuration of the dependent vertices")
    return best[0], Network(instance.n, best[1])
