"""Subset DP over the dependent vertices.

A vertex is dependent when it has at least one non-empty candidate parent
set.  Every other vertex can only take the empty set, so it is a source
that no cycle passes through, and the sink-order subset DP (Silander &
Myllymäki, UAI 2006) runs over the k dependent vertices alone: best(W) is
the maximum, over v in W, of best(W - v) plus v's best listed parent set
whose dependent members lie in W - v.  The empty set always qualifies, so
that is 2^k * k steps, each a scan of one vertex's parent sets.
"""

from __future__ import annotations

from .instances import Network, NonZeroInstance


class TooManyDependentError(ValueError):
    def __init__(self, size, limit):
        super().__init__(
            f"{size} dependent vertices exceeds the limit {limit} "
            f"(2^{size} vertex subsets); use the record-DP "
            f"solvers instead (--algo kernel-lfen or lfen)"
        )


def dependent_vertices(instance: NonZeroInstance) -> tuple[int, ...]:
    """Vertices with at least one non-empty candidate parent set, ascending."""
    return tuple(
        v for v in range(instance.n)
        if any(parents for parents in instance.entries.get(v, {}))
    )


def solve_bnsl_depset(
    instance: NonZeroInstance, max_dependent: int = 5
) -> tuple[int, Network]:
    """Optimal acyclic network by the subset DP over at most
    `max_dependent` dependent vertices."""
    if max_dependent < 0:
        raise ValueError(
            f"the dependent-vertex limit must be at least 0, not {max_dependent}"
        )
    members = dependent_vertices(instance)
    k = len(members)
    if k > max_dependent:
        raise TooManyDependentError(k, max_dependent)
    bit = {x: 1 << i for i, x in enumerate(members)}
    # per member, its parent sets best first as (dependent mask, score,
    # parents); the stable sort keeps `parent_sets` order on ties
    options = [
        sorted(
            ((sum(bit.get(u, 0) for u in parents), instance.score(x, parents), parents)
             for parents in instance.parent_sets(x)),
            key=lambda o: -o[1],
        )
        for x in members
    ]
    # best[W]: every non-member's empty-set score plus the most W's members
    # score when their dependent parents lie in W
    best = [sum(instance.score(v, frozenset()) for v in range(instance.n) if v not in bit)]
    sink = [None]  # sink[W]: (member index, parent set) of W's last vertex
    for w in range(1, 1 << k):
        top = None
        for i in range(k):
            rest = w & ~(1 << i)
            if rest == w:
                continue
            s, parents = next(
                (s, parents) for mask, s, parents in options[i] if not mask & ~rest
            )
            if top is None or best[rest] + s > top:
                top, last = best[rest] + s, (i, parents)
        best.append(top)
        sink.append(last)
    arcs = set()
    w = (1 << k) - 1
    while w:
        i, parents = sink[w]
        arcs.update((u, members[i]) for u in parents)
        w &= ~(1 << i)
    return best[-1], Network(instance.n, frozenset(arcs))
