"""Polytree learning with additive scores: spanning forests when the
in-degree is free, matroid intersection when it is capped.

Run:  python demos/05_polytrees.py
"""

from bnsl import generate, score_of, validate
from bnsl.instances import AdditiveInstance
from bnsl.oracle import exact_pl
from bnsl.polytree import (
    MatroidOracles,
    arc_elements,
    solve_pl_additive_bounded,
    solve_pl_additive_mst,
    weighted_matroid_intersection,
)
from bnsl.tw_dp import solve_pl_additive_tw

free = generate.random_additive(seed_or_rng=21, n=8, fen=3)
s, net = solve_pl_additive_mst(free)
print("unbounded optimum via maximum spanning forest:", s)
print("  polytree?", validate(net, "polytree").ok)
assert s == exact_pl(free)[0]

capped = AdditiveInstance(free.n, free.names, free.arc_scores, max_in_degree=1)
s1, net1 = solve_pl_additive_bounded(capped)
print("in-degree 1 optimum via matroid intersection:", s1)
print("  valid with the cap?", validate(net1, "polytree", q=1).ok)

# the same bound solved by dynamic programming over a decomposition
s2, _ = solve_pl_additive_tw(capped)
print("bag DP agrees:", s1 == s2)

# a peek at the machinery: the two independence tests driving the augmenting
# search over the candidate arcs
elements = arc_elements(capped)
oracles = MatroidOracles(capped.n, 1)
chosen = weighted_matroid_intersection(elements, oracles)
print(f"{len(elements)} candidate arcs -> {len(chosen)} chosen, weight",
      sum(e.weight for e in chosen))
assert sum(e.weight for e in chosen) == s1 == score_of(capped, net1)
# the solver itself asks no oracle: it reads both answers off the forest
# of the current set, and picks the same arcs
print("forest answers agree:", weighted_matroid_intersection(elements, q=1) == chosen)
