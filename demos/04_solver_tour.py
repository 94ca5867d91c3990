"""Every solver on the same inputs, cross-checked.

Run:  python demos/04_solver_tour.py
"""

from bnsl import generate, to_nonzero
from bnsl.depset import dependent_vertices, solve_bnsl_depset
from bnsl.lfen_dp import solve_bnsl_lfen
from bnsl.oracle import exact_bnsl
from bnsl.tw_dp import solve_bnsl_additive

print("-- explicit representation --")
inst = generate.random_limited_dependents(seed_or_rng=2, n=9, dependents=4)
print("dependent vertices:", [inst.names[v] for v in dependent_vertices(inst)])

s_oracle, _ = exact_bnsl(inst)
s_records, _ = solve_bnsl_lfen(inst)
s_depset, _ = solve_bnsl_depset(inst)
print(f"subset DP {s_oracle} | record DP {s_records} | dependent-vertex DP {s_depset}")
assert s_oracle == s_records == s_depset

print("-- additive representation --")
add = generate.random_additive(seed_or_rng=9, n=9, fen=3, q=2)
print(f"{len(add.arc_scores)} scored arcs, in-degree bound {add.max_in_degree}")
s_bag, net = solve_bnsl_additive(add)
print("bag DP optimum:", s_bag)

# the additive instance can be expanded and solved by the record DP too
expanded = to_nonzero(add)
s_cross, _ = solve_bnsl_lfen(expanded)
print("record DP on the expanded instance:", s_cross)
assert s_bag == s_cross == exact_bnsl(add)[0]
print("all solvers agree")
