"""Data reduction in action: shrink an instance, solve the kernel, lift
the solution back.

Run:  python demos/03_kernelization.py
"""

from bnsl import generate, score_of, superstructure, validate
from bnsl.kernel import drop_dominated, kernelize_bnsl, kernelize_pl
from bnsl.lfen_dp import solve_bnsl_lfen, solve_pl_lfen

# plant two feedback edges and stretch the graph with long degree-2 paths
inst = generate.random_nonzero(seed_or_rng=5, n=24, fen=2, subdivisions=18)
g = superstructure(inst)
print(f"original: {inst.n} variables, {g.edge_count()} edges, "
      f"{inst.entry_count()} parent sets")
# rule 0: a set goes when a listed subset (or the empty set) scores at least as much
dominated = sum(len(sets) - len(drop_dominated(sets)) for sets in inst.entries.values())
print(f"rule 0 finds {dominated} dominated parent sets in the input")

result = kernelize_bnsl(inst)
print(f"reduced:  {result.reduced.n} variables "
      f"(bound 16*fen = 32), {len(result.steps)} rule applications")
for step in result.steps:
    # rule 0 records no step: it only drops sets, and the lift never reads them
    kind = {1: "absorb leaves", 2: "contract path", 3: "contract path"}[step["rule"]]
    print("  -", kind, "at",
          step.get("v", step.get("inner", "?")))

score, net = solve_bnsl_lfen(result.reduced)
lifted = result.lift(net)
print("kernel optimum:", score)
print("lifted network valid:", validate(lifted, "dag").ok,
      "score:", score_of(inst, lifted))
# the original is past the exhaustive solver's size limit; the record DP
# confirms the kernel lost nothing
print("direct record-DP optimum:", solve_bnsl_lfen(inst)[0])

# the polytree variant keeps path-connectivity information in its gadget
pl_result = kernelize_pl(inst)
pscore, pnet = solve_pl_lfen(pl_result.reduced)
plifted = pl_result.lift(pnet)
print("polytree kernel:", pl_result.reduced.n, "variables;",
      "optimum", pscore,
      "| lifted polytree valid:", validate(plifted, "polytree").ok,
      "score:", score_of(inst, plifted))
assert score_of(inst, plifted) == solve_pl_lfen(inst)[0]
