"""Walk through the data model: score files, scoring, validation.

Run:  python demos/01_scores_and_validation.py
"""

from bnsl import (
    Network,
    parse_nonzero,
    score_of,
    superstructure,
    validate,
    write_solution,
)
from bnsl.oracle import exact_bnsl

SCORES = """\
4
a 3
1 1 b
1 1 c
2 2 b c
b 3
1 1 a
1 1 c
3 2 a c
c 2
3 1 a
2 1 b
d 1
1 2 b c
"""

inst = parse_nonzero(SCORES)
print(f"{inst.n} variables, {inst.entry_count()} listed parent sets")

g = superstructure(inst)
print("superstructure edges:",
      [(inst.names[a], inst.names[b]) for a, b in sorted(g.edges)])

# the known-optimal network: b <- {a,c}, c <- {a}, d <- {b,c}
a, b, c, d = range(4)
net = Network(4, frozenset({(a, b), (c, b), (a, c), (b, d), (c, d)}))
print("score of the hand-built network:", score_of(inst, net))
print("as a solution file:")
print(write_solution(net, inst))

print("acyclic?", validate(net, "dag").ok)
bad = validate(net, "polytree")
print("polytree?", bad.ok, "-", bad.reason,
      [inst.names[v] for v in bad.cycle])

best, witness = exact_bnsl(inst)
print("exhaustive optimum:", best)
