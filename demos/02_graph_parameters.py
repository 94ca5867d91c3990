"""Structural parameters that drive the solvers: feedback edges, the
localized feedback measure, and tree decompositions.

Run:  python demos/02_graph_parameters.py
"""

from bnsl import generate, superstructure
from bnsl.graphs import (
    check_nice,
    feedback_edge_set,
    lfen_of_tree,
    lfen_search,
    tree_decomposition,
)

# a random instance grown from a tree plus three extra edges
inst = generate.random_nonzero(seed_or_rng=11, n=14, fen=3, subdivisions=6)
g = superstructure(inst)
print(f"graph: {g.n} vertices, {g.edge_count()} edges")

sf = feedback_edge_set(g)
print("minimum feedback edge set:", sorted(sf.feedback_edges))

# any spanning tree bounds the localized measure by the feedback count;
# searching over trees usually does much better on near-tree graphs
w0 = lfen_of_tree(g, sf)
print("local interference of the BFS tree:", w0.value)

w = lfen_search(g)
print("best witness tree found:", w.value, "(exact)" if w.exact else "(upper bound)")
print("per-vertex counts:", list(w.local_counts))

td = tree_decomposition(g)
print("nice decomposition width:", td.width, "nodes:", len(td.nodes))
print("invariant violations:", check_nice(td, g) or "none")
