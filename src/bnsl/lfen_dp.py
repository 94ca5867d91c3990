"""Record dynamic programs over a witness spanning tree.

Processes a rooted spanning tree leaf-to-root.  The state at a tree vertex
v summarizes, for the partial solutions living on v's subtree (arcs may
enter the subtree from outside, never leave it), exactly what the rest of
the graph can observe: for acyclic networks a strict-reachability relation
on the boundary delta(v), for polytrees the connected components of the
inner boundary plus the arcs entering the subtree.  Per state only the best
score is kept; boundaries stay small when few non-tree edges interfere
locally, which is what makes this fast on near-tree superstructures.

The solvers also drop every record that another record of the same vertex
dominates, with a subset key and a score at least as high
(`_RecordEngine._prune`, through the bag DP's prune
`relations.undominated`), which keeps the optimum but may pick another
optimal network on ties.  `record_tables` and `pl_record_tables` return
the tables the solvers keep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import relations
from .graphs import SpanningForest, lfen_of_tree, lfen_search
from .instances import Network, NonZeroInstance, Superstructure, superstructure


@dataclass(frozen=True)
class Boundary:
    """Endpoints of edges with exactly one endpoint inside v's subtree."""

    vertex: int
    delta: tuple[int, ...]
    delta_in: tuple[int, ...]
    delta_out: tuple[int, ...]
    children: tuple[int, ...]


def boundaries(g: Superstructure, forest: SpanningForest) -> list[Boundary]:
    """Per-vertex boundary data for a rooted spanning forest of g."""
    # an edge has exactly one endpoint in v's subtree iff v lies on the
    # tree path from an endpoint up to (excluding) the endpoints' lowest
    # common ancestor: walk that path once per edge, O(n + sum of lengths).
    # On a's side of the path a is inside the subtree and b outside.
    parent = forest.parent
    depth = forest.depth
    ins: list[set[int]] = [set() for _ in range(g.n)]
    outs: list[set[int]] = [set() for _ in range(g.n)]
    for a, b in g.edges:
        x, y = a, b
        while x != y:
            if y is None or (x is not None and depth[x] >= depth[y]):
                ins[x].add(a)
                outs[x].add(b)
                x = parent[x]
            else:
                ins[y].add(b)
                outs[y].add(a)
                y = parent[y]
    out = []
    for v, children in forest.children_lists().items():
        din, dout = tuple(sorted(ins[v])), tuple(sorted(outs[v]))
        out.append(Boundary(v, tuple(sorted(ins[v] | outs[v])), din, dout, tuple(children)))
    return out


class _RecordEngine:
    """Leaf-to-root record DP over a rooted spanning forest.

    Every key is a relation on the sorted delta of its vertex, one int
    (bnsl.relations); `public(v, key)` gives it in the engine's public
    format.  `combine_records(v)`, which also serves the leaves, folds the
    children into each parent set of v one at a time, over a dense
    index range(d) of everything the combination can mention, and
    deduplicates after every child on the merged state cut down to the
    indices later steps can observe.  Fold states are relations over the
    index too; child keys enter it, in ascending order, and final states
    leave it for delta(v), through maps compiled once per vertex and child
    (`relations.remap`).  Subclasses supply the merge in two hooks:
    `operand(state, d)` reads a state, or a child record, for the merge,
    once per state and once per child record; `glue(held, cheld, outside,
    d)` merges two operands into a state before the cut, or None when the
    union is not allowed (`outside` masks the rows of delta_out(v)).
    tables[v] maps a key to (score, (parents, chain)): v's parent set, and
    (child, key) for the record picked in each child's table.  A child
    whose subtree meets the rest of the graph only through its tree edge
    is folded the same way; the CLI removes such pendant trees with the
    kernel's rule 1 before it runs the DP (`kernel.absorb_leaves`).  `fill`
    keeps only the records of each table that no other record dominates
    (`_prune`), so a tie may pick another optimal network.
    """

    root_key = 0

    def __init__(self, instance: NonZeroInstance, g: Superstructure, forest: SpanningForest):
        self.instance = instance
        self.g = g
        self.forest = forest
        self.bounds = boundaries(g, forest)
        bound = 2 * lfen_of_tree(g, forest).value + 2
        if any(len(b.delta) > bound for b in self.bounds):
            raise RuntimeError("boundary exceeds 2k+2")
        self.tables: list[Optional[dict]] = [None] * g.n

    def records(self, v: int) -> dict:
        """tables[v] as {public key: best score}."""
        return {self.public(v, key): sc for key, (sc, _) in self.tables[v].items()}

    def fill(self):
        """Fill the tables, children before parents."""
        for v in self.forest.order[::-1]:
            self.tables[v] = self._prune(self.combine_records(v))

    @staticmethod
    def _prune(table: dict) -> dict:
        """The entries of `table` that no other entry dominates, in their
        insertion order (`relations.undominated`, with zero counts).

        Record (key', s') dominates (key, s) when key' is a subset of key,
        read as pair sets, and s' >= s.  Dropping the second keeps the
        optimum, because every later step is monotone in the key.  A
        subset of a strict order closes no cycle that the whole order does
        not close, in the 2-cycle AND and in `closed_union`, and its closed
        union with any operand is a subset of the whole order's.  A subset
        of a polytree key shares no pair that the whole key does not share,
        and the class-count test passes for it whenever it passes for the
        whole key: a sub-forest of a forest is a forest (the rank of a
        graphic matroid is submodular), and its classes refine the whole
        key's.  `& cut` and `remap` keep subsets, and scores add.  So
        whatever a dominated record is merged into, its dominator, merged
        with the same parent set and the same other records, gives a subset
        key with a score at least as high, at every vertex up to the root,
        which holds the one empty key: the root score is unchanged, though
        a tie may pick another optimal network.  No part of the key has to
        match: an arc on a boundary edge is chosen once, by its head's
        parent set, and the reverse arc closes a cycle that the key
        catches.
        """
        kept = relations.undominated({(key, 0): entry for key, entry in table.items()}, 0)
        return {key: entry for (key, _), entry in kept.items()}

    def parent_choices(self, v: int):
        """(parents, score) for each parent set of v."""
        for parents in self.instance.parent_sets(v):
            if not parents <= self.g.adj[v]:
                raise RuntimeError("parent outside superstructure")
            yield parents, self.instance.score(v, parents)

    def solve(self) -> tuple[int, Network]:
        """Optimum score and a witness network, collected without recursion."""
        self.fill()
        total = 0
        arcs: set[tuple[int, int]] = set()
        for r in self.forest.roots:
            table = self.tables[r]
            if list(table) != [self.root_key]:
                raise RuntimeError("root must hold the single empty record")
            total += table[self.root_key][0]
            stack = [(r, self.root_key)]
            while stack:
                v, key = stack.pop()
                parents, chain = self.tables[v][key][1]
                arcs.update((p, v) for p in parents)
                stack.extend(chain)
        return total, Network(self.instance.n, frozenset(arcs))

    def combine_records(self, v: int) -> dict:
        b = self.bounds[v]
        children = b.children

        # dense local index over everything the combination can mention
        ground = {v}
        ground.update(self.g.adj[v])
        for c in children:
            ground.update(self.bounds[c].delta)
        ground = sorted(ground)
        d = len(ground)
        gidx = {x: i for i, x in enumerate(ground)}
        dout = set(b.delta_out)
        outside = relations.pack(((1 << d) - 1 if x in dout else 0 for x in ground), d)
        to_delta = relations.remap(ground, b.delta)

        frontier_after = []
        acc = sum(1 << gidx[x] for x in b.delta)
        for c in reversed(children):
            frontier_after.append(acc)
            for x in self.bounds[c].delta:
                acc |= 1 << gidx[x]
        frontier_after.reverse()  # frontier_after[i]: mask kept after folding children[i]
        cuts = [relations.cut_mask(keep, d) for keep in frontier_after]

        # each child's records, translated once into the ground index
        operand, glue = self.operand, self.glue
        child_records = []
        for c in children:
            ctable = self.tables[c]
            to_ground = relations.remap(self.bounds[c].delta, ground)
            child_records.append([
                (operand(to_ground(ckey), d), ctable[ckey][0], ckey) for ckey in sorted(ctable)
            ])

        table: dict = {}
        for parents, base in self.parent_choices(v):
            # fold the children one by one, deduplicating on the
            # merged state cut down to what later steps can still observe
            states = {relations.from_pairs([(p, v) for p in parents], ground): (base, ())}
            for c, cut, crecords in zip(children, cuts, child_records):
                nxt: dict = {}
                for state, (score, chain) in states.items():
                    held = operand(state, d)
                    for cheld, cscore, ckey in crecords:
                        merged = glue(held, cheld, outside, d)
                        if merged is None:
                            continue
                        merged &= cut
                        val = score + cscore
                        cur = nxt.get(merged)
                        if cur is None or val > cur[0]:
                            nxt[merged] = (val, chain + ((c, ckey),))
                states = nxt
            for state, (score, chain) in states.items():
                key = to_delta(state)
                cur = table.get(key)
                if cur is None or score > cur[0]:
                    table[key] = (score, (parents, chain))
        return table


def _engine(cls, instance: NonZeroInstance, forest=None):
    g = superstructure(instance)
    if forest is None:
        forest = lfen_search(g).forest
    return cls(instance, g, forest)


class _BnslEngine(_RecordEngine):
    """Acyclic-network record DP; keys are strict-reachability relations."""

    def public(self, v: int, key: int) -> frozenset:
        return relations.to_pairs(key, self.bounds[v].delta)

    @staticmethod
    def operand(state: int, d: int):
        """The state with its support mask and its transpose."""
        return state, relations.support(state, d), relations.transpose(state, d)

    @staticmethod
    def glue(held, cheld, outside: int, d: int):
        """The closed union, or None when it has a cycle.

        A pair (i, j) of the state whose converse (j, i) the child holds is
        a 2-cycle of the union, whose closure then relates i to itself:
        `closed_union` would return None too, so one AND on the child's
        transpose rejects the pair first.  Longer cycles (a shortest one
        may alternate between the operands four times) are left to
        `closed_union`.  Both operands are closed (v's parent arcs, a
        child's key, a closed state cut down to the kept indices), so a
        shortest path of their union alternates between them and switches
        only at indices both touch: Warshall needs pivots there alone, and
        only a pivot closes a cycle."""
        (m, sup, _), (cm, csup, cmt) = held, cheld
        if m & cmt:
            return None
        return relations.closed_union(m, cm, sup & csup, d)


def solve_bnsl_lfen(
    instance: NonZeroInstance, forest: Optional[SpanningForest] = None
) -> tuple[int, Network]:
    """Optimal acyclic network via the record DP on a witness tree."""
    return _engine(_BnslEngine, instance, forest).solve()


def record_tables(
    instance: NonZeroInstance, forest: Optional[SpanningForest] = None
):
    """The per-vertex record tables that `solve_bnsl_lfen` keeps, as
    {vertex: {pair set: score}}, and the engine that filled them."""
    eng = _engine(_BnslEngine, instance, forest)
    eng.fill()
    return {v: eng.records(v) for v in range(instance.n)}, eng


# ---------------------------------------------------------------------------
# polytree variant


class _PlEngine(_RecordEngine):
    """Record DP for polytrees.  A key's rows for the inner boundary
    delta_in relate the vertices that the partial skeleton inside the
    subtree connects; its rows for delta_out hold the arcs entering the
    subtree."""

    def public(self, v: int, key: int) -> tuple:
        """(partition of delta_in into components, entering arcs)."""
        b = self.bounds[v]
        pairs = relations.to_pairs(key, b.delta)
        groups = {tuple(y for y in b.delta_in if y == x or (x, y) in pairs) for x in b.delta_in}
        return tuple(sorted(groups)), frozenset((x, y) for x, y in pairs if x in b.delta_out)

    @staticmethod
    def operand(state: int, d: int):
        """The state with its class count."""
        return state, len(relations.classes(state, d))

    @staticmethod
    def glue(held, cheld, outside: int, d: int):
        """The merged state, or None when the union is not a forest.

        Each operand is a forest on the index once each of its components
        is cut down to its index vertices, and the operands share no other
        vertex.  A forest on d vertices with k components has d - k edges,
        so the union (a shared edge counted twice, as the 2-cycle it
        closes) is a forest exactly when its d - k_a + d - k_b edges leave
        d - that many components, as the bag DP's join also tests.  A pair
        of distinct indices that both operands relate joins them in both
        forests: the union then holds two paths between them (or one edge
        twice), fails that count, and is rejected by one AND before the
        classes are counted."""
        (m, count), (cm, ccount) = held, cheld
        if m & cm:
            return None
        merged = m | cm
        if len(relations.classes(merged, d)) != count + ccount - d:
            return None
        # inside tails keep only their components; inside rows point inside
        # only, and outside rows keep their arcs entering the subtree
        inner = relations.classes(merged & ~outside, d)
        return merged & outside | relations.class_rows(inner, d)


def solve_pl_lfen(
    instance: NonZeroInstance, forest: Optional[SpanningForest] = None
) -> tuple[int, Network]:
    """Optimal polytree via the component-counting record DP."""
    return _engine(_PlEngine, instance, forest).solve()


def pl_record_tables(
    instance: NonZeroInstance, forest: Optional[SpanningForest] = None
):
    """The per-vertex record tables that `solve_pl_lfen` keeps, as {vertex:
    {(partition, entering arcs): score}}, and the engine that filled them."""
    eng = _engine(_PlEngine, instance, forest)
    eng.fill()
    return {v: eng.records(v) for v in range(instance.n)}, eng
