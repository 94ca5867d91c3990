"""Record dynamic programs over a witness spanning tree.

Processes a rooted spanning tree leaf-to-root.  The state at a tree vertex
v summarizes, for the partial solutions living on v's subtree (arcs may
enter the subtree from outside, never leave it), exactly what the rest of
the graph can observe: for acyclic networks a strict-reachability relation
on the boundary delta(v), for polytrees the connected components of the
inner boundary plus the arcs entering the subtree.  Per state only the best
score is kept; boundaries stay small when few non-tree edges interfere
locally, which is what makes this fast on near-tree superstructures.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
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
    open_children: tuple[int, ...]
    closed_children: tuple[int, ...]


def boundaries(g: Superstructure, forest: SpanningForest) -> list[Boundary]:
    """Per-vertex boundary data for a rooted spanning forest of g.

    A child w is closed when delta(w) is just {w, parent}; every deeper
    connection of a closed subtree runs through that single tree edge.
    """
    children = forest.children_lists()
    return _boundaries(g, forest, children, _subtree_masks(forest, children))


def _boundaries(
    g: Superstructure, forest: SpanningForest, children, subtree: list[int]
) -> list[Boundary]:
    # an edge has exactly one endpoint in v's subtree iff v lies on the
    # tree path from an endpoint up to (excluding) the endpoints' lowest
    # common ancestor: walk that path once per edge, O(n + sum of lengths)
    n = g.n
    parent = forest.parent
    depth = forest.depth
    dsets: list[set[int]] = [set() for _ in range(n)]
    for a, b in g.edges:
        x, y = a, b
        while x != y:
            if y is None or (x is not None and depth[x] >= depth[y]):
                dsets[x].update((a, b))
                x = parent[x]
            else:
                dsets[y].update((a, b))
                y = parent[y]
    deltas = [tuple(sorted(d)) for d in dsets]
    out = []
    for v in range(n):
        mask = subtree[v]
        din = tuple(x for x in deltas[v] if mask >> x & 1)
        dout = tuple(x for x in deltas[v] if not mask >> x & 1)
        opens, closeds = [], []
        for c in children[v]:
            if len(deltas[c]) <= 2:
                closeds.append(c)
            else:
                opens.append(c)
        out.append(Boundary(v, deltas[v], din, dout, tuple(opens), tuple(closeds)))
    return out


def _subtree_masks(forest: SpanningForest, children) -> list[int]:
    """Bitmask of each vertex's subtree, children before parents."""
    subtree = [0] * forest.n
    for v in forest.order[::-1]:
        mask = 1 << v
        for c in children[v]:
            mask |= subtree[c]
        subtree[v] = mask
    return subtree


class _RecordEngine:
    """Leaf-to-root record DP over a rooted spanning forest.

    Subclasses fix the key format and build the tables: `root_key`,
    `closed_key(c, take_arc)` (the key of closed child c's record without
    or with the arc from its tree parent into c), `records(v)` (tables[v]
    in the public key format) and `combine_records(v)`, which also serves
    the leaves.  tables[v] maps a key to (score, (parents, closed choice,
    open choice)): v's parent set, whether each closed child takes the arc
    from v, and the key picked in each open child's table.
    """

    root_key: tuple = ()

    def __init__(self, instance: NonZeroInstance, g: Superstructure, forest: SpanningForest):
        self.instance = instance
        self.g = g
        self.forest = forest
        self.children = forest.children_lists()
        self.subtree = _subtree_masks(forest, self.children)
        self.bounds = _boundaries(g, forest, self.children, self.subtree)
        bound = 2 * lfen_of_tree(g, forest).value + 2
        if any(len(b.delta) > bound for b in self.bounds):
            raise RuntimeError("boundary exceeds 2k+2")
        self.tables: list[Optional[dict]] = [None] * g.n

    def records(self, v: int) -> dict:
        """tables[v] as {key: best score}."""
        return {key: sc for key, (sc, _) in self.tables[v].items()}

    def fill(self, stop: Optional[int] = None):
        """Fill the tables children first, up to and including `stop`."""
        for v in self.forest.order[::-1]:  # children before parents
            self.tables[v] = self.combine_records(v)
            if v == stop:
                break

    def parent_choices(self, v: int):
        """(parents, score, closed choice) for each parent set of v, the
        score including the best record of every closed child that fits;
        parent sets that no closed-child record fits are skipped."""
        closed_info = []
        for c in self.bounds[v].closed_children:
            s_empty = self.tables[c].get(self.closed_key(c, False))
            s_arc = self.tables[c].get(self.closed_key(c, True))
            closed_info.append(
                (c, s_empty[0] if s_empty else None, s_arc[0] if s_arc else None)
            )
        for parents in self.instance.parent_sets(v):
            if not parents <= self.g.adj[v]:
                raise RuntimeError("parent outside superstructure")
            base = self.instance.score(v, parents)
            closed_choice = []
            feasible = True
            for c, s_empty, s_arc in closed_info:
                if c in parents:
                    if s_empty is None:
                        feasible = False
                        break
                    base += s_empty
                    closed_choice.append((c, False))
                else:
                    if s_arc is not None and (s_empty is None or s_arc > s_empty):
                        base += s_arc
                        closed_choice.append((c, True))
                    else:
                        base += s_empty
                        closed_choice.append((c, False))
            if feasible:
                yield parents, base, tuple(closed_choice)

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
                parents, closed_choice, open_choice = self.tables[v][key][1]
                arcs.update((p, v) for p in parents)
                for c, take_arc in closed_choice:
                    stack.append((c, self.closed_key(c, take_arc)))
                stack.extend(open_choice)
        return total, Network(self.instance.n, frozenset(arcs))


def _engine(cls, instance: NonZeroInstance, forest=None):
    g = superstructure(instance)
    if forest is None:
        forest = lfen_search(g).forest
    return cls(instance, g, forest)


class _BnslEngine(_RecordEngine):
    """Acyclic-network record DP; keys are strict-reachability relations as
    bit rows over the sorted delta of the vertex (bnsl.relations)."""

    def closed_key(self, c: int, take_arc: bool) -> tuple[int, ...]:
        arcs = [(self.forest.parent[c], c)] if take_arc else []
        return tuple(relations.from_pairs(arcs, self.bounds[c].delta))

    def records(self, v: int) -> dict:
        """tables[v] as {reachability pair set: best score}."""
        delta = self.bounds[v].delta
        return {relations.to_pairs(key, delta): sc for key, (sc, _) in self.tables[v].items()}

    def combine_records(self, v: int) -> dict:
        b = self.bounds[v]
        opens = b.open_children

        # dense local index over everything the combination can mention
        ground = {v}
        ground.update(self.g.adj[v])
        for c in opens:
            ground.update(self.bounds[c].delta)
        ground = sorted(ground)
        gidx = {x: i for i, x in enumerate(ground)}

        delta_mask = 0
        for x in b.delta:
            delta_mask |= 1 << gidx[x]

        frontier_after = []
        acc = delta_mask
        for c in reversed(opens):
            frontier_after.append(acc)
            for x in self.bounds[c].delta:
                acc |= 1 << gidx[x]
        frontier_after.reverse()  # frontier_after[i]: mask kept after folding opens[i]

        # each open child's records, translated once into the ground index
        child_records = []
        for c in opens:
            ctable = self.tables[c]
            cdelta = self.bounds[c].delta
            child_records.append([
                (relations.reindex(ckey, cdelta, ground), ctable[ckey][0], ckey)
                for ckey in sorted(ctable)
            ])

        table: dict = {}
        vbit = 1 << gidx[v]
        for parents, base, closed_choice in self.parent_choices(v):
            rows0 = [0] * len(ground)
            for p in parents:
                rows0[gidx[p]] |= vbit
            # fold the open children one by one, deduplicating on the
            # closure restricted to what later steps can still observe
            states = {tuple(rows0): (base, ())}
            for c, keep, crecords in zip(opens, frontier_after, child_records):
                nxt: dict = {}
                for rows, (score, chain) in states.items():
                    for crows, cscore, ckey in crecords:
                        merged = relations.closure([a | b for a, b in zip(rows, crows)])
                        if not relations.irreflexive(merged):
                            continue
                        mkey = tuple(relations.restrict(merged, keep))
                        val = score + cscore
                        cur = nxt.get(mkey)
                        if cur is None or val > cur[0]:
                            nxt[mkey] = (val, chain + ((c, ckey),))
                states = nxt
            for rows, (score, chain) in states.items():
                key = tuple(relations.reindex(relations.closure(rows), ground, b.delta))
                cur = table.get(key)
                if cur is None or score > cur[0]:
                    table[key] = (score, (parents, closed_choice, chain))
        return table


def combine_records(
    instance: NonZeroInstance,
    v: int,
    forest: Optional[SpanningForest] = None,
):
    """Record set of a vertex as {reachability pair set: best score},
    computing all descendants first."""
    eng = _engine(_BnslEngine, instance, forest)
    eng.fill(stop=v)
    return eng.records(v)


def solve_bnsl_lfen(
    instance: NonZeroInstance, forest: Optional[SpanningForest] = None
) -> tuple[int, Network]:
    """Optimal acyclic network via the record DP on a witness tree."""
    return _engine(_BnslEngine, instance, forest).solve()


def record_tables(
    instance: NonZeroInstance, forest: Optional[SpanningForest] = None
):
    """All per-vertex record tables as {vertex: {pair set: score}} (for the
    record-semantics verification tests)."""
    eng = _engine(_BnslEngine, instance, forest)
    eng.fill()
    return {v: eng.records(v) for v in range(instance.n)}, eng


# ---------------------------------------------------------------------------
# polytree variant


class _PlEngine(_RecordEngine):
    """Record DP for polytrees: per vertex an equivalence on the inner
    boundary (components of the partial skeleton inside the subtree) plus
    the set of arcs entering the subtree from outside."""

    root_key = ((), frozenset())

    def closed_key(self, c: int, take_arc: bool) -> tuple:
        return (((c,),), frozenset([(self.forest.parent[c], c)] if take_arc else []))

    def combine_records(self, v: int) -> dict:
        b = self.bounds[v]
        vmask = self.subtree[v]
        din = sorted(b.delta_in)
        closed_set = set(b.closed_children)
        open_records = [
            [
                ((c, ckey), self.tables[c][ckey][0])
                for ckey in sorted(self.tables[c], key=lambda k: (k[0], tuple(sorted(k[1]))))
            ]
            for c in b.open_children
        ]
        table: dict = {}
        for parents, base, closed_choice in self.parent_choices(v):
            for combo in product(*open_records):
                # glue v, the open children's components and the outside
                # vertices the arcs touch into one skeleton; closed children
                # attach by a single edge and cannot close a skeleton cycle,
                # so their glue arcs stay out of it
                arcs = [(p, v) for p in sorted(parents) if p not in closed_set]
                node = {v: 0}
                size = 1
                for (_, (part, carcs)), _ in combo:
                    for cls in part:
                        for x in cls:
                            node[x] = size
                        size += 1
                    arcs.extend(carcs)
                for arc in arcs:
                    for x in arc:
                        if x not in node:
                            if vmask >> x & 1:
                                raise RuntimeError("inside vertex missing from classes")
                            node[x] = size
                            size += 1
                skeleton, inner = [0] * size, [0] * size
                for x, y in arcs:
                    skeleton[node[x]] |= 1 << node[y]
                    if vmask >> x & 1:
                        inner[node[x]] |= 1 << node[y]
                # a forest iff every arc merges two components
                if len(relations.classes(skeleton)) != size - len(arcs):
                    continue
                # components of the subgraph induced on the subtree: only
                # arcs with both endpoints inside count
                groups = (
                    tuple(x for x in din if cls >> node[x] & 1)
                    for cls in relations.classes(inner)
                )
                part_key = tuple(sorted(g for g in groups if g))
                key = (part_key, frozenset((x, y) for x, y in arcs if not vmask >> x & 1))
                score = base + sum(cscore for _, cscore in combo)
                cur = table.get(key)
                if cur is None or score > cur[0]:
                    open_choice = tuple(choice for choice, _ in combo)
                    table[key] = (score, (parents, closed_choice, open_choice))
        return table


def solve_pl_lfen(
    instance: NonZeroInstance, forest: Optional[SpanningForest] = None
) -> tuple[int, Network]:
    """Optimal polytree via the component-counting record DP."""
    return _engine(_PlEngine, instance, forest).solve()


def pl_record_tables(
    instance: NonZeroInstance, forest: Optional[SpanningForest] = None
):
    """All per-vertex polytree record tables as {vertex: {(partition,
    entering arcs): score}}."""
    eng = _engine(_PlEngine, instance, forest)
    eng.fill()
    return {v: eng.records(v) for v in range(instance.n)}, eng
