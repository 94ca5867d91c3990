"""Snapshot dynamic programs over a nice tree decomposition.

For additive scores the state at a decomposition node is a snapshot of the
partial network on the vertices seen so far: the arcs among bag vertices
(loc), what the bag can observe of connectivity through forgotten vertices
(con: strict reachability for acyclic networks, same-component pairs for
polytrees), and the parent count of each bag vertex (inn), one int of
fields as `relations.pack` lays them out, 0 without an in-degree bound.
Tables map snapshots to the best achievable partial score.  Each vertex
keeps one index while it is in the bag, so every relation and every count
lives on the same width + 1 indices at every node: an introduce passes its
child's snapshots on as they are, and a forget clears one row and one
column of each relation and one field of inn.

Arcs are drawn from the superstructure only; any other arc scores zero and
can never help, so the optimum is unaffected and tables stay small.  The
solvers also drop every snapshot that another one with the same loc
dominates (`_TwEngine._prune`, through `relations.undominated`, which the
record DP shares), which keeps the optimum but may pick another optimal
network on ties.

The public solvers run the bag DP on the 2-core of the superstructure only
(`Fold`): the trees hanging off it are folded bottom up into an in-degree
bonus that each core vertex collects where it is forgotten, and a walk down
those trees completes the witness.  Without a decomposition they run over
the min-fill decomposition of the subgraph induced by the core, in the
superstructure's own vertex numbers (`tree_decomposition(g,
vertices=core)`).  A supplied one, which describes the whole
superstructure, is cut to the core on its raw bags: each node's bag meets
the core, and `nice_from_raw` rebuilds the cut tree.  The bounded
polytree matroid (`polytree.solve_pl_additive_bounded`) shares `Fold`: it
runs on the same core, each bonus entering as virtual arcs.
`snapshot_tables` returns the tables that the solvers keep.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from . import relations
from .graphs import NiceTreeDecomposition, nice_from_raw, peel, tree_decomposition
from .instances import AdditiveInstance, Network, Superstructure, superstructure

_NO_ARCS: frozenset = frozenset()


class _TwEngine:
    def __init__(self, instance: AdditiveInstance, td: NiceTreeDecomposition, mode: str,
                 fold: Fold):
        """Bounded by `instance.max_in_degree`.  `td` decomposes the 2-core
        of `fold` (`fold_core`), and `solve` adds the folded trees."""
        if mode not in ("bnsl", "pl"):
            raise ValueError(f"unknown mode {mode!r}; expected 'bnsl' or 'pl'")
        self.inst = instance
        self.pl = mode == "pl"
        self.q = instance.max_in_degree
        self.fold = fold
        self.g = fold.g
        self.bonus = fold.bonus
        self.td = td
        # verts[t][j]: the vertex at index j of node t's bag, None where the
        # index is free.  A vertex keeps one index from the highest node that
        # holds it down to every node below that does, taking the lowest
        # free index where it first appears, so introduce and forget leave
        # every other vertex where it is
        self.verts: list = [None] * len(td.nodes)
        stack = [(td.root, (None,) * (td.width + 1))]
        while stack:
            t, above = stack.pop()
            node = td.nodes[t]
            row = [x if x in node.bag else None for x in above]
            for x in sorted(node.bag.difference(row)):
                row[row.index(None)] = x
            self.verts[t] = row = tuple(row)
            stack.extend((c, row) for c in node.children)
        d, q = td.width + 1, self.q or 0
        self.w = w = q.bit_length() + 1
        ones = 0 if self.q is None else relations.pack([1] * d, w)
        self.units = [ones & (1 << w) - 1 << (d - 1 - j) * w for j in range(d)]
        self.guard = ones << w - 1
        self.over = ones * ((1 << w - 1) - 1 - q)
        self.tables: dict[int, dict] = {}

    # snapshots: (loc, con, inn); loc and con are relations over the width
    # + 1 bag indices, one int each (bnsl.relations), inn the parent count
    # at each index (0 where it is free) in a field of w bits, index 0 in
    # the top field.  A count stays at most 2q < 2**w, so no field carries
    # into the next.  units[j] is one count at index j, guard the top bit
    # of every field, and inn + over sets a field's guard exactly when its
    # count is above q; without a bound all three are 0, so inn is 0 and
    # passes every bound test.  Table entries: (score, arcs introduced
    # here, the key of each child in node.children)

    def run_tables(self):
        step = {"leaf": self._leaf, "introduce": self._introduce,
                "forget": self._forget, "join": self._join}
        for t in self.td.postorder():
            node = self.td.nodes[t]
            self.tables[t] = self._prune(step[node.kind](t, node))
        return self.tables

    def solve(self) -> tuple[int, Network]:
        self.run_tables()
        root_table = self.tables[self.td.root]
        key = (0, 0, 0)
        if list(root_table) != [key]:
            raise RuntimeError("root must hold the single empty snapshot")
        score = root_table[key][0]
        arcs: set = set()
        stack = [(self.td.root, key)]
        while stack:
            t, key = stack.pop()
            entry = self.tables[t][key]
            arcs |= entry[1]
            stack.extend(zip(self.td.nodes[t].children, entry[2:]))
        arcs |= self.fold.lift(arcs)
        return score + self.fold.tree_score(), Network(self.inst.n, frozenset(arcs))

    def records(self, t: int) -> dict:
        """tables[t] as {(loc pairs, con pairs, ((vertex, parent count),
        ...) in vertex order, () without a bound): best score}."""
        verts = self.verts[t]
        field = (1 << self.w) - 1
        # each bag vertex with where its count sits in inn; none without a bound
        order = sorted((x, (len(verts) - 1 - j) * self.w) for j, x in enumerate(verts)
                       if x is not None and self.q is not None)
        return {
            (relations.to_pairs(loc, verts), relations.to_pairs(con, verts),
             tuple((x, inn >> at & field) for x, at in order)): entry[0]
            for (loc, con, inn), entry in self.tables[t].items()
        }

    def _prune(self, table: dict) -> dict:
        """The entries of `table` that no other entry dominates, in their
        insertion order (`relations.undominated`, grouped by loc, the
        parent counts compared under the guard bits).

        Snapshot (loc, con', inn') with score s' dominates (loc, con, inn)
        with score s when s' >= s, con' is a subset of con row by row and
        inn' <= inn at every position.  Dropping the second keeps the
        optimum, because every later step is monotone in con and inn.  Both
        snapshots hold the same arcs inside the bag (loc), so they meet the
        same arc choices and join partners.  One that keeps the second
        acyclic keeps the first so too, since a subset of the reachable
        pairs closes no cycle the whole set does not close (for polytrees:
        a finer partition joins no two vertices of one class).  Parent
        counts only add up, so the first stays within the bound whenever
        the second does.  The bonus a forget adds for a vertex's folded
        pendant trees never grows with the vertex's parent count, so the
        first collects at least the second's.  And the results again have
        a subset con, no larger inn and no lower score, so the root score
        is unchanged, though a tie may pick another optimal network.  A
        field of inn holds at most q, below its guard bit.
        """
        return relations.undominated(table, self.guard)

    def _aux(self, con: int, d: int) -> int:
        """What `_glue` reads of a con over d bag indices besides itself:
        its class count in polytree mode, its support in acyclic mode."""
        return len(relations.classes(con, d)) if self.pl else relations.support(con, d)

    def _glue(self, a: int, b: int, d: int, pivots: int, fresh: int) -> Optional[int]:
        """Connectivity of the union of two partial networks with boundary
        relations `a` and `b` over d bag indices, or None when the union is
        not acyclic.  Acyclic mode reads only `pivots`, where it runs
        `relations.closed_union`; polytree mode reads only `fresh`: the
        union is a polytree exactly when the merged rows have that many
        classes."""
        if not self.pl:
            return relations.closed_union(a, b, pivots, d)
        parts = relations.classes(a | b, d)
        return relations.class_rows(parts, d) if len(parts) == fresh else None

    def _leaf(self, t, node) -> dict:
        return {(0, 0, 0): (0, _NO_ARCS)}

    def _introduce(self, t, node) -> dict:
        (child,) = node.children
        v = next(iter(node.bag - self.td.nodes[child].bag))
        verts = self.verts[t]
        d = len(verts)
        i = verts.index(v)
        units, over, guard = self.units, self.over, self.guard
        score = self.inst.arc_scores.get
        # each undirected edge to v skipped, v->u or u->v, in the order
        # `itertools.product` lists them: the choices are grown one bag
        # neighbour at a time in vertex order, the first the slowest (so
        # tables do not depend on the indices), each step adding one
        # arc's bit, support, parent count and score.  Only v's own parent
        # count can pass q; a choice is dropped as soon as it does.  con is
        # closed, and every arc of a choice touches v, so a shortest path
        # of their union switches operand, or takes two arcs in a row, only
        # at the choice's support: glue pivots there
        grown = [((), 0, 0, 0, 0)]  # arcs, rows, support, parent counts, gain
        nbrs = self.g.adj[v]
        for u, j in sorted((u, j) for j, u in enumerate(verts) if u in nbrs):
            out_arc, out_bit, out_gain = (v, u), 1 << (d - 1 - i) * d + j, score((v, u), 0)
            in_arc, in_bit, in_gain = (u, v), 1 << (d - 1 - j) * d + i, score((u, v), 0)
            pair = 1 << i | 1 << j
            prev, grown = grown, []
            for choice in prev:
                arcs, rows, sup, cnt, gain = choice
                grown.append(choice)
                grown.append((arcs + (out_arc,), rows | out_bit, sup | pair, cnt + units[j],
                              gain + out_gain))
                if not cnt + units[i] + over & guard:
                    grown.append((arcs + (in_arc,), rows | in_bit, sup | pair, cnt + units[i],
                                  gain + in_gain))
        choices = [(frozenset(arcs), *rest) for arcs, *rest in grown]
        table: dict = {}
        for ckey, centry in self.tables[child].items():
            loc0, con0, inn0 = ckey
            n_old = len(relations.classes(con0, d)) if self.pl else 0
            for arcs, rows, pivots, cnt, gain in choices:
                inn = inn0 + cnt
                if inn + over & guard:
                    continue
                # each arc of a polytree choice joins v to a new class
                con = self._glue(con0, rows, d, pivots, n_old - len(arcs))
                if con is None:
                    continue
                key = (loc0 | rows, con, inn)
                val = centry[0] + gain
                cur = table.get(key)
                if cur is None or val > cur[0]:
                    table[key] = (val, arcs, ckey)
        return table

    def _forget(self, t, node) -> dict:
        (child,) = node.children
        cverts = self.verts[child]
        d = len(cverts)
        v = next(iter(self.td.nodes[child].bag - node.bag))
        i = cverts.index(v)
        bonus = self.bonus.get(v, (0,) * ((self.q or 0) + 1))
        table: dict = {}
        keep = relations.cut_mask((1 << d) - 1 ^ 1 << i, d)
        at, field = (d - 1 - i) * self.w, (1 << self.w) - 1
        for ckey, centry in self.tables[child].items():
            loc, con, inn = ckey
            key = (loc & keep, con & keep, inn & ~(field << at))
            val = centry[0] + bonus[inn >> at & field]
            cur = table.get(key)
            if cur is None or val > cur[0]:
                table[key] = (val, _NO_ARCS, ckey)
        return table

    def _join(self, t, node) -> dict:
        c1, c2 = node.children
        verts = self.verts[t]
        d = len(verts)
        cols, units, over, guard = relations.unit(d), self.units, self.over, self.guard
        score = self.inst.arc_scores.get
        # the right entries by loc, each group with loc's class count, the
        # score of its arcs (both sides count them) and its parent counts,
        # and each entry with what the glue reads of its con
        by_loc: dict = {}
        for key2, entry2 in self.tables[c2].items():
            loc = key2[0]
            group = by_loc.get(loc)
            if group is None:
                n_loc = len(relations.classes(loc, d)) if self.pl else 0
                loc_score = sum(score(arc, 0) for arc in relations.to_pairs(loc, verts))
                loc_inn = sum((loc >> j & cols).bit_count() * units[j] for j in range(d))
                group = by_loc[loc] = (n_loc, loc_score, loc_inn, [])
            group[3].append((key2, entry2[0], self._aux(key2[1], d)))
        table: dict = {}
        for key1, entry1 in self.tables[c1].items():
            loc, con1, inn1 = key1
            if loc not in by_loc:
                continue
            n_loc, loc_score, loc_inn, group = by_loc[loc]
            s1 = entry1[0] - loc_score
            # acyclic: both cons are closed, so glue pivots on their shared
            # support.  Polytrees: both sides are forests that share only
            # the bag and the loc arcs, so the union's cycle rank is
            # (#classes1 + #classes2 - #classes(loc)) - #classes(merged),
            # and the class count alone says whether the union is a forest
            aux1 = self._aux(con1, d)
            for key2, s2, aux2 in group:
                inn = inn1 + key2[2] - loc_inn
                if inn + over & guard:
                    continue
                con = self._glue(con1, key2[1], d, aux1 & aux2, aux1 - n_loc + aux2)
                if con is None:
                    continue
                key = (loc, con, inn)
                val = s1 + s2
                cur = table.get(key)
                if cur is None or val > cur[0]:
                    table[key] = (val, _NO_ARCS, key1, key2)
        return table


class Fold:
    """The trees hanging off the 2-core of a superstructure, folded bottom up.

    Each peeled vertex x (`graphs.peel`) hangs from `up[x]`.  Its edge to
    it is a bridge, which closes neither a directed cycle nor a skeleton
    cycle, so a hanging tree touches the rest of the network only through
    the in-degree of the vertex it hangs from, in both modes and for any
    bound q, which is the instance's own `max_in_degree`.  `a[x]` is the
    best score of x's subtree when x takes the arc from `up[x]`, so only
    q - 1 of its parents can come from below, and `b[x]` the best when it
    does not.  A child c of x adds base_c = max(a[c] + s(x, c), b[c]) and
    offers the arc c -> x at gain_c = b[c] + s(c, x) - base_c; x keeps its
    best positive gains up to its free parent slots (all of them without a
    bound).
    """

    def __init__(self, instance: AdditiveInstance, g: Superstructure):
        self.g = g
        self.q = q = instance.max_in_degree
        self.arc_scores = score = instance.arc_scores
        order, up = peel(g)
        self.core = [v for v in range(g.n) if v not in up]
        self.kids = kids = {}
        for x in order:
            p = up[x]
            if p is None:
                continue
            if p in kids:
                kids[p].append(x)
            else:
                kids[p] = [x]
        # x with hanging trees -> (sum of its children's base_c, positive
        # gain_c paired with c, best first)
        self.hang = hang = {}
        self.a = a = {}
        self.b = b = {}
        self.bonus = bonus = {}  # core vertex -> value with i core parents, at index i
        for x in order + [v for v in self.core if v in kids]:
            cs = kids.get(x)
            if cs is None:  # a leaf of its tree
                a[x] = b[x] = 0
                continue
            base, gains = 0, []
            for c in cs:
                keep = a[c] + score.get((x, c), 0)
                if b[c] > keep:
                    keep = b[c]
                base += keep
                gain = b[c] + score.get((c, x), 0) - keep
                if gain > 0:
                    gains.append((-gain, c))
            # best[k]: the value with at most k arcs up into x
            best = [base]
            if gains:
                gains.sort()
                gains = [(-gain, c) for gain, c in gains]
                for gain, _ in gains:
                    best.append(best[-1] + gain)
            hang[x] = (base, gains)
            top = len(gains)
            if x in up:
                if q is None:
                    a[x] = b[x] = best[top]
                else:
                    a[x], b[x] = best[min(q - 1, top)], best[min(q, top)]
            elif q is None:
                bonus[x] = (best[top],)
            else:
                bonus[x] = tuple(best[min(k, top)] for k in range(q, -1, -1))
        self.roots = [x for x in order if up[x] is None]

    def tree_score(self) -> int:
        """Optimum of the tree components, which have no core vertex."""
        return sum(self.b[r] for r in self.roots)

    def lift(self, core_arcs) -> set:
        """The arcs of the hanging trees that complete `core_arcs`, without
        recursion: from each core vertex, given its core in-degree, and
        from each tree root down.  With them the network scores the core
        score, every bonus it collected and `tree_score()`."""
        q = self.q
        less = None if q is None else q - 1
        score, kids, hang, a, b = self.arc_scores, self.kids, self.hang, self.a, self.b
        indeg = Counter(y for _, y in core_arcs)
        stack = [(v, None if q is None else q - indeg[v]) for v in self.bonus]
        stack += [(r, q) for r in self.roots]
        arcs = set()
        while stack:
            x, k = stack.pop()
            cs = kids.get(x)
            if cs is None:
                continue
            gains = hang[x][1]
            ups = {c for _, c in gains[:k]} if gains else ()
            for c in cs:
                if c in ups:
                    arcs.add((c, x))
                    free = q
                elif a[c] + score.get((x, c), 0) > b[c]:
                    arcs.add((x, c))
                    free = less
                else:
                    free = q
                if c in kids:
                    stack.append((c, free))
        return arcs


def fold_core(
    instance: AdditiveInstance, g: Superstructure, td: Optional[NiceTreeDecomposition] = None
) -> tuple[Fold, NiceTreeDecomposition]:
    """The trees hanging off the 2-core of `instance`'s superstructure `g`,
    folded, and the decomposition the bag DP runs on (width -1 when the core
    is empty): without `td` the min-fill decomposition of the core alone,
    else `td` cut to the core, each node a raw bag that keeps its core
    vertices and its parent, rebuilt by `nice_from_raw`."""
    fold = Fold(instance, g)
    if td is None:
        return fold, tree_decomposition(g, vertices=fold.core)
    core = frozenset(fold.core)
    bags = {t: node.bag & core for t, node in enumerate(td.nodes)}
    parent = {c: t for t, node in enumerate(td.nodes) for c in node.children}
    return fold, nice_from_raw(bags, parent)


def solve_folded(
    instance: AdditiveInstance, mode: str, fold: Fold, td: NiceTreeDecomposition
) -> tuple[int, Network]:
    """The bag DP in `mode` ("bnsl" or "pl") over `fold_core`'s result."""
    if mode == "pl" and instance.max_in_degree is None:
        raise ValueError("polytree bag DP needs an in-degree bound; "
                         "use the spanning-forest solver instead")
    return _TwEngine(instance, td, mode, fold).solve()


def solve_bnsl_additive(
    instance: AdditiveInstance, td: Optional[NiceTreeDecomposition] = None
) -> tuple[int, Network]:
    """Optimal acyclic network for additive scores; runs the in-degree
    bounded variant when the instance carries a bound."""
    return solve_folded(instance, "bnsl", *fold_core(instance, superstructure(instance), td))


def solve_pl_additive_tw(
    instance: AdditiveInstance, td: Optional[NiceTreeDecomposition] = None
) -> tuple[int, Network]:
    """Optimal in-degree-bounded polytree for additive scores."""
    return solve_folded(instance, "pl", *fold_core(instance, superstructure(instance), td))


def snapshot_tables(
    instance: AdditiveInstance,
    mode: str = "bnsl",
    td: Optional[NiceTreeDecomposition] = None,
):
    """The per-node snapshot tables that the bag DP in `mode` keeps, over
    `fold_core(instance, g, td)`'s decomposition as `solve_bnsl_additive(
    instance, td)` and `solve_pl_additive_tw(instance, td)` run it, with
    plain keys (`_TwEngine.records`); returns (tables, that decomposition)."""
    fold, td = fold_core(instance, superstructure(instance), td)
    eng = _TwEngine(instance, td, mode, fold)
    eng.run_tables()
    return {t: eng.records(t) for t in eng.tables}, td
