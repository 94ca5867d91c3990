"""Snapshot dynamic programs over a nice tree decomposition.

For additive scores each edge of the superstructure is decided (skipped,
or oriented one way) exactly once: at the forget of whichever endpoint is
forgotten first (Cygan et al., Parameterized Algorithms, 2015, 7.3, with
the "introduce edge" node folded into that forget).  The other endpoint
is still in the bag there, since the bags that hold a vertex are
connected and hold, at some node, both ends of each of its edges.  So no
decided arc joins two bag vertices, and the state at a node is a snapshot
of the partial network of the decided arcs: what the bag can observe of
connectivity through forgotten vertices (con: strict reachability for
acyclic networks, same-component pairs for polytrees) and the parent
count of each bag vertex (inn), one int of fields as `relations.pack` lays
them out, 0 without an in-degree bound.  Tables map snapshots to the best
achievable partial score.  Each vertex keeps one index while it is in the
bag, so every relation and every count lives on the same width + 1
indices at every node: an introduce node shares its child's table (the
new index is free, with no pair and a zero count), a forget decides v's
edges to the bag, collects v's final parent count and clears v's row,
column and field, and a join glues every pair of its children's entries.

Why it is exact:

- Every edge is decided once.  An edge is decided at a forget of one of
  its ends while the other is in the bag, and only the first of the two
  forgets sees the other end in its bag.
- Every cycle is caught where it closes.  Decided arcs at a forget all
  touch v; con is closed, so the union's closure (`relations.closed_union`
  pivoting on the choice's support) has v reach itself exactly when a
  new arc closes a directed cycle, and a polytree choice must join v to a
  new class per arc.  A join glues two networks that share only bag
  vertices and no arc: a cycle of their union alternates between the two
  sides at bag vertices, which the shared support holds; a skeleton cycle
  shows in the class count, as merging the d - #classes2 joins of the
  second side into the first leaves #classes1 + #classes2 - d classes
  exactly when the union is a forest.
- Counts add up: a forget adds one per chosen arc to its head, a join
  adds both sides' counts (no arc is counted twice), and any count above
  the bound is rejected.  v's count is final at its forget, which adds
  its fold bonus there.
- The dominance prune keeps the optimum (`_prune`, through
  `relations.undominated`, which the record DP shares).  Snapshot (con',
  inn') with score s' dominates (con, inn) with score s when s' >= s,
  con' is a subset of con and inn' <= inn at every index.  Every later
  step is monotone in con and inn: it makes the same arc choices and
  meets the same join partners, a subset of the reachable pairs closes no
  cycle the whole set does not close (for polytrees a finer partition
  joins no two vertices of one class), counts only add up, and the bonus
  a forget adds never grows with the vertex's parent count.  So the
  results again have a subset con, no larger inn and no lower score, and
  the root score is unchanged, though a tie may pick another optimal
  network.

Arcs are drawn from the superstructure only; any other arc scores zero and
can never help, so the optimum is unaffected and tables stay small.

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

    # snapshots: (con, inn); con is a relation over the width + 1 bag
    # indices, one int (bnsl.relations), inn the parent count at each index
    # (0 where it is free) in a field of w bits, index 0 in the top field.
    # A count stays at most 2q < 2**w, so no field carries into the next.
    # units[j] is one count at index j, guard the top bit of every field,
    # and inn + over sets a field's guard exactly when its count is above
    # q; without a bound all three are 0, so inn is 0 and passes every
    # bound test.  Table entries: (score, arcs decided here, the key of each
    # child in node.children); an introduce node shares its child's table

    def run_tables(self):
        step = {"leaf": self._leaf, "forget": self._forget, "join": self._join}
        for t in self.td.postorder():
            node = self.td.nodes[t]
            if node.kind == "introduce":  # the new index is free in every key
                self.tables[t] = self.tables[node.children[0]]
            else:
                self.tables[t] = self._prune(step[node.kind](t, node))
        return self.tables

    def solve(self) -> tuple[int, Network]:
        self.run_tables()
        root_table = self.tables[self.td.root]
        key = (0, 0)
        if list(root_table) != [key]:
            raise RuntimeError("root must hold the single empty snapshot")
        score = root_table[key][0]
        arcs: set = set()
        stack = [(self.td.root, key)]
        while stack:
            t, key = stack.pop()
            node = self.td.nodes[t]
            if node.kind == "introduce":
                stack.append((node.children[0], key))
                continue
            entry = self.tables[t][key]
            arcs |= entry[1]
            stack.extend(zip(node.children, entry[2:]))
        arcs |= self.fold.lift(arcs)
        return score + self.fold.tree_score(), Network(self.inst.n, frozenset(arcs))

    def records(self, t: int) -> dict:
        """tables[t] as {(con pairs, ((vertex, parent count), ...) in vertex
        order, () without a bound): best score}."""
        verts = self.verts[t]
        field = (1 << self.w) - 1
        # each bag vertex with where its count sits in inn; none without a bound
        order = sorted((x, (len(verts) - 1 - j) * self.w) for j, x in enumerate(verts)
                       if x is not None and self.q is not None)
        return {
            (relations.to_pairs(con, verts), tuple((x, inn >> at & field) for x, at in order)):
            entry[0]
            for (con, inn), entry in self.tables[t].items()
        }

    def _prune(self, table: dict) -> dict:
        """The entries of `table` that no other entry dominates, in their
        insertion order (`relations.undominated`, the parent counts compared
        under the guard bits); the module docstring proves it exact."""
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
        return {(0, 0): (0, _NO_ARCS)}

    def _forget(self, t, node) -> dict:
        (child,) = node.children
        verts = self.verts[child]
        d = len(verts)
        v = next(iter(self.td.nodes[child].bag - node.bag))
        i = verts.index(v)
        units, over, guard = self.units, self.over, self.guard
        score = self.inst.arc_scores.get
        # each edge from v to a bag neighbour skipped, v->u or u->v, in the
        # order `itertools.product` lists them: the choices are grown one
        # neighbour at a time in vertex order, the first the slowest (so
        # tables do not depend on the indices), each step adding one arc's
        # bit, support, parent count and score.  Only v's own parent count
        # can pass q within a choice; a choice is dropped as soon as it
        # does.  con is closed, and every arc of a choice touches v, so a
        # shortest path of their union switches operand, or takes two arcs
        # in a row, only at the choice's support: glue pivots there
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
        bonus = self.bonus.get(v, (0,) * ((self.q or 0) + 1))
        keep = relations.cut_mask((1 << d) - 1 ^ 1 << i, d)
        at, field = (d - 1 - i) * self.w, (1 << self.w) - 1
        clear = ~(field << at)
        table: dict = {}
        for ckey, centry in self.tables[child].items():
            con0, inn0 = ckey
            n_old = len(relations.classes(con0, d)) if self.pl else 0
            for arcs, rows, pivots, cnt, gain in choices:
                inn = inn0 + cnt
                if inn + over & guard:
                    continue
                # each arc of a polytree choice joins v to a new class
                con = self._glue(con0, rows, d, pivots, n_old - len(arcs))
                if con is None:
                    continue
                # v's parent count is final: collect its bonus, drop its index
                key = (con & keep, inn & clear)
                val = centry[0] + gain + bonus[inn >> at & field]
                cur = table.get(key)
                if cur is None or val > cur[0]:
                    table[key] = (val, arcs, ckey)
        return table

    def _join(self, t, node) -> dict:
        c1, c2 = node.children
        d = len(self.verts[t])
        over, guard = self.over, self.guard
        # acyclic: both cons are closed, so glue pivots on their shared
        # support.  Polytrees: both sides are forests that share only the
        # bag, so the union is a forest exactly when merging the second
        # side's classes into the first's joins no two of one class: the
        # d - #classes2 joins leave #classes1 + #classes2 - d classes
        right = [(key2, entry2[0], self._aux(key2[0], d))
                 for key2, entry2 in self.tables[c2].items()]
        table: dict = {}
        for key1, entry1 in self.tables[c1].items():
            con1, inn1 = key1
            s1 = entry1[0]
            aux1 = self._aux(con1, d)
            for key2, s2, aux2 in right:
                inn = inn1 + key2[1]
                # this reject keeps every count field of a key at most q, so
                # the sum of two at most 2q: the no-carry condition of the
                # key layout.  The forget's test cannot stand in for it, as
                # joins stack with no forget between them where a bag has
                # more than two children
                if inn + over & guard:
                    continue
                con = self._glue(con1, key2[0], d, aux1 & aux2, aux1 + aux2 - d)
                if con is None:
                    continue
                key = (con, inn)
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
    plain keys, (con pairs, parent counts) (`_TwEngine.records`); returns
    (tables, that decomposition).  An introduce node's table is its
    child's, each count tuple with the new vertex at 0."""
    fold, td = fold_core(instance, superstructure(instance), td)
    eng = _TwEngine(instance, td, mode, fold)
    eng.run_tables()
    return {t: eng.records(t) for t in eng.tables}, td
