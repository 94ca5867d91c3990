"""Snapshot dynamic programs over a nice tree decomposition.

For additive scores the state at a decomposition node is a snapshot of the
partial network on the vertices seen so far: the arcs among bag vertices
(loc), what the bag can observe of connectivity through forgotten vertices
(con: strict reachability for acyclic networks, same-component pairs for
polytrees), and per-bag-vertex parent counts (inn) when an in-degree bound
applies.  Tables map snapshots to the best achievable partial score.

Arcs are drawn from the superstructure only; any other arc scores zero and
can never help, so the optimum is unaffected and tables stay small.  The
solvers also drop every snapshot that another one with the same loc
dominates (`_TwEngine._prune`), which keeps the optimum but may pick
another optimal network on ties.

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
`snapshot_tables` keeps the unfolded tables of the whole decomposition.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from operator import add, itemgetter, sub
from typing import Optional

from . import relations
from .graphs import NiceTreeDecomposition, nice_from_raw, tree_decomposition
from .instances import AdditiveInstance, Network, Superstructure, superstructure

_NO_ARCS: frozenset = frozenset()


class _TwEngine:
    def __init__(
        self,
        instance: AdditiveInstance,
        td: NiceTreeDecomposition,
        mode: str,
        prune: bool = True,
        fold: Optional[Fold] = None,
    ):
        """Bounded by `instance.max_in_degree`.  With `fold`, `td` decomposes
        the 2-core only (`fold_core`) and `solve` adds the folded trees."""
        if mode not in ("bnsl", "pl"):
            raise ValueError(f"unknown mode {mode!r}; expected 'bnsl' or 'pl'")
        self.inst = instance
        self.pl = mode == "pl"
        self.q = instance.max_in_degree
        self.prune = prune
        self.fold = fold
        if fold is None:
            self.g = superstructure(instance)
            self.bonus: dict = {}
        else:
            self.g = fold.g
            self.bonus = fold.bonus
        self.td = td
        self.verts = [tuple(sorted(node.bag)) for node in td.nodes]
        self.tables: dict[int, dict] = {}

    # snapshots: (loc, con, inn); loc and con are relations over the node's
    # sorted bag, one int each (bnsl.relations), inn the parent count of
    # each bag vertex in the same order, () without a bound; an empty inn
    # (no bound, or an empty bag) passes every bound test.  Table entries:
    # (score, arcs introduced here, the key of each child in node.children)

    def run_tables(self):
        step = {"leaf": self._leaf, "introduce": self._introduce,
                "forget": self._forget, "join": self._join}
        for t in self.td.postorder():
            node = self.td.nodes[t]
            table = step[node.kind](t, node)
            self.tables[t] = self._prune(table) if self.prune else table
        return self.tables

    def solve(self) -> tuple[int, Network]:
        self.run_tables()
        root_table = self.tables[self.td.root]
        key = (0, 0, ())
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
        if self.fold is not None:
            arcs |= self.fold.lift(arcs)
            score += self.fold.tree_score()
        return score, Network(self.inst.n, frozenset(arcs))

    def _prune(self, table: dict) -> dict:
        """The entries of `table` that no other entry dominates, in their
        insertion order.

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
        is unchanged, though a tie may pick another optimal network.
        Distinct snapshots never dominate each other both ways, so the
        entries kept are exactly those no other entry dominates.
        """
        groups: dict = {}
        for key in table:
            groups.setdefault(key[0], []).append(key)
        if len(groups) == len(table):
            return table
        # con' is a subset of con when con' & ~con is 0; inn packs into
        # fields of w bits whose top bit is a guard, so inn' <= inn
        # everywhere when subtracting inn' from inn with every guard set
        # borrows no guard away
        w = (self.q or 0).bit_length() + 1
        guard = relations.pack([1 << w - 1] * len(next(iter(table))[2]), w)
        dropped = set()
        for keys in groups.values():
            if len(keys) == 1:
                continue
            # a dominating snapshot scores at least as much and, when
            # distinct, has a smaller rank: sorted, it comes first
            group = []
            for key in keys:
                con = key[1]
                group.append(((-table[key][0], con.bit_count() + sum(key[2])),
                              con, relations.pack(key[2], w) | guard, key))
            group.sort(key=itemgetter(0))
            kept: dict = {}  # con -> packed inn of each kept snapshot with it
            for _, con, inn, key in group:
                if any(not con1 & ~con and any((inn - inn1) & guard == guard for inn1 in inns)
                       for con1, inns in kept.items()):
                    dropped.add(key)
                else:
                    kept.setdefault(con, []).append(inn & ~guard)
        return {key: entry for key, entry in table.items() if key not in dropped}

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
        return {(0, 0, () if self.q is None else (0,) * len(node.bag)): (0, _NO_ARCS)}

    def _introduce(self, t, node) -> dict:
        (child,) = node.children
        v = next(iter(node.bag - self.td.nodes[child].bag))
        verts, cverts = self.verts[t], self.verts[child]
        d = len(verts)
        i = verts.index(v)
        # each undirected edge to v skipped, v->u or u->v.  con is closed,
        # and every arc of a choice touches v, so a shortest path of their
        # union switches operand, or takes two arcs in a row, only at the
        # choice's support: glue pivots there
        choices = []
        edges = [(None, (v, u), (u, v)) for u in sorted(self.g.adj[v] & node.bag)]
        for picks in product(*edges):
            arcs = frozenset(a for a in picks if a)
            inn = () if self.q is None else tuple(sum(y == x for _, y in arcs) for x in verts)
            if not inn or max(inn) <= self.q:
                gain = sum(self.inst.arc(x, y) for x, y in arcs)
                rows = relations.from_pairs(arcs, verts)
                choices.append((arcs, rows, relations.support(rows, d), inn, gain))
        table: dict = {}
        to_bag = relations.remap(cverts, verts)
        for ckey, centry in self.tables[child].items():
            loc0 = to_bag(ckey[0])
            con0 = to_bag(ckey[1])
            inn0 = ckey[2][:i] + (0,) + ckey[2][i:]
            n_old = len(relations.classes(con0, d)) if self.pl else 0
            for arcs, rows, pivots, cnt, gain in choices:
                inn = cnt and tuple(map(add, inn0, cnt))
                if inn and max(inn) > self.q:
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
        verts, cverts = self.verts[t], self.verts[child]
        v = next(iter(self.td.nodes[child].bag - node.bag))
        i = cverts.index(v)
        bonus = self.bonus.get(v, (0,) * ((self.q or 0) + 1))
        table: dict = {}
        to_bag = relations.remap(cverts, verts)
        for ckey, centry in self.tables[child].items():
            loc, con, inn = ckey
            key = (to_bag(loc), to_bag(con), inn[:i] + inn[i + 1:])
            val = centry[0] + bonus[inn[i] if inn else 0]
            cur = table.get(key)
            if cur is None or val > cur[0]:
                table[key] = (val, _NO_ARCS, ckey)
        return table

    def _join(self, t, node) -> dict:
        c1, c2 = node.children
        verts = self.verts[t]
        d = len(verts)
        units = relations.unit(d)
        # the right entries by loc, each group with loc's class count and
        # each entry with what the glue reads of its con
        by_loc: dict = {}
        for key2, entry2 in self.tables[c2].items():
            group = by_loc.get(key2[0])
            if group is None:
                n_loc = len(relations.classes(key2[0], d)) if self.pl else 0
                group = by_loc[key2[0]] = (n_loc, [])
            group[1].append((key2, entry2[0], self._aux(key2[1], d)))
        table: dict = {}
        for key1, entry1 in self.tables[c1].items():
            loc, con1, inn1 = key1
            if loc not in by_loc:
                continue
            n_loc, group = by_loc[loc]
            s1 = entry1[0] - sum(self.inst.arc(x, y) for x, y in relations.to_pairs(loc, verts))
            loc_inn = () if self.q is None else tuple(
                (loc >> j & units).bit_count() for j in range(d))
            # acyclic: both cons are closed, so glue pivots on their shared
            # support.  Polytrees: both sides are forests that share only
            # the bag and the loc arcs, so the union's cycle rank is
            # (#classes1 + #classes2 - #classes(loc)) - #classes(merged),
            # and the class count alone says whether the union is a forest
            aux1 = self._aux(con1, d)
            for key2, s2, aux2 in group:
                inn = inn1 and tuple(map(sub, map(add, inn1, key2[2]), loc_inn))
                if inn and max(inn) > self.q:
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


def _peel(g: Superstructure) -> tuple[list[int], dict]:
    """The vertices that repeatedly peeling degree <= 1 vertices removes, in
    removal order, and for each the one neighbour it had left then (None
    for the last vertex of a tree component).  The rest is the 2-core."""
    deg = [len(g.adj[v]) for v in range(g.n)]
    order = [v for v in range(g.n) if deg[v] <= 1]
    up: dict = {}
    for x in order:  # grows while read: a vertex left with one neighbour joins
        p = next((y for y in g.adj[x] if y not in up), None)
        up[x] = p
        if p is not None:
            deg[p] -= 1
            if deg[p] == 1:
                order.append(p)
    return order, up


class Fold:
    """The trees hanging off the 2-core of a superstructure, folded bottom up.

    Each peeled vertex x (`_peel`) hangs from `up[x]`.  Its edge to it is a
    bridge, which closes neither a directed cycle nor a skeleton cycle, so
    a hanging tree touches the rest of the network only through the
    in-degree of the vertex it hangs from, in both modes and for any bound
    q, which is the instance's own `max_in_degree`.  `a[x]` is the best score of x's subtree when x takes the arc from
    `up[x]`, so only q - 1 of its parents can come from below, and `b[x]`
    the best when it does not.  A child c of x adds base_c = max(a[c] +
    s(x, c), b[c]) and offers the arc c -> x at gain_c = b[c] + s(c, x) -
    base_c; x keeps its best positive gains up to its free parent slots
    (all of them without a bound).
    """

    def __init__(self, instance: AdditiveInstance, g: Superstructure):
        self.g = g
        self.q = q = instance.max_in_degree
        self.arc = instance.arc
        order, up = _peel(g)
        self.core = [v for v in range(g.n) if v not in up]
        self.kids: dict = {}
        for x in order:
            if up[x] is not None:
                self.kids.setdefault(up[x], []).append(x)
        # x with hanging trees -> (sum of its children's base_c, positive
        # gain_c paired with c, best first)
        self.hang: dict = {}
        self.a: dict = {}
        self.b: dict = {}
        self.bonus: dict = {}  # core vertex -> value with i core parents, at index i
        less = None if q is None else q - 1
        slots = [None] if q is None else range(q, -1, -1)
        for x in order + [v for v in self.core if v in self.kids]:
            if x not in self.kids:  # a leaf of its tree
                self.a[x] = self.b[x] = 0
                continue
            base, gains = 0, []
            for c in self.kids[x]:
                keep = max(self.a[c] + self.arc(x, c), self.b[c])
                base += keep
                gain = self.b[c] + self.arc(c, x) - keep
                if gain > 0:
                    gains.append((-gain, c))
            gains.sort()
            self.hang[x] = (base, [(-gain, c) for gain, c in gains])
            if x in up:
                self.a[x], self.b[x] = self.value(x, less), self.value(x, q)
            else:
                self.bonus[x] = tuple(self.value(x, k) for k in slots)
        self.roots = [x for x in order if up[x] is None]

    def value(self, x: int, k: Optional[int]) -> int:
        """Best score of x's hanging trees when at most k of their arcs
        may enter x (k None: any number)."""
        base, gains = self.hang[x]
        return base + sum(gain for gain, _ in gains[:k])

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
        indeg = Counter(y for _, y in core_arcs)
        stack = [(v, None if q is None else q - indeg[v]) for v in self.bonus]
        stack += [(r, q) for r in self.roots]
        arcs = set()
        while stack:
            x, k = stack.pop()
            if x not in self.kids:
                continue
            ups = {c for _, c in self.hang[x][1][:k]}
            for c in self.kids[x]:
                if c in ups:
                    arcs.add((c, x))
                    stack.append((c, q))
                elif self.a[c] + self.arc(x, c) > self.b[c]:
                    arcs.add((x, c))
                    stack.append((c, less))
                else:
                    stack.append((c, q))
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
    return _TwEngine(instance, td, mode, fold=fold).solve()


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
    """Per-node snapshot tables (for the semantics-verification tests):
    unpruned, every reachable snapshot with its best score, dominated ones
    included; returns (tables, decomposition)."""
    if td is None:
        td = tree_decomposition(superstructure(instance))
    eng = _TwEngine(instance, td, mode, prune=False)
    tables = eng.run_tables()
    plain = {}
    for t, table in tables.items():
        verts = eng.verts[t]
        plain[t] = {
            (relations.to_pairs(loc, verts), relations.to_pairs(con, verts),
             tuple(zip(verts, inn))): entry[0]
            for (loc, con, inn), entry in table.items()
        }
    return plain, td
