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
"""

from __future__ import annotations

from itertools import product
from operator import add, itemgetter, sub
from typing import Optional

from . import relations
from .graphs import NiceTreeDecomposition, tree_decomposition
from .instances import AdditiveInstance, Network, superstructure

_NO_ARCS: frozenset = frozenset()


def _pack(values, width: int) -> int:
    """`values`, each below 2**width, as the fields of one int."""
    out = 0
    for x in values:
        out = out << width | x
    return out


class _TwEngine:
    def __init__(
        self,
        instance: AdditiveInstance,
        td: NiceTreeDecomposition,
        mode: str,
        q: Optional[int],
        prune: bool = True,
    ):
        if mode not in ("bnsl", "pl"):
            raise ValueError(f"unknown mode {mode!r}; expected 'bnsl' or 'pl'")
        self.inst = instance
        self.td = td
        self.pl = mode == "pl"
        self.q = q
        self.prune = prune
        self.g = superstructure(instance)
        self.verts = [tuple(sorted(node.bag)) for node in td.nodes]
        self.tables: dict[int, dict] = {}

    # snapshots: (loc rows, con rows, inn); loc and con are bit-row relations
    # over the node's sorted bag (bnsl.relations), inn the parent count of
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
        key = ((), (), ())
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
        the second does.  And the results again have a subset con, no
        larger inn and no lower score, so the root score is unchanged,
        though a tie may pick another optimal network.  Distinct snapshots
        never dominate each other both ways, so the entries kept are
        exactly those no other entry dominates.
        """
        groups: dict = {}
        for key in table:
            groups.setdefault(key[0], []).append(key)
        if len(groups) == len(table):
            return table
        # con packs into one int of d-bit rows, so con' is a subset of con
        # when con' & ~con is 0; inn packs into fields of w bits whose top
        # bit is a guard, so inn' <= inn everywhere when subtracting inn'
        # from inn with every guard set borrows no guard away
        d = len(next(iter(table))[1])
        w = (self.q or 0).bit_length() + 1
        guard = _pack([1 << w - 1] * d, w)
        dropped = set()
        for keys in groups.values():
            if len(keys) == 1:
                continue
            # a dominating snapshot scores at least as much and, when
            # distinct, has a smaller rank: sorted, it comes first
            group = []
            for key in keys:
                con = _pack(key[1], d)
                group.append(((-table[key][0], con.bit_count() + sum(key[2])),
                              con, _pack(key[2], w) | guard, key))
            group.sort(key=itemgetter(0))
            kept: dict = {}  # con -> packed inn of each kept snapshot with it
            for _, con, inn, key in group:
                if any(not con1 & ~con and any((inn - inn1) & guard == guard for inn1 in inns)
                       for con1, inns in kept.items()):
                    dropped.add(key)
                else:
                    kept.setdefault(con, []).append(inn & ~guard)
        return {key: entry for key, entry in table.items() if key not in dropped}

    def _classes(self, rows) -> int:
        """Class count of `rows`, which only the polytree glue reads."""
        return len(relations.classes(rows)) if self.pl else 0

    def _glue(self, a, b, fresh: int):
        """Connectivity of the union of two partial networks with boundary
        relations `a` and `b`, or None when the union is not acyclic (in
        polytree mode: not a polytree, which it is exactly when the merged
        rows have `fresh` classes)."""
        merged = [x | y for x, y in zip(a, b)]
        if not self.pl:
            con = relations.closure(merged)
            return tuple(con) if relations.irreflexive(con) else None
        if len(relations.classes(merged)) != fresh:
            return None
        return tuple(relations.same_class(merged))

    def _leaf(self, t, node) -> dict:
        empty = (0,) * len(node.bag)
        return {(empty, empty, () if self.q is None else empty): (0, _NO_ARCS)}

    def _introduce(self, t, node) -> dict:
        (child,) = node.children
        v = next(iter(node.bag - self.td.nodes[child].bag))
        verts, cverts = self.verts[t], self.verts[child]
        i = verts.index(v)
        choices = []  # each undirected edge to v skipped, v->u or u->v
        edges = [(None, (v, u), (u, v)) for u in sorted(self.g.adj[v] & node.bag)]
        for picks in product(*edges):
            arcs = frozenset(a for a in picks if a)
            inn = () if self.q is None else tuple(sum(y == x for _, y in arcs) for x in verts)
            if not inn or max(inn) <= self.q:
                gain = sum(self.inst.arc(x, y) for x, y in arcs)
                choices.append((arcs, relations.from_pairs(arcs, verts), inn, gain))
        table: dict = {}
        for ckey, centry in self.tables[child].items():
            loc0 = relations.reindex(ckey[0], cverts, verts)
            con0 = relations.reindex(ckey[1], cverts, verts)
            inn0 = ckey[2][:i] + (0,) + ckey[2][i:]
            n_old = self._classes(con0)
            for arcs, rows, cnt, gain in choices:
                inn = cnt and tuple(map(add, inn0, cnt))
                if inn and max(inn) > self.q:
                    continue
                # each arc of a polytree choice joins v to a new class
                con = self._glue(con0, rows, n_old - len(arcs))
                if con is None:
                    continue
                key = (tuple(a | b for a, b in zip(loc0, rows)), con, inn)
                val = centry[0] + gain
                cur = table.get(key)
                if cur is None or val > cur[0]:
                    table[key] = (val, arcs, ckey)
        return table

    def _forget(self, t, node) -> dict:
        (child,) = node.children
        verts, cverts = self.verts[t], self.verts[child]
        i = cverts.index(next(iter(self.td.nodes[child].bag - node.bag)))
        table: dict = {}
        for ckey, centry in self.tables[child].items():
            loc, con, inn = ckey
            key = (
                tuple(relations.reindex(loc, cverts, verts)),
                tuple(relations.reindex(con, cverts, verts)),
                inn[:i] + inn[i + 1:],
            )
            cur = table.get(key)
            if cur is None or centry[0] > cur[0]:
                table[key] = (centry[0], _NO_ARCS, ckey)
        return table

    def _join(self, t, node) -> dict:
        c1, c2 = node.children
        verts = self.verts[t]
        by_loc: dict = {}
        for key2, entry2 in self.tables[c2].items():
            by_loc.setdefault(key2[0], []).append((key2, entry2[0], self._classes(key2[1])))
        table: dict = {}
        for key1, entry1 in self.tables[c1].items():
            loc, con1, inn1 = key1
            s1 = entry1[0] - sum(self.inst.arc(x, y) for x, y in relations.to_pairs(loc, verts))
            loc_inn = () if self.q is None else tuple(
                sum(row >> j & 1 for row in loc) for j in range(len(verts)))
            # polytrees: both sides are forests that share only the bag and
            # the loc arcs, so the union's cycle rank is (#classes1 +
            # #classes2 - #classes(loc)) - #classes(merged), and the class
            # count alone says whether the union is a forest
            n_rest = self._classes(con1) - self._classes(loc)
            for key2, s2, n2 in by_loc.get(loc, ()):
                inn = inn1 and tuple(map(sub, map(add, inn1, key2[2]), loc_inn))
                if inn and max(inn) > self.q:
                    continue
                con = self._glue(con1, key2[1], n_rest + n2)
                if con is None:
                    continue
                key = (loc, con, inn)
                val = s1 + s2
                cur = table.get(key)
                if cur is None or val > cur[0]:
                    table[key] = (val, _NO_ARCS, key1, key2)
        return table


def solve_bnsl_additive(
    instance: AdditiveInstance, td: Optional[NiceTreeDecomposition] = None
) -> tuple[int, Network]:
    """Optimal acyclic network for additive scores; runs the in-degree
    bounded variant when the instance carries a bound."""
    if td is None:
        td = tree_decomposition(superstructure(instance))
    eng = _TwEngine(instance, td, "bnsl", instance.max_in_degree)
    return eng.solve()


def solve_pl_additive_tw(
    instance: AdditiveInstance, td: Optional[NiceTreeDecomposition] = None
) -> tuple[int, Network]:
    """Optimal in-degree-bounded polytree for additive scores."""
    if instance.max_in_degree is None:
        raise ValueError("polytree bag DP needs an in-degree bound; "
                         "use the spanning-forest solver instead")
    if td is None:
        td = tree_decomposition(superstructure(instance))
    eng = _TwEngine(instance, td, "pl", instance.max_in_degree)
    return eng.solve()


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
    eng = _TwEngine(instance, td, mode, instance.max_in_degree, prune=False)
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
