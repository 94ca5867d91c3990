"""Snapshot dynamic programs over a nice tree decomposition.

For additive scores the state at a decomposition node is a snapshot of the
partial network on the vertices seen so far: the arcs among bag vertices
(loc), what the bag can observe of connectivity through forgotten vertices
(con: strict reachability for acyclic networks, same-component pairs for
polytrees), and per-bag-vertex parent counts (inn) when an in-degree bound
applies.  Tables map snapshots to the best achievable partial score.

Arcs are drawn from the superstructure only; any other arc scores zero and
can never help, so the optimum is unaffected and tables stay small.
"""

from __future__ import annotations

from typing import Optional

from . import relations
from .graphs import NiceTreeDecomposition, tree_decomposition
from .instances import AdditiveInstance, Network, superstructure


class _TwEngine:
    def __init__(
        self,
        instance: AdditiveInstance,
        td: NiceTreeDecomposition,
        mode: str,
        q: Optional[int],
    ):
        if mode not in ("bnsl", "pl"):
            raise ValueError(f"unknown mode {mode!r}; expected 'bnsl' or 'pl'")
        self.inst = instance
        self.td = td
        self.mode = mode
        self.q = q
        self.g = superstructure(instance)
        self.verts = [tuple(sorted(node.bag)) for node in td.nodes]
        self.tables: dict[int, dict] = {}

    # snapshots: (loc rows, con rows, inn tuple of (v, count)); loc and con
    # are bit-row relations over the node's sorted bag (bnsl.relations)

    def _inn_key(self, counts: dict) -> tuple:
        if self.q is None:
            return ()
        return tuple(sorted(counts.items()))

    def run_tables(self):
        nodes = self.td.nodes
        for t in self.td.postorder():
            node = nodes[t]
            if node.kind == "leaf":
                self.tables[t] = self._leaf(node)
            elif node.kind == "introduce":
                self.tables[t] = self._introduce(t, node)
            elif node.kind == "forget":
                self.tables[t] = self._forget(t, node)
            else:
                self.tables[t] = self._join(t, node)
        return self.tables

    def solve(self) -> tuple[int, Network]:
        self.run_tables()
        root_table = self.tables[self.td.root]
        key = ((), (), ())
        if list(root_table) != [key]:
            raise RuntimeError("root must hold the single empty snapshot")
        score, _ = root_table[key]
        arcs = self._collect(self.td.root, key)
        return score, Network(self.inst.n, frozenset(arcs))

    def _leaf(self, node) -> dict:
        empty = (0,) * len(node.bag)
        return {(empty, empty, self._inn_key(dict.fromkeys(node.bag, 0))): (0, ("leaf",))}

    def _introduce(self, t, node) -> dict:
        (child,) = node.children
        v = next(iter(node.bag - self.td.nodes[child].bag))
        verts, cverts = self.verts[t], self.verts[child]
        nbrs = sorted(self.g.adj[v] & node.bag)
        cand_arcs = [(v, u) for u in nbrs] + [(u, v) for u in nbrs]
        table: dict = {}
        child_table = self.tables[child]
        subsets = [(q, relations.from_pairs(q, verts)) for q in _arc_subsets(cand_arcs)]
        for ckey, (cscore, _) in child_table.items():
            loc0, con0, inn0 = ckey
            loc0 = relations.reindex(loc0, cverts, verts)
            con0 = relations.reindex(con0, cverts, verts)
            if self.mode == "pl":
                n_old = len(relations.classes(con0))
            inn0d = dict(inn0)
            for q_arcs, q_rows in subsets:
                gain = 0
                ok = True
                if self.q is not None:
                    innd = dict(inn0d)
                    innd[v] = 0
                    for (x, y) in q_arcs:
                        innd[y] = innd.get(y, 0) + 1
                        if innd[y] > self.q:
                            ok = False
                            break
                    if not ok:
                        continue
                    inn = tuple(sorted(innd.items()))
                else:
                    inn = ()
                for (x, y) in q_arcs:
                    gain += self.inst.arc(x, y)
                merged = [a | b for a, b in zip(con0, q_rows)]
                if self.mode == "bnsl":
                    con = relations.closure(merged)
                    if not relations.irreflexive(con):
                        continue
                else:
                    if len(relations.classes(merged)) != n_old - len(q_arcs):
                        continue
                    con = relations.same_class(merged)
                loc = tuple(a | b for a, b in zip(loc0, q_rows))
                key = (loc, tuple(con), inn)
                val = cscore + gain
                cur = table.get(key)
                if cur is None or val > cur[0]:
                    table[key] = (val, ("intro", ckey, q_arcs))
        return table

    def _forget(self, t, node) -> dict:
        (child,) = node.children
        v = next(iter(self.td.nodes[child].bag - node.bag))
        verts, cverts = self.verts[t], self.verts[child]
        table: dict = {}
        for ckey, (cscore, _) in self.tables[child].items():
            loc0, con0, inn0 = ckey
            loc = tuple(relations.reindex(loc0, cverts, verts))
            con = tuple(relations.reindex(con0, cverts, verts))
            inn = tuple((x, k) for x, k in inn0 if x != v)
            key = (loc, con, inn)
            cur = table.get(key)
            if cur is None or cscore > cur[0]:
                table[key] = (cscore, ("forget", ckey))
        return table

    def _join(self, t, node) -> dict:
        c1, c2 = node.children
        bag = node.bag
        by_loc: dict = {}
        for key2 in self.tables[c2]:
            by_loc.setdefault(key2[0], []).append(key2)
        table: dict = {}
        for key1, (s1, _) in self.tables[c1].items():
            loc, con1, inn1 = key1
            loc_arcs = relations.to_pairs(loc, self.verts[t])
            doublecount = sum(self.inst.arc(x, y) for x, y in loc_arcs)
            if self.q is not None:
                indeg_loc: dict = {}
                for x, y in loc_arcs:
                    indeg_loc[y] = indeg_loc.get(y, 0) + 1
            if self.mode == "pl":
                locc = tuple(relations.same_class(loc))
                n_shared = len(relations.classes(loc))
                n1 = len(relations.classes(con1))
            for key2 in by_loc.get(loc, ()):
                _, con2, inn2 = key2
                s2 = self.tables[c2][key2][0]
                if self.q is not None:
                    innd = {}
                    d1, d2 = dict(inn1), dict(inn2)
                    ok = True
                    for x in bag:
                        innd[x] = d1.get(x, 0) + d2.get(x, 0) - indeg_loc.get(x, 0)
                        if innd[x] > self.q:
                            ok = False
                            break
                    if not ok:
                        continue
                    inn = tuple(sorted(innd.items()))
                else:
                    inn = ()
                merged = [a | b for a, b in zip(con1, con2)]
                if self.mode == "bnsl":
                    con = relations.closure(merged)
                    if not relations.irreflexive(con):
                        continue
                else:
                    # the two partial polytrees share exactly the bag
                    # vertices and the loc arcs; contracting loc, their
                    # union has a forest skeleton iff the loc components
                    # are exactly the pairs both sides connect and gluing
                    # the two component partitions merges everything
                    # freshly: #shared = #classes1 + #classes2 - #merged
                    if tuple(a & b for a, b in zip(con1, con2)) != locc:
                        continue
                    n2 = len(relations.classes(con2))
                    if n_shared != n1 + n2 - len(relations.classes(merged)):
                        continue
                    con = relations.same_class(merged)
                key = (loc, tuple(con), inn)
                val = s1 + s2 - doublecount
                cur = table.get(key)
                if cur is None or val > cur[0]:
                    table[key] = (val, ("join", key1, key2))
        return table

    def _collect(self, t, key) -> set:
        arcs: set = set()
        stack = [(t, key)]
        while stack:
            t, key = stack.pop()
            back = self.tables[t][key][1]
            node = self.td.nodes[t]
            if back[0] == "leaf":
                continue
            if back[0] == "intro":
                arcs |= back[2]
                stack.append((node.children[0], back[1]))
            elif back[0] == "forget":
                stack.append((node.children[0], back[1]))
            else:
                stack.append((node.children[0], back[1]))
                stack.append((node.children[1], back[2]))
        return arcs


def _arc_subsets(cand: list) -> list[frozenset]:
    """All arc subsets using each undirected edge at most once."""
    edges: dict = {}
    for u, v in cand:
        edges.setdefault(frozenset((u, v)), []).append((u, v))
    out = [frozenset()]
    for pair, orients in edges.items():
        new = []
        for s in out:
            new.append(s)
            for o in orients:
                new.append(s | {o})
        out = new
    return out


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
    """Per-node snapshot tables (for the semantics-verification tests);
    returns (tables, decomposition)."""
    if td is None:
        td = tree_decomposition(superstructure(instance))
    eng = _TwEngine(instance, td, mode, instance.max_in_degree)
    tables = eng.run_tables()
    plain = {}
    for t, table in tables.items():
        verts = eng.verts[t]
        plain[t] = {
            (relations.to_pairs(loc, verts), relations.to_pairs(con, verts), inn): val
            for (loc, con, inn), (val, _) in table.items()
        }
    return plain, td
