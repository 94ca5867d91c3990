"""Polynomial-time data reduction with solution lifting.

Two rules shrink an instance without changing the optimal score:

  * rule 1 absorbs the degree-1 neighbours Q of a vertex v into v's score
    table (every way Q can serve as parents of v or take v as their parent
    is folded into a max).
  * rule 2 replaces a long induced path of degree-2 vertices between two
    anchors a, c by a small gadget whose score entries encode the best the
    path can contribute in every interface scenario: which anchors feed the
    path, and (for the acyclic variant) whether a directed path can run
    through it, or (for the polytree variant) whether the path connects its
    two ends.

After exhaustive application the vertex count is bounded by a constant
multiple of the superstructure's feedback edge number (`absorb_leaves`
applies rule 1 alone).  Each application is recorded so a solution of the
reduced instance can be lifted back to one of the original instance with
the same score.

Internally the working instance lives in a "loose" id space where gadget
vertices get fresh ids and removed ids simply disappear; only the final
result is compacted to dense ids.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from typing import Optional

from . import graphs
from .instances import Network, NonZeroInstance

_EMPTY = frozenset()


class _Work:
    """Mutable kernelization state over loose vertex ids.

    The superstructure adjacency (`adj`, keyed by the live vertices) is kept
    up to date by the mutators `fresh`, `remove` and `set_entries`, and by
    rule 1 (`_apply_rr1`).  A min-heap holds every vertex that may have a
    degree-1 neighbour (pushed whenever a vertex's degree drops or rises
    to 1); `rule1_target` validates it lazily.
    """

    def __init__(self, instance: NonZeroInstance):
        self.names = dict(enumerate(instance.names))
        # the mutators replace a table and never edit one, so each is shared
        # with the instance until then
        self.entries: dict[int, dict[frozenset[int], int]] = dict(instance.entries)
        self.next_id = instance.n
        self.used_names = set(self.names.values())
        self.adj: dict[int, set[int]] = {v: set() for v in range(instance.n)}
        for v, sets in self.entries.items():
            for p in set().union(*sets):
                self.adj[v].add(p)
                self.adj[p].add(v)
        self.leaf_heap = sorted(
            next(iter(nbrs)) for nbrs in self.adj.values() if len(nbrs) == 1
        )

    def fresh(self, base: str) -> int:
        v = self.next_id
        self.next_id += 1
        name = base
        while name in self.used_names:
            name += "'"
        self.used_names.add(name)
        self.names[v] = name
        self.adj[v] = set()
        return v

    def remove(self, v: int):
        self.entries.pop(v, None)
        self.names.pop(v, None)
        nbrs = self.adj.pop(v, ())
        for u in nbrs:
            self.adj[u].discard(v)
        self._note_degrees(nbrs)

    def set_entries(self, v: int, sets: dict[frozenset[int], int]):
        """Install a score table, dropping zero-score sets (they equal the
        unlisted default and would break the representation).  Parent
        sets may still name vertices already removed (rule 2 removes the
        inner path before rewriting the anchors); those get no edge.  The
        edge to a parent that the new table drops survives exactly when
        that parent's own table still names v."""
        kept = {p: s for p, s in sets.items() if s > 0}
        old = set().union(*self.entries.get(v, ()))
        if kept:
            self.entries[v] = kept
        else:
            self.entries.pop(v, None)
        new = set().union(*kept)
        touched = {v}
        for p in old - new:
            if p in self.adj and not any(v in ps for ps in self.entries.get(p, ())):
                self.adj[p].discard(v)
                self.adj[v].discard(p)
                touched.add(p)
        for p in new - old:
            if p in self.adj:
                self.adj[p].add(v)
                self.adj[v].add(p)
                touched.add(p)
        self._note_degrees(touched)

    def _note_degrees(self, changed):
        for u in changed:
            nbrs = self.adj.get(u)
            if nbrs is not None and len(nbrs) == 1:
                heapq.heappush(self.leaf_heap, next(iter(nbrs)))

    def rule1_target(self) -> Optional[int]:
        """Smallest vertex with a degree-1 neighbour, or None."""
        heap, adj = self.leaf_heap, self.adj
        while heap:
            v = heap[0]
            for w in adj.get(v, ()):
                if len(adj[w]) == 1:
                    return v
            heapq.heappop(heap)
        return None

    def to_instance(self) -> tuple[NonZeroInstance, dict[int, int]]:
        """Compact to dense ids; returns (instance, loose id of each dense id)."""
        order = sorted(self.adj)
        dense = {loose: i for i, loose in enumerate(order)}
        entries = {}
        for v, sets in self.entries.items():
            entries[dense[v]] = {
                frozenset(dense[p] for p in parents): s for parents, s in sets.items()
            }
        names = tuple(self.names[v] for v in order)
        inst = NonZeroInstance(len(order), names, entries)
        return inst, {i: loose for loose, i in dense.items()}


class _Arcs:
    """A network's arcs indexed both ways (heads -> tails in `parents`,
    tails -> heads in `children`), so a lift step touches only the arcs at
    its own vertices."""

    def __init__(self):
        self.parents: dict[int, set[int]] = {}
        self.children: dict[int, set[int]] = {}

    def add(self, u: int, w: int):
        self.parents.setdefault(w, set()).add(u)
        self.children.setdefault(u, set()).add(w)

    def discard(self, u: int, w: int):
        self.parents.get(w, set()).discard(u)
        self.children.get(u, set()).discard(w)

    def has(self, u: int, w: int) -> bool:
        return u in self.parents.get(w, ())

    def parents_of(self, w: int) -> frozenset[int]:
        return frozenset(self.parents.get(w, ()))

    def isolate(self, x: int):
        """Drop every arc at x, in O(deg x)."""
        for u in self.parents.pop(x, ()):
            self.children.get(u, set()).discard(x)
        for w in self.children.pop(x, ()):
            self.parents.get(w, set()).discard(x)

    def pairs(self) -> set[tuple[int, int]]:
        return {(u, w) for w, us in self.parents.items() for u in us}


@dataclass
class KernelResult:
    """Reduced instance plus everything needed to lift solutions back."""

    reduced: NonZeroInstance
    steps: list[dict]
    loose_of_reduced: dict[int, int]
    original_n: int

    def lift(self, network: Network) -> Network:
        """Map a reduced-instance network to an original-instance network
        scoring at least as much (equally for optimal networks).  Each step
        reads and edits only the arcs at its own vertices."""
        arcs = _Arcs()
        for u, v in network.arcs:
            arcs.add(self.loose_of_reduced[u], self.loose_of_reduced[v])
        for step in reversed(self.steps):
            _LIFTS[step["rule"]](step, arcs)
        out = arcs.pairs()
        if any(u >= self.original_n or v >= self.original_n for u, v in out):
            raise RuntimeError("lifted network still uses a gadget vertex")
        return Network(self.original_n, frozenset(out))

    def to_json(self) -> str:
        """The map as one JSON line; no indent, so json's C encoder writes it."""
        def enc_steps(steps):
            out = []
            for s in steps:
                t = dict(s)
                if s["rule"] == 1:
                    t["configs"] = [
                        [sorted(k), sorted(v[0]), sorted(v[1])]
                        for k, v in s["configs"].items()
                    ]
                    t["fallback"] = [sorted(s["fallback"][0]), sorted(s["fallback"][1])]
                else:
                    t["configs"] = {k: list(v) for k, v in s["configs"].items()}
                    if "b_sets" in s:
                        t["b_sets"] = {k: sorted(v) for k, v in s["b_sets"].items()}
                out.append(t)
            return out

        return json.dumps({
            "original_n": self.original_n,
            "loose_of_reduced": {str(k): v for k, v in self.loose_of_reduced.items()},
            "steps": enc_steps(self.steps),
        })

    @staticmethod
    def from_json(text: str, reduced: NonZeroInstance) -> "KernelResult":
        """Read a map written by `to_json` for `reduced`; ValueError when the
        text is not one."""
        try:
            raw = json.loads(text)
            steps = [_decode_step(s) for s in raw["steps"]]
            result = KernelResult(
                reduced,
                steps,
                {int(k): v for k, v in raw["loose_of_reduced"].items()},
                raw["original_n"],
            )
            if type(result.original_n) is not int:
                raise ValueError("kernel map's original_n is not an integer")
            made = {x for st in steps if st["rule"] != 1 for x in (st["b"], *st.get("primes", ()))}
            named = list(result.loose_of_reduced.values())
            for st in steps:
                named += _step_vertices(st)
            for v in named:
                if not (type(v) is int and (0 <= v < result.original_n or v in made)):
                    raise ValueError(f"kernel map names vertex {v!r}, "
                                     "neither an original vertex nor one a step creates")
        except (KeyError, TypeError, AttributeError, IndexError) as e:
            raise ValueError(f"malformed kernel map: {type(e).__name__}: {e}") from None
        if set(result.loose_of_reduced) != set(range(reduced.n)):
            raise ValueError("kernel map does not cover the reduced instance")
        return result


def _decode_step(s: dict) -> dict:
    if s["rule"] not in _LIFTS:
        raise ValueError(f"kernel map has a step with unknown rule {s['rule']!r}")
    missing = _STEP_FIELDS[s["rule"]] - s.keys()
    if missing:
        raise ValueError(f"kernel map step lacks {', '.join(sorted(missing))}")
    t = dict(s)
    if s["rule"] == 1:
        t["configs"] = {
            frozenset(k): (frozenset(sv), frozenset(av)) for k, sv, av in s["configs"]
        }
        t["fallback"] = (frozenset(s["fallback"][0]), frozenset(s["fallback"][1]))
        t["q"] = list(s["q"])
        return t
    inner, cases = s["inner"], _CASES[s["rule"]]
    if not inner:
        raise ValueError("kernel map step has an empty path")
    if set(s["configs"]) != cases:
        raise ValueError("kernel map step needs one config for each of "
                         + ", ".join(sorted(cases)))
    t["configs"] = {k: tuple(v) for k, v in s["configs"].items()}
    if any(len(cfg) != len(inner) + 1 or not set(cfg) <= {_FWD, _BWD, _NONE}
           for cfg in t["configs"].values()):
        raise ValueError("kernel map step config needs one edge state per path edge")
    if s["rule"] == 3:
        t["b_sets"] = {k: frozenset(v) for k, v in s["b_sets"].items()}
        if len(s["primes"]) != 4 or not set(t["b_sets"]) <= cases:
            raise ValueError("kernel map step needs four primes and b_sets named by its cases")
    return t


def _step_vertices(t: dict) -> list:
    """Every vertex a decoded step names."""
    if t["rule"] == 1:
        return [t["v"], *t["q"], *t["fallback"][0], *t["fallback"][1],
                *(x for k, (sv, av) in t["configs"].items() for x in (*k, *sv, *av))]
    return [t["a"], t["c"], t["b"], *t["inner"], *t.get("primes", ()),
            *(x for v in t.get("b_sets", {}).values() for x in v)]


_STEP_FIELDS = {
    1: {"v", "q", "configs", "fallback"},
    2: {"a", "c", "inner", "b", "configs"},
    3: {"a", "c", "inner", "b", "primes", "configs", "b_sets"},
}

# A path step's cases, one per gadget state its lift can read back.
# `_bnsl_path_cases` (rule 2) and `_pl_path_cases` (rule 2', recorded as
# rule 3) return them as one case table {tag: (score, edge states)}; each
# tag joins a prefix to the _btag of an anchor set that _fed_by yields.
# The step keeps each tag's edge states as its configs.
_TAGS = ("", "a", "c", "ac")
_CASES = {
    2: {"max_" + tag for tag in _TAGS} | {"nopath_a", "nopath_c"},
    3: {f"{p}_{tag}" for p in (0, 1) for tag in _TAGS},
}


# ---------------------------------------------------------------------------
# path-score dynamic programs

_FWD, _BWD, _NONE = "fwd", "bwd", "none"
_STATES = (_FWD, _BWD, _NONE)


def _path_table(work: _Work, path_ext) -> list:
    """Each inner vertex's four scores, read once per path: table[j][i]
    for b_j fed from neither side (i = 0), from b_{j+1} only (1), from
    b_{j-1} only (2) and from both (3); table[0] is unused."""
    table = [None]
    for j in range(1, len(path_ext) - 1):
        sets = work.entries.get(path_ext[j], {})
        before, after = path_ext[j - 1], path_ext[j + 1]
        table.append((
            sets.get(frozenset(), 0),
            sets.get(frozenset((after,)), 0),
            sets.get(frozenset((before,)), 0),
            sets.get(frozenset((before, after)), 0),
        ))
    return table


def _best_config(table, e0: str, em: str, pred=lambda state: True, want=True):
    """Max total score of the inner path vertices over orientations of the
    internal edges, with fixed end-edge states, among the configurations in
    which "every internal edge state satisfies pred" equals `want` (with no
    internal edges it holds vacuously).  `table` is the path's
    `_path_table`; edge states are indices into _STATES inside.

    Returns (score, edge state tuple) or None when infeasible.
    """
    m = len(table) - 1
    ok = [pred(st) for st in _STATES]
    # b_j's score index is 2 when edge j-1 points into it (forward), plus 1
    # when edge j does (backward).
    # layers[j]: (state of edge j, pred held so far) -> (best score, backptr)
    layers = [{(_STATES.index(e0), True): (0, None)}]
    for j in range(1, m):  # choose edge j between b_j and b_{j+1}
        scores = table[j]
        nxt: dict = {}
        for (prev, flag), (sc, _) in layers[-1].items():
            fed = 2 if prev == 0 else 0
            for st in (0, 1, 2):
                s2 = sc + scores[fed + (st == 1)]
                key = (st, flag and ok[st])
                cur = nxt.get(key)
                if cur is None or s2 > cur[0]:
                    nxt[key] = (s2, (prev, flag))
        layers.append(nxt)
    best = None
    into_m = em == _BWD
    for (prev, flag), (sc, _) in layers[-1].items():
        if flag != want:
            continue
        total = sc + table[m][(2 if prev == 0 else 0) + into_m]
        if best is None or total > best[0]:
            best = (total, (prev, flag))
    if best is None:
        return None
    total, key = best
    states = [key[0]]
    for layer in reversed(layers[1:]):
        key = layer[key][1]
        states.append(key[0])
    states.reverse()
    return total, tuple([_STATES[st] for st in states] + [em])


def _bnsl_path_cases(work: _Work, path_ext) -> dict:
    """Rule 2's case table {tag: (score, edge states)}: "max_" and the
    anchors feeding the path (internal edges free) for each anchor set,
    then "nopath_a" (a feeds the path, c does not, and no directed path
    runs from a through to the far end) and "nopath_c" (symmetric)."""
    a, c = path_ext[0], path_ext[-1]
    table = _path_table(work, path_ext)
    cases = {
        "max_" + _btag(bset, a, c): _best_config(table, e0, em) for bset, e0, em in _fed_by(a, c)
    }
    # a single inner vertex leaves the no-through-path families empty; the
    # contraction rule never fires there (it needs >= 4 inner vertices)
    for tag, e0, em, through in (("nopath_a", _FWD, _NONE, _FWD), ("nopath_c", _NONE, _BWD, _BWD)):
        cases[tag] = _best_config(table, e0, em, lambda st: st == through, False) or (None, None)
    return cases


def _pl_path_cases(work: _Work, path_ext) -> dict:
    """Rule 2''s case table {tag: (score, edge states)}: p and the anchors
    feeding the path, with p=1 iff the path's two ends stay connected (all
    internal edges kept)."""
    a, c = path_ext[0], path_ext[-1]
    table = _path_table(work, path_ext)
    cases = {}
    for bset, e0, em in _fed_by(a, c):
        for p in (0, 1):
            # a single inner vertex is both ends of the path, which is then
            # connected whatever p asks for
            cases[f"{p}_{_btag(bset, a, c)}"] = (
                _best_config(table, e0, em, _present, p == 1)
                or _best_config(table, e0, em, _present, True)
            )
    return cases


def _present(state: str) -> bool:
    return state != _NONE


def _fed_by(a: int, c: int):
    """Each set B of anchors feeding the path, with its end-edge states."""
    for bset in (frozenset(), frozenset([a]), frozenset([c]), frozenset([a, c])):
        yield bset, _FWD if a in bset else _NONE, _BWD if c in bset else _NONE


# ---------------------------------------------------------------------------
# rule applications on the working state


def _apply_rr1(work: _Work, v: int) -> dict:
    """Rule 1 at v, with Q the degree-1 neighbours of v in the working
    superstructure.

    A leaf w in Q scores se alone and se + gain with v as its parent; it
    takes the arc from v whenever it is not v's parent and gain > 0, so
    a parent set p of v completes with base - (the gains of the leaves in
    p).  v's parent sets are grouped by p - Q, each group keeping its best
    member (the unlisted p - Q too, at score 0), ties to the first in the
    order of sorted(p).  No two members share p, so the best member
    does not depend on the order they are offered in, and one pass over
    v's table builds the new table and the step's configs together; a
    group's member p is its key | its config's parents from Q.  v's table
    is replaced, the leaves dropped, and the heap learns of v's remaining
    neighbour when v is a leaf now.
    """
    adj, entries = work.adj, work.entries
    from_v = frozenset((v,))
    q = []
    base = 0
    gain = {}
    for w in sorted(adj[v]):
        if len(adj[w]) != 1:
            continue
        q.append(w)
        sets = entries.get(w)
        if sets is None:
            continue
        se, sv = sets.get(_EMPTY, 0), sets.get(from_v, 0)
        base += se
        if sv > se:
            base += sv - se
            gain[w] = sv - se
    if not q:
        raise ValueError(f"no degree-1 neighbours at {v}")
    qset = frozenset(q)
    takes = frozenset(gain)  # the leaves that take the arc unless they are parents
    none_in = (_EMPTY, takes)  # the config of every p disjoint from Q

    old_sets = entries.get(v, {})
    new_sets: dict[frozenset[int], int] = {}  # p - Q -> best score
    configs: dict[frozenset[int], tuple] = {}  # p - Q -> (p & Q, arcs from v)
    for p, val in old_sets.items():
        val += base
        if qset.isdisjoint(p):  # most sets; skips the set algebra below
            reduced, members = p, _EMPTY
        else:
            members = p & qset
            reduced = p - members
            for w in members:
                val -= gain.get(w, 0)
            if reduced not in new_sets and reduced not in old_sets:
                new_sets[reduced] = base  # the unlisted p - Q
                configs[reduced] = none_in
        cur = new_sets.get(reduced)
        if (cur is None or val > cur
                or val == cur and sorted(p) < sorted(reduced | configs[reduced][0])):
            new_sets[reduced] = val
            configs[reduced] = (members, takes - members) if members else none_in
    if _EMPTY not in new_sets:
        new_sets[_EMPTY] = base
        configs[_EMPTY] = none_in
    # the new table is never empty: a listed p outside Q keeps p - Q at p's
    # score or more, at least 1; otherwise the edge to a leaf w is w's {v}
    # (base >= 1) or a non-empty p inside Q (the empty set's group >= 1)
    if not new_sets[_EMPTY]:
        del new_sets[_EMPTY]
    entries[v] = new_sets
    names = work.names
    for w in q:
        entries.pop(w, None)
        del names[w], adj[w]
    adj[v] -= qset
    work._note_degrees((v,))
    return {"rule": 1, "v": v, "q": q, "configs": configs, "fallback": none_in}


def _lift_rr1(step, arcs: _Arcs):
    v = step["v"]
    s_members, arcs_out = step["configs"].get(arcs.parents_of(v), step["fallback"])
    for u in s_members:
        arcs.add(u, v)
    for w in arcs_out:
        arcs.add(v, w)


def _apply_rr2(work: _Work, path_ext: list[int]) -> dict:
    """Rule 2 on the path, from its case table: the fresh hub b scores
    each "max_" case under its feeding anchors plus b_1 and b_m, and b_1
    (b_m) scores "nopath_a" ("nopath_c") under a (c), b and the other end.
    The step keeps each case's edge states as its configs."""
    a, c = path_ext[0], path_ext[-1]
    inner = path_ext[1:-1]
    if len(inner) < 4:
        raise ValueError("rule 2 needs at least 4 inner vertices")
    cases = _bnsl_path_cases(work, path_ext)
    b1, bm = inner[0], inner[-1]
    b = work.fresh("p" + work.names[b1])
    for w in inner[1:-1]:
        work.remove(w)
    work.set_entries(b, {
        bset | {b1, bm}: cases["max_" + _btag(bset, a, c)][0] for bset, _, _ in _fed_by(a, c)
    })
    work.set_entries(b1, {frozenset({a, b, bm}): cases["nopath_a"][0]})
    work.set_entries(bm, {frozenset({c, b, b1}): cases["nopath_c"][0]})
    _reroute(work, a, b1, {b1, b})
    _reroute(work, c, bm, {bm, b})
    return {
        "rule": 2,
        "a": a,
        "c": c,
        "inner": inner,
        "b": b,
        "configs": {tag: cfg for tag, (_, cfg) in cases.items()},
    }


def _lift_rr2(step, arcs: _Arcs):
    a, c, b = step["a"], step["c"], step["b"]
    b1, bm = step["inner"][0], step["inner"][-1]
    pa, pc = arcs.has(b1, a), arcs.has(bm, c)
    if arcs.parents_of(b1) == {a, b, bm}:
        case = "nopath_a"
    elif arcs.parents_of(bm) == {c, b, b1}:
        case = "nopath_c"
    else:
        case = "max_" + _btag(arcs.parents_of(b), a, c)
    # drop the gadget's arcs: all at b, and those among a, b1, bm, c that
    # touch b1 or bm
    arcs.isolate(b)
    for x in (b1, bm):
        for y in (a, b1, bm, c):
            arcs.discard(x, y)
            arcs.discard(y, x)
    _orient_path(step, case, arcs, pa, pc)


def _orient_path(step, case: str, arcs: _Arcs, into_a: bool, into_c: bool):
    """Add the path's arcs as the edge states of the case's config say, and
    the arcs from the path's end vertices into the anchors where asked."""
    a, inner, c = step["a"], step["inner"], step["c"]
    path_ext = [a] + list(inner) + [c]
    for j, st in enumerate(step["configs"][case]):
        if st == _FWD:
            arcs.add(path_ext[j], path_ext[j + 1])
        elif st == _BWD:
            arcs.add(path_ext[j + 1], path_ext[j])
    if into_a:
        arcs.add(inner[0], a)
    if into_c:
        arcs.add(inner[-1], c)


def _apply_rr2_pl(work: _Work, path_ext: list[int]) -> dict:
    """Rule 2' on the path, from its case table: five fresh vertices
    replace it, and the hub b scores each case under its set in `b_sets`.
    The step keeps each case's edge states as its configs."""
    a, c = path_ext[0], path_ext[-1]
    inner = path_ext[1:-1]
    if len(inner) < 6:
        raise ValueError("polytree rule 2 needs at least 6 inner vertices")
    cases = _pl_path_cases(work, path_ext)
    base = work.names[inner[0]]
    b = work.fresh("p" + base)
    b1p = work.fresh("p" + base + "s")
    b1pp = work.fresh("p" + base + "ss")
    bmp = work.fresh("p" + base + "t")
    bmpp = work.fresh("p" + base + "tt")
    for w in inner:
        work.remove(w)
    b_sets = {
        "1_ac": frozenset({a, c, b1p, b1pp, bmp, bmpp}),
        "0_ac": frozenset({b1p, b1pp, bmp, bmpp}),
        "1_": frozenset({b1p, bmp}),
        "0_": frozenset(),
        "1_a": frozenset({a, b1p, b1pp, bmp}),
        "0_a": frozenset({b1p, b1pp}),
        "1_c": frozenset({c, bmp, bmpp, b1p}),
        "0_c": frozenset({bmp, bmpp}),
    }
    work.set_entries(b, {pset: cases[tag][0] for tag, pset in b_sets.items()})
    _reroute(work, a, inner[0], {b1p, b1pp})
    _reroute(work, c, inner[-1], {bmp, bmpp})
    return {
        "rule": 3,
        "a": a,
        "c": c,
        "inner": inner,
        "b": b,
        "primes": [b1p, b1pp, bmp, bmpp],
        "configs": {tag: cfg for tag, (_, cfg) in cases.items()},
        "b_sets": b_sets,
    }


def _reroute(work: _Work, anchor: int, end: int, via: set[int]):
    """Parent sets of the anchor that name the path's end vertex name the
    vertices `via` instead."""
    work.set_entries(anchor, {
        (parents - {end}) | via if end in parents else parents: s
        for parents, s in work.entries.get(anchor, {}).items()
    })


def _btag(bset, a, c) -> str:
    return ("a" if a in bset else "") + ("c" if c in bset else "")


def _lift_rr2_pl(step, arcs: _Arcs):
    a, c, b = step["a"], step["c"], step["b"]
    b1p, b1pp, bmp, bmpp = step["primes"]
    parents_b = arcs.parents_of(b)
    pa = arcs.has(b1p, a) or arcs.has(b1pp, a)
    pc = arcs.has(bmp, c) or arcs.has(bmpp, c)
    case = next(
        (tag for tag, pset in step["b_sets"].items() if parents_b == pset),
        "0_" + _btag(parents_b, a, c),
    )
    for x in (b, b1p, b1pp, bmp, bmpp):
        arcs.isolate(x)
    _orient_path(step, case, arcs, pa, pc)


_LIFTS = {1: _lift_rr1, 2: _lift_rr2, 3: _lift_rr2_pl}


# ---------------------------------------------------------------------------
# contractible path discovery


def _find_paths(work: _Work, min_inner: int) -> list[list[int]]:
    """Induced degree-2 paths between marked vertices (feedback edge
    endpoints and tree branch vertices), longest first.

    The spanning forest is the shared breadth-first one (from the smallest
    vertex of each component, neighbours ascending).  A vertex is marked when
    its tree degree is at least 3 or differs from its degree, i.e. it ends a
    feedback edge; every edge of an unmarked vertex is a tree edge, so the
    chains between marked vertices are walked on the adjacency itself.
    """
    adj = work.adj
    parent, _, order, root = graphs._bfs(
        list(map(adj.get, range(work.next_id))), sorted(adj)  # removed ids stay unreached
    )
    tree_degree = [0] * work.next_id
    for v in order:
        if parent[v] is not None:
            tree_degree[v] += 1
            tree_degree[parent[v]] += 1
    marked = [
        v for v in order if tree_degree[v] >= 3 or tree_degree[v] != len(adj[v])
    ]
    is_marked = set(marked)
    if {root[v] for v in order if adj[v]} != {root[v] for v in marked}:
        raise RuntimeError("multi-vertex component with no feedback edge")
    paths = []
    for u in marked:
        for w in adj[u]:
            if w in is_marked:
                continue
            inner = []
            prev, cur = u, w
            while cur not in is_marked:
                inner.append(cur)
                nxts = [x for x in adj[cur] if x != prev]
                if not nxts:
                    break  # pendant chain, no second anchor
                prev, cur = cur, nxts[0]
            else:  # record each path once, from its smaller anchor
                if u < cur and len(inner) >= min_inner:
                    paths.append([u] + inner + [cur])
    paths.sort(key=lambda p: (-len(p), p))
    return paths


def _kernelize(instance: NonZeroInstance, path_rule: Optional[tuple]) -> KernelResult:
    """Rule 1 exhaustively, then one path contraction at a time by
    `path_rule`, (min inner vertices, application), until neither applies;
    rule 1 alone when `path_rule` is None."""
    work = _Work(instance)
    steps: list[dict] = []
    while True:
        # in a two-vertex component the rule-1 target is the smaller end
        while (target := work.rule1_target()) is not None:
            steps.append(_apply_rr1(work, target))
        paths = [] if path_rule is None else _find_paths(work, path_rule[0])
        if not paths:
            break
        steps.append(path_rule[1](work, paths[0]))
    reduced, loose_of_reduced = work.to_instance()
    return KernelResult(reduced, steps, loose_of_reduced, instance.n)


def kernelize_bnsl(instance: NonZeroInstance) -> KernelResult:
    """Exhaustive rules 1 and 2; the reduced instance has the same optimal
    score and at most 16 * (feedback edge number) variables."""
    return _kernelize(instance, (4, _apply_rr2))


def kernelize_pl(instance: NonZeroInstance) -> KernelResult:
    """Polytree variant: rules 1 and 2'; at most 24 * fen variables."""
    return _kernelize(instance, (6, _apply_rr2_pl))


def absorb_leaves(instance: NonZeroInstance) -> KernelResult:
    """Exhaustive rule 1 alone, the same in both modes: every pendant tree
    is absorbed into the vertex it hangs from.  The reduced instance keeps
    the superstructure's 2-core, one vertex of each tree component and
    every edge among the kept vertices (each reduced non-empty parent set
    scores at least the set it came from), so every spanning forest, cut
    to the kept vertices, keeps its feedback edges and their tree paths."""
    return _kernelize(instance, None)
