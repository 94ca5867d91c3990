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
multiple of the superstructure's feedback edge number.  Each application is
recorded so a solution of the reduced instance can be lifted back to one of
the original instance with the same score.

Internally the working instance lives in a "loose" id space where gadget
vertices get fresh ids and removed ids simply disappear; only the final
result is compacted to dense ids.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .instances import Network, NonZeroInstance, superstructure


@dataclass(frozen=True)
class PathScores:
    """Best path contributions for the acyclic variant.

    l_max[B] for B <= {a, c}: anchors in B feed the path (arc into the
    adjacent end vertex), internal edges free.  l_nopath_a: a feeds the
    path, c does not, and no directed path runs from a through to the far
    end (l_nopath_c symmetric).
    """

    a: int
    c: int
    l_max: dict[frozenset[int], int]
    l_nopath_a: int
    l_nopath_c: int
    configs: dict[str, tuple[str, ...]] = field(default_factory=dict, repr=False)


@dataclass(frozen=True)
class PlPathScores:
    """Best path contributions for the polytree variant: l[(p, B)] with
    p=1 iff the path's two ends stay connected (all internal edges kept)."""

    a: int
    c: int
    l: dict[tuple[int, frozenset[int]], int]
    configs: dict[tuple[int, frozenset[int]], tuple[str, ...]] = field(
        default_factory=dict, repr=False
    )


class _Work:
    """Mutable kernelization state over loose vertex ids.

    The superstructure adjacency (`adj`) and each vertex's parent union are
    kept up to date by the three mutators `fresh`, `remove` and
    `set_entries`.  A min-heap holds every vertex that may have a degree-1
    neighbour (pushed whenever a vertex's degree drops or rises to 1);
    `rule1_target` validates it lazily.
    """

    def __init__(self, instance: NonZeroInstance):
        self.n0 = instance.n
        self.names = {v: instance.names[v] for v in range(instance.n)}
        self.entries: dict[int, dict[frozenset[int], int]] = {
            v: dict(sets) for v, sets in instance.entries.items()
        }
        self.vertices = set(range(instance.n))
        self.next_id = instance.n
        self.used_names = set(self.names.values())
        self.target = instance.target
        self.adj: dict[int, set[int]] = {v: set() for v in self.vertices}
        self.parent_union: dict[int, set[int]] = {}
        for v, sets in self.entries.items():
            union = self.parent_union[v] = set().union(*sets)
            for p in union:
                self.adj[v].add(p)
                self.adj[p].add(v)
        self.leaf_heap = sorted(
            next(iter(nbrs)) for nbrs in self.adj.values() if len(nbrs) == 1
        )

    @property
    def n(self) -> int:
        return len(self.vertices)

    def fresh(self, base: str) -> int:
        v = self.next_id
        self.next_id += 1
        name = base
        while name in self.used_names:
            name += "'"
        self.used_names.add(name)
        self.names[v] = name
        self.vertices.add(v)
        self.adj[v] = set()
        return v

    def remove(self, v: int):
        self.vertices.discard(v)
        self.entries.pop(v, None)
        self.names.pop(v, None)
        self.parent_union.pop(v, None)
        nbrs = self.adj.pop(v, ())
        for u in nbrs:
            self.adj[u].discard(v)
        self._note_degrees(nbrs)

    def score(self, v: int, parents: frozenset[int]) -> int:
        return self.entries.get(v, {}).get(parents, 0)

    def set_entries(self, v: int, sets: dict[frozenset[int], int]):
        """Install a score table, dropping zero non-empty sets (they equal
        the unlisted default and would break the representation).  Parent
        sets may still name vertices already removed (rule 2 removes the
        inner path before rewriting the anchors); those get no edge."""
        kept = {p: s for p, s in sets.items() if s > 0 or (not p and s > 0)}
        if kept:
            self.entries[v] = kept
        else:
            self.entries.pop(v, None)
        old = self.parent_union.get(v, set())
        new = self.parent_union[v] = set().union(*kept)
        touched = {v}
        for p in old - new:
            if p in self.adj and v not in self.parent_union.get(p, ()):
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
        heap = self.leaf_heap
        while heap:
            v = heap[0]
            if v in self.adj and any(len(self.adj[w]) == 1 for w in self.adj[v]):
                return v
            heapq.heappop(heap)
        return None

    def adjacency(self) -> dict[int, set[int]]:
        """The superstructure adjacency (maintained; callers only read it)."""
        return self.adj

    def to_instance(self) -> tuple[NonZeroInstance, dict[int, int]]:
        """Compact to dense ids; returns (instance, loose id of each dense id)."""
        order = sorted(self.vertices)
        dense = {loose: i for i, loose in enumerate(order)}
        entries = {}
        for v, sets in self.entries.items():
            entries[dense[v]] = {
                frozenset(dense[p] for p in parents): s for parents, s in sets.items()
            }
        names = tuple(self.names[v] for v in order)
        inst = NonZeroInstance(len(order), names, entries, self.target)
        return inst, {i: loose for loose, i in dense.items()}


@dataclass
class KernelResult:
    """Reduced instance plus everything needed to lift solutions back."""

    reduced: NonZeroInstance
    vertex_map: dict[int, Optional[int]]
    steps: list[dict]
    loose_of_reduced: dict[int, int]
    original_n: int

    def lift(self, network: Network) -> Network:
        """Map a reduced-instance network to an original-instance network
        scoring at least as much (equally for optimal networks)."""
        arcs = {
            (self.loose_of_reduced[u], self.loose_of_reduced[v])
            for u, v in network.arcs
        }
        for step in reversed(self.steps):
            if step["rule"] == 1:
                arcs = _lift_rr1(step, arcs)
            elif step["rule"] == 2:
                arcs = _lift_rr2(step, arcs)
            else:
                arcs = _lift_rr2_pl(step, arcs)
        if any(u >= self.original_n or v >= self.original_n for u, v in arcs):
            raise RuntimeError("lifted network still uses a gadget vertex")
        return Network(self.original_n, frozenset(arcs))

    def to_json(self) -> str:
        def enc_steps(steps):
            out = []
            for s in steps:
                t = dict(s)
                if s["rule"] == 1:
                    t["configs"] = [
                        [sorted(k), list(v[0]), list(v[1])]
                        for k, v in s["configs"].items()
                    ]
                    t["fallback"] = [list(s["fallback"][0]), list(s["fallback"][1])]
                else:
                    t["configs"] = {k: list(v) for k, v in s["configs"].items()}
                    if "b_sets" in s:
                        t["b_sets"] = {k: sorted(v) for k, v in s["b_sets"].items()}
                out.append(t)
            return out

        return json.dumps(
            {
                "original_n": self.original_n,
                "vertex_map": {str(k): v for k, v in self.vertex_map.items()},
                "loose_of_reduced": {
                    str(k): v for k, v in self.loose_of_reduced.items()
                },
                "steps": enc_steps(self.steps),
            },
            indent=1,
        )

    @staticmethod
    def from_json(text: str, reduced: NonZeroInstance) -> "KernelResult":
        raw = json.loads(text)
        steps = []
        for s in raw["steps"]:
            t = dict(s)
            if s["rule"] == 1:
                t["configs"] = {
                    frozenset(k): (frozenset(sv), frozenset(av))
                    for k, sv, av in s["configs"]
                }
                t["fallback"] = (
                    frozenset(s["fallback"][0]),
                    frozenset(s["fallback"][1]),
                )
                t["q"] = list(s["q"])
            else:
                t["configs"] = {k: tuple(v) for k, v in s["configs"].items()}
                if "b_sets" in s:
                    t["b_sets"] = {k: frozenset(v) for k, v in s["b_sets"].items()}
            steps.append(t)
        return KernelResult(
            reduced,
            {int(k): v for k, v in raw["vertex_map"].items()},
            steps,
            {int(k): v for k, v in raw["loose_of_reduced"].items()},
            raw["original_n"],
        )


# ---------------------------------------------------------------------------
# path-score dynamic programs

_FWD, _BWD, _NONE = "fwd", "bwd", "none"


def _vertex_score(work: _Work, path_ext, j, prev_state, next_state) -> int:
    parents = set()
    if prev_state == _FWD:
        parents.add(path_ext[j - 1])
    if next_state == _BWD:
        parents.add(path_ext[j + 1])
    return work.score(path_ext[j], frozenset(parents))


def _best_config(work: _Work, path_ext, e0: str, em: str, constraint):
    """Max total score of the inner path vertices over orientations of the
    internal edges, with fixed end-edge states and an optional constraint:
    ("not_all", s): internal edges must not all have state s;
    ("all_present", flag): internal edges all present iff flag.

    Returns (score, edge state tuple) or None when infeasible.
    """
    m = len(path_ext) - 2
    if m == 1:
        if constraint is not None:
            kind, want = constraint
            if kind == "not_all":
                return None  # zero internal edges: "all" holds vacuously
            if kind == "all_present" and not want:
                return None
        return _vertex_score(work, path_ext, 1, e0, em), (e0, em)

    def flag_init(state):
        if constraint is None:
            return False
        kind, want = constraint
        if kind == "not_all":
            return state == want
        return state != _NONE

    def flag_step(flag, state):
        if constraint is None:
            return False
        kind, want = constraint
        if kind == "not_all":
            return flag and state == want
        return flag and state != _NONE

    # layers[j-1]: (state of edge j, flag) -> (best score so far, backptr)
    cur = {}
    for st in (_FWD, _BWD, _NONE):
        sc = _vertex_score(work, path_ext, 1, e0, st)
        key = (st, flag_init(st))
        if key not in cur or sc > cur[key][0]:
            cur[key] = (sc, None)
    layers = [cur]
    for j in range(2, m):  # choose edge j between b_j and b_{j+1}
        nxt = {}
        for (prev, flag), (sc, _) in layers[-1].items():
            for st in (_FWD, _BWD, _NONE):
                s2 = sc + _vertex_score(work, path_ext, j, prev, st)
                key = (st, flag_step(flag, st))
                if key not in nxt or s2 > nxt[key][0]:
                    nxt[key] = (s2, (prev, flag))
        layers.append(nxt)
    best = None
    for (prev, flag), (sc, _) in layers[-1].items():
        if constraint is not None:
            kind, want = constraint
            if kind == "not_all" and flag:
                continue
            if kind == "all_present" and flag != want:
                continue
        total = sc + _vertex_score(work, path_ext, m, prev, em)
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
    return total, tuple([e0] + states + [em])


def _bnsl_path_scores(work: _Work, path_ext) -> PathScores:
    a, c = path_ext[0], path_ext[-1]
    l_max = {}
    configs = {}
    for bset, tag in (
        (frozenset(), "max_"),
        (frozenset([a]), "max_a"),
        (frozenset([c]), "max_c"),
        (frozenset([a, c]), "max_ac"),
    ):
        e0 = _FWD if a in bset else _NONE
        em = _BWD if c in bset else _NONE
        score, cfg = _best_config(work, path_ext, e0, em, None)
        l_max[bset] = score
        configs[tag] = cfg
    got_a = _best_config(work, path_ext, _FWD, _NONE, ("not_all", _FWD))
    got_c = _best_config(work, path_ext, _NONE, _BWD, ("not_all", _BWD))
    # a single inner vertex leaves the no-through-path families empty; the
    # contraction rule never fires there (it needs >= 4 inner vertices)
    configs["nopath_a"] = got_a[1] if got_a else None
    configs["nopath_c"] = got_c[1] if got_c else None
    return PathScores(
        a, c, l_max,
        got_a[0] if got_a else None,
        got_c[0] if got_c else None,
        configs,
    )


def _pl_path_scores(work: _Work, path_ext) -> PlPathScores:
    a, c = path_ext[0], path_ext[-1]
    m = len(path_ext) - 2
    l = {}
    configs = {}
    for bset in (frozenset(), frozenset([a]), frozenset([c]), frozenset([a, c])):
        e0 = _FWD if a in bset else _NONE
        em = _BWD if c in bset else _NONE
        if m == 1:
            score, cfg = _best_config(work, path_ext, e0, em, None)
            for p in (0, 1):
                l[(p, bset)] = score
                configs[(p, bset)] = cfg
            continue
        for p in (0, 1):
            got = _best_config(work, path_ext, e0, em, ("all_present", p == 1))
            if got is None:
                raise RuntimeError("path with >= 2 inner vertices has no configuration")
            l[(p, bset)] = got[0]
            configs[(p, bset)] = got[1]
    return PlPathScores(a, c, l, configs)


def path_scores(instance: NonZeroInstance, path: Sequence[int]) -> PathScores:
    """Public path-score computation; path = [a, b_1, ..., b_m, c] with all
    inner vertices of superstructure degree exactly 2."""
    work = _Work(instance)
    _check_inner_degrees(instance, path)
    return _bnsl_path_scores(work, list(path))


def pl_path_scores(instance: NonZeroInstance, path: Sequence[int]) -> PlPathScores:
    work = _Work(instance)
    _check_inner_degrees(instance, path)
    return _pl_path_scores(work, list(path))


def _check_inner_degrees(instance: NonZeroInstance, path):
    g = superstructure(instance)
    for b in path[1:-1]:
        if g.degree(b) != 2:
            raise ValueError(f"inner path vertex {b} has degree {g.degree(b)} != 2")


# ---------------------------------------------------------------------------
# rule applications on the working state


def _apply_rr1(work: _Work, v: int, adj) -> dict:
    q = sorted(w for w in adj[v] if len(adj[w]) == 1)
    if not q:
        raise ValueError(f"no degree-1 neighbours at {v}")
    qset = set(q)

    def completion(s: frozenset[int]) -> tuple[int, frozenset[int]]:
        total = 0
        arcs_out = set()
        for w in q:
            if w in s:
                total += work.score(w, frozenset())
            else:
                se = work.score(w, frozenset())
                sv = work.score(w, frozenset([v]))
                if sv > se:
                    total += sv
                    arcs_out.add(w)
                else:
                    total += se
        return total, frozenset(arcs_out)

    old_sets = dict(work.entries.get(v, {}))
    old_sets.setdefault(frozenset(), work.score(v, frozenset()))
    new_sets: dict[frozenset[int], int] = {}
    configs: dict[frozenset[int], tuple[frozenset[int], frozenset[int]]] = {}
    groups: dict[frozenset[int], list[frozenset[int]]] = {}
    for parents in old_sets:
        groups.setdefault(parents - qset, []).append(parents)
    for reduced_parents, candidates in groups.items():
        if reduced_parents not in candidates:
            candidates.append(reduced_parents)  # unlisted base choice, scores 0
        best = None
        for p in sorted(candidates, key=lambda s: sorted(s)):
            comp, arcs_out = completion(frozenset(p & qset))
            val = work.score(v, p) + comp
            if best is None or val > best[0]:
                best = (val, frozenset(p & qset), arcs_out)
        new_sets[reduced_parents] = best[0]
        configs[reduced_parents] = (best[1], best[2])
    _, fb_arcs = completion(frozenset())
    step = {
        "rule": 1,
        "v": v,
        "q": q,
        "configs": configs,
        "fallback": (frozenset(), fb_arcs),
    }
    work.set_entries(v, new_sets)
    for w in q:
        work.remove(w)
    return step


def _lift_rr1(step, arcs: set) -> set:
    v = step["v"]
    parents = frozenset(u for u, w in arcs if w == v)
    s_members, arcs_out = step["configs"].get(parents, step["fallback"])
    out = set(arcs)
    for u in s_members:
        out.add((u, v))
    for w in arcs_out:
        out.add((v, w))
    return out


_BNSL_CASES = ("max_", "max_a", "max_c", "max_ac", "nopath_a", "nopath_c")


def _apply_rr2(work: _Work, path_ext: list[int]) -> dict:
    a, c = path_ext[0], path_ext[-1]
    inner = path_ext[1:-1]
    m = len(inner)
    if m < 4:
        raise ValueError("rule 2 needs at least 4 inner vertices")
    ps = _bnsl_path_scores(work, path_ext)
    b1, bm = inner[0], inner[-1]
    b = work.fresh("p" + work.names[b1])
    for w in inner[1:-1]:
        work.remove(w)
    work.set_entries(
        b,
        {
            frozenset({b1, bm}): ps.l_max[frozenset()],
            frozenset({b1, bm, a}): ps.l_max[frozenset([a])],
            frozenset({b1, bm, c}): ps.l_max[frozenset([c])],
            frozenset({b1, bm, a, c}): ps.l_max[frozenset([a, c])],
        },
    )
    work.set_entries(b1, {frozenset({a, b, bm}): ps.l_nopath_a})
    work.set_entries(bm, {frozenset({c, b, b1}): ps.l_nopath_c})
    for anchor, end in ((a, b1), (c, bm)):
        sets = work.entries.get(anchor, {})
        rewritten = {}
        for parents, s in sets.items():
            rewritten[parents | {b} if end in parents else parents] = s
        work.set_entries(anchor, rewritten)
    return {
        "rule": 2,
        "a": a,
        "c": c,
        "inner": inner,
        "b": b,
        "configs": dict(ps.configs),
    }


def _lift_rr2(step, arcs: set) -> set:
    a, c, b = step["a"], step["c"], step["b"]
    inner = list(step["inner"])
    b1, bm = inner[0], inner[-1]
    region = {a, b, b1, bm, c}
    parents_b = frozenset(u for u, w in arcs if w == b)
    parents_b1 = frozenset(u for u, w in arcs if w == b1)
    parents_bm = frozenset(u for u, w in arcs if w == bm)
    pa = (b1, a) in arcs
    pc = (bm, c) in arcs
    if parents_b1 == frozenset({a, b, bm}):
        case = "nopath_a"
    elif parents_bm == frozenset({c, b, b1}):
        case = "nopath_c"
    else:
        bset = parents_b & {a, c}
        case = {
            frozenset(): "max_",
            frozenset([a]): "max_a",
            frozenset([c]): "max_c",
            frozenset([a, c]): "max_ac",
        }[frozenset(bset)]
    config = step["configs"][case]
    out = set()
    for (u, w) in arcs:
        if u == b or w == b:
            continue
        if {u, w} <= region and {u, w} & {b1, bm}:
            continue
        out.add((u, w))
    path_ext = [a] + inner + [c]
    for j, st in enumerate(config):
        if st == _FWD:
            out.add((path_ext[j], path_ext[j + 1]))
        elif st == _BWD:
            out.add((path_ext[j + 1], path_ext[j]))
    if pa:
        out.add((b1, a))
    if pc:
        out.add((bm, c))
    return out


def _apply_rr2_pl(work: _Work, path_ext: list[int]) -> dict:
    a, c = path_ext[0], path_ext[-1]
    inner = path_ext[1:-1]
    if len(inner) < 6:
        raise ValueError("polytree rule 2 needs at least 6 inner vertices")
    ps = _pl_path_scores(work, path_ext)
    base = work.names[inner[0]]
    b = work.fresh("p" + base)
    b1p = work.fresh("p" + base + "s")
    b1pp = work.fresh("p" + base + "ss")
    bmp = work.fresh("p" + base + "t")
    bmpp = work.fresh("p" + base + "tt")
    old_b1, old_bm = inner[0], inner[-1]
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
    scores = {}
    for tag, pset in b_sets.items():
        p = int(tag[0])
        bs = frozenset(
            x for x, flag in ((a, "a" in tag[2:]), (c, "c" in tag[2:])) if flag
        )
        scores[pset] = ps.l[(p, bs)]
    work.set_entries(b, scores)
    for anchor, end, primes in ((a, old_b1, {b1p, b1pp}), (c, old_bm, {bmp, bmpp})):
        sets = work.entries.get(anchor, {})
        rewritten = {}
        for parents, s in sets.items():
            if end in parents:
                rewritten[(parents - {end}) | primes] = s
            else:
                rewritten[parents] = s
        work.set_entries(anchor, rewritten)
    return {
        "rule": 3,
        "a": a,
        "c": c,
        "inner": inner,
        "b": b,
        "primes": [b1p, b1pp, bmp, bmpp],
        "configs": {f"{p}_{_btag(bs, a, c)}": ps.configs[(p, bs)]
                    for (p, bs) in ps.configs},
        "b_sets": b_sets,
    }


def _btag(bset, a, c) -> str:
    return ("a" if a in bset else "") + ("c" if c in bset else "")


def _lift_rr2_pl(step, arcs: set) -> set:
    a, c, b = step["a"], step["c"], step["b"]
    inner = list(step["inner"])
    b1p, b1pp, bmp, bmpp = step["primes"]
    gadget = {b, b1p, b1pp, bmp, bmpp}
    parents_b = frozenset(u for u, w in arcs if w == b)
    parents_a = frozenset(u for u, w in arcs if w == a)
    parents_c = frozenset(u for u, w in arcs if w == c)
    pa = bool(parents_a & {b1p, b1pp})
    pc = bool(parents_c & {bmp, bmpp})
    case = None
    for tag, pset in step["b_sets"].items():
        if parents_b == pset:
            case = tag
            break
    if case is None:
        case = "0_" + _btag(parents_b & {a, c}, a, c)
    config = step["configs"][case]
    out = {(u, w) for u, w in arcs if not ({u, w} & gadget)}
    path_ext = [a] + inner + [c]
    for j, st in enumerate(config):
        if st == _FWD:
            out.add((path_ext[j], path_ext[j + 1]))
        elif st == _BWD:
            out.add((path_ext[j + 1], path_ext[j]))
    if pa:
        out.add((inner[0], a))
    if pc:
        out.add((inner[-1], c))
    return out


# ---------------------------------------------------------------------------
# contractible path discovery


def _find_paths(work: _Work, min_inner: int) -> list[list[int]]:
    """Induced degree-2 paths between marked vertices (feedback edge
    endpoints and tree branch vertices), longest first."""
    adj = work.adjacency()
    verts = sorted(work.vertices)
    seen = set()
    paths = []
    for root in verts:
        if root in seen:
            continue
        comp = []
        stack = [root]
        seen.add(root)
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(comp) == 1:
            continue
        comp.sort()
        tree_adj: dict[int, set[int]] = {v: set() for v in comp}
        intree = set()
        feedback = []
        visited = {comp[0]}
        from collections import deque

        dq = deque([comp[0]])
        parent = {comp[0]: None}
        while dq:
            x = dq.popleft()
            for y in sorted(adj[x]):
                if y not in visited:
                    visited.add(y)
                    parent[y] = x
                    tree_adj[x].add(y)
                    tree_adj[y].add(x)
                    intree.add((min(x, y), max(x, y)))
                    dq.append(y)
        for x in comp:
            for y in adj[x]:
                if x < y and (x, y) not in intree:
                    feedback.append((x, y))
        marked = {v for v in comp if len(tree_adj[v]) >= 3}
        for x, y in feedback:
            marked.add(x)
            marked.add(y)
        if not marked:
            raise RuntimeError("multi-vertex component with no feedback edge")
        for u in sorted(marked):
            for w in sorted(tree_adj[u]):
                if w in marked:
                    continue
                inner = []
                prev, cur = u, w
                while cur not in marked:
                    inner.append(cur)
                    nxts = [x for x in tree_adj[cur] if x != prev]
                    if not nxts:
                        inner = None  # pendant chain, no second anchor
                        break
                    prev, cur = cur, nxts[0]
                if inner is not None and len(inner) >= min_inner:
                    paths.append([u] + inner + [cur])
    # deduplicate reversed copies
    uniq = []
    keys = set()
    for p in paths:
        key = frozenset(p[1:-1])
        if key not in keys:
            keys.add(key)
            uniq.append(p)
    uniq.sort(key=lambda p: (-len(p), p))
    return uniq


def rr1_prune(instance: NonZeroInstance, v: int) -> NonZeroInstance:
    """One application of rule 1 at v (public single-step form)."""
    work = _Work(instance)
    _apply_rr1(work, v, work.adjacency())
    return work.to_instance()[0]


def rr2_contract(instance: NonZeroInstance, path: Sequence[int]) -> NonZeroInstance:
    """One application of rule 2 on the given path (public single-step)."""
    work = _Work(instance)
    _check_inner_degrees(instance, path)
    _apply_rr2(work, list(path))
    return work.to_instance()[0]


def _kernelize(instance: NonZeroInstance, polytree: bool) -> KernelResult:
    work = _Work(instance)
    steps: list[dict] = []
    min_inner = 6 if polytree else 4
    changed = True
    while changed:
        changed = False
        while True:
            # in a two-vertex component this is the smaller end
            target = work.rule1_target()
            if target is None:
                break
            steps.append(_apply_rr1(work, target, work.adjacency()))
            changed = True
        paths = _find_paths(work, min_inner)
        if paths:
            path = paths[0]
            if polytree:
                steps.append(_apply_rr2_pl(work, path))
            else:
                steps.append(_apply_rr2(work, path))
            changed = True
    reduced, loose_of_reduced = work.to_instance()
    dense_of_loose = {loose: d for d, loose in loose_of_reduced.items()}
    vertex_map = {
        v: dense_of_loose.get(v) for v in range(instance.n)
    }
    return KernelResult(reduced, vertex_map, steps, loose_of_reduced, instance.n)


def kernelize_bnsl(instance: NonZeroInstance) -> KernelResult:
    """Exhaustive rules 1 and 2; the reduced instance has the same optimal
    score and at most 16 * (feedback edge number) variables."""
    return _kernelize(instance, polytree=False)


def kernelize_pl(instance: NonZeroInstance) -> KernelResult:
    """Polytree variant: rules 1 and 2'; at most 24 * fen variables."""
    return _kernelize(instance, polytree=True)
