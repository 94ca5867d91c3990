"""Data model for score-based network structure learning instances.

Two score representations are supported:

  * explicit ("non-zero") representation: every parent set with a positive
    score is listed per child variable; unlisted sets score 0.  An empty
    parent set may be listed explicitly with a non-negative score.
  * additive representation: a score per (parent, child) arc; the score of
    a parent set is the sum of its singleton scores.  Optionally carries an
    in-degree bound q.

An instance holds names, scores and (additive only) that bound; the
decision threshold of `bnsl solve --target` is the CLI's own.

File formats (all whitespace-delimited UTF-8, `#` starts a comment line):

  explicit score file          additive score file        solution file
  -------------------          -------------------        -------------
  <n>                          additive <n> [q]           <child> <- <p1> <p2> ...
  <varname> <entry-count>      <child> <parent> <score>
  <score> <k> <p1> ... <pk>    ...
  ...
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Optional, Union

MAX_SCORE = 2**63 - 1


class ParseError(ValueError):
    """Malformed instance or solution file; carries a 1-based line number."""

    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ScoreOverflowError(OverflowError):
    """A score sum left the 64-bit range the file formats guarantee."""


@dataclass(frozen=True)
class NonZeroInstance:
    """Instance in the explicit representation.

    entries[v] maps each listed parent set of v (a frozenset of variable
    indices) to its score.  Treat instances as immutable: all operations
    return new objects.
    """

    n: int
    names: tuple[str, ...]
    entries: dict[int, dict[frozenset[int], int]]

    def __post_init__(self):
        if len(self.names) != self.n:
            raise ValueError("names/variable count mismatch")
        for v, sets in self.entries.items():
            if not 0 <= v < self.n:
                raise ValueError(f"child index {v} out of range")
            for parents, score in sets.items():
                if v in parents:
                    raise ValueError(f"variable {v} occurs in its own parent set")
                if any(not 0 <= p < self.n for p in parents):
                    raise ValueError(f"parent index out of range for child {v}")
                if parents and score < 1:
                    raise ValueError(
                        f"non-empty parent set of {v} listed with score {score}"
                    )
                if score < 0 or score > MAX_SCORE:
                    raise ValueError(f"score {score} outside [0, 2^63)")

    @classmethod
    def _parsed(cls, n: int, names: tuple[str, ...], entries) -> "NonZeroInstance":
        """The instance without `__post_init__`'s checks, for `parse_nonzero`,
        which refuses every input they refuse before it builds one."""
        inst = object.__new__(cls)
        object.__setattr__(inst, "n", n)
        object.__setattr__(inst, "names", names)
        object.__setattr__(inst, "entries", entries)
        return inst

    def score(self, v: int, parents: frozenset[int]) -> int:
        """Score of `v` taking exactly `parents`; 0 when unlisted."""
        return self.entries.get(v, {}).get(parents, 0)

    def parent_sets(self, v: int) -> list[frozenset[int]]:
        """Listed parent sets of v plus the empty set, deterministic order."""
        sets = [frozenset()]
        listed = self.entries.get(v, {})
        sets.extend(s for s in sorted(listed, key=lambda s: (len(s), sorted(s))) if s)
        return sets

    def entry_count(self) -> int:
        return sum(len(sets) for sets in self.entries.values())


@dataclass(frozen=True)
class AdditiveInstance:
    """Instance in the additive representation; only positive arcs stored."""

    n: int
    names: tuple[str, ...]
    arc_scores: dict[tuple[int, int], int]
    max_in_degree: Optional[int] = None

    def __post_init__(self):
        if len(self.names) != self.n:
            raise ValueError("names/variable count mismatch")
        if self.max_in_degree is not None and self.max_in_degree <= 0:
            raise ValueError("in-degree bound must be positive")
        for (u, v), score in self.arc_scores.items():
            if u == v:
                raise ValueError(f"self-arc on variable {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"arc ({u},{v}) out of range")
            if score <= 0 or score > MAX_SCORE:
                raise ValueError(f"arc score {score} outside [1, 2^63)")

    @classmethod
    def _parsed(cls, n: int, names: tuple[str, ...], arc_scores, q) -> "AdditiveInstance":
        """The instance without `__post_init__`'s checks, for
        `parse_additive`, which refuses every input they refuse before it
        builds one."""
        inst = object.__new__(cls)
        object.__setattr__(inst, "n", n)
        object.__setattr__(inst, "names", names)
        object.__setattr__(inst, "arc_scores", arc_scores)
        object.__setattr__(inst, "max_in_degree", q)
        return inst

    def arc(self, u: int, v: int) -> int:
        """Score contributed by the arc u -> v (0 when unlisted)."""
        return self.arc_scores.get((u, v), 0)


Instance = Union[NonZeroInstance, AdditiveInstance]


@dataclass(frozen=True)
class Network:
    """A directed graph over the instance's variables, as a set of arcs."""

    n: int
    arcs: frozenset[tuple[int, int]]

    def __post_init__(self):
        for u, v in self.arcs:
            if u == v:
                raise ValueError(f"self-arc on {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"arc ({u},{v}) out of range")

    def parent_map(self) -> list[list[int]]:
        """Parents of each vertex, indexed by vertex, in no fixed order."""
        out: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.arcs:
            out[v].append(u)
        return out


class Superstructure:
    """Undirected graph linking every variable to its candidate parents."""

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        self.n = n
        es = set()
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-loop on {a}")
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a},{b}) out of range")
            es.add((a, b) if a < b else (b, a))
        self.edges: frozenset[tuple[int, int]] = frozenset(es)
        self.adj: dict[int, set[int]] = {v: set() for v in range(n)}
        for a, b in self.edges:
            self.adj[a].add(b)
            self.adj[b].add(a)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edge_count(self) -> int:
        return len(self.edges)

    def components(self) -> list[list[int]]:
        """Connected components, each sorted, ordered by smallest member."""
        seen = [False] * self.n
        comps = []
        for s in range(self.n):
            if seen[s]:
                continue
            comp, stack = [], [s]
            seen[s] = True
            while stack:
                v = stack.pop()
                comp.append(v)
                for w in self.adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            comps.append(sorted(comp))
        return comps

    def __eq__(self, other):
        if isinstance(other, Superstructure):
            return self.n == other.n and self.edges == other.edges
        return NotImplemented

    def __repr__(self):
        return f"Superstructure(n={self.n}, edges={sorted(self.edges)})"


def superstructure(instance: Instance) -> Superstructure:
    """Union of {child, parent} pairs over all entries/arcs of the instance."""
    if isinstance(instance, NonZeroInstance):
        pairs = ((p, v) for v, sets in instance.entries.items()
                 for parents in sets for p in parents)
    else:
        pairs = instance.arc_scores  # its keys, the (parent, child) pairs
    return Superstructure(instance.n, pairs)


def better_arcs(instance: AdditiveInstance) -> dict[tuple[int, int], int]:
    """Each superstructure edge at its better arc, with that arc's score;
    (min, max) on a tie.  Every listed arc is positive, so every edge of
    the superstructure has one."""
    scores = instance.arc_scores
    get = scores.get
    return {(u, v): s for (u, v), s in scores.items()
            if (r := get((v, u), 0)) < s or r == s and u < v}


def score_of(instance: Instance, network: Network) -> int:
    """Total score of `network` under `instance`'s score family."""
    if network.n != instance.n:
        raise ValueError("network size does not match instance")
    if isinstance(instance, NonZeroInstance):
        pm = network.parent_map()  # an unlisted vertex scores 0
        total = sum([sets.get(frozenset(pm[v]), 0) for v, sets in instance.entries.items()])
    else:
        scores = instance.arc_scores
        total = sum([scores.get(arc, 0) for arc in network.arcs])
    if total > MAX_SCORE:
        raise ScoreOverflowError(f"network score {total} exceeds 2^63-1")
    return total


@dataclass(frozen=True)
class Validation:
    ok: bool
    reason: Optional[str] = None
    cycle: Optional[list[int]] = None
    vertex: Optional[int] = None

    def __bool__(self):
        return self.ok


def find(parent: list[int], x: int) -> int:
    """Root of x in the union-find forest `parent`, halving the path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _directed_cycle(n: int, arcs: Iterable[tuple[int, int]]) -> Optional[list[int]]:
    """Some directed cycle as a vertex list, or None if acyclic."""
    out: dict[int, list[int]] = {v: [] for v in range(n)}
    for u, v in arcs:
        out[u].append(v)
    color = [0] * n  # 0 unvisited, 1 on stack, 2 done
    parent: dict[int, int] = {}
    for s in range(n):
        if color[s]:
            continue
        stack = [(s, iter(out[s]))]
        color[s] = 1
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if color[w] == 0:
                    color[w] = 1
                    parent[w] = v
                    stack.append((w, iter(out[w])))
                    advanced = True
                    break
                if color[w] == 1:
                    cycle = [w]
                    x = v
                    while x != w:
                        cycle.append(x)
                        x = parent[x]
                    cycle.reverse()
                    return cycle
            if not advanced:
                color[v] = 2
                stack.pop()
    return None


def validate(network: Network, mode: str, q: Optional[int] = None) -> Validation:
    """Check a candidate solution: acyclic ("dag") or skeleton-forest
    ("polytree"), plus the in-degree bound when q is given.

    One linear pass accepts a valid network: a Kahn count of the vertices
    a topological order reaches (dag) or a union-find over the arcs in any
    order (polytree), and one in-degree count.  Only a network it refuses
    goes through the ordered diagnosis below, which names the first fault
    in a fixed order (both orientations of an arc, then a directed or a
    skeleton cycle, then an in-degree past q) with its cycle or vertex.
    """
    if mode not in ("dag", "polytree"):
        raise ValueError(f"unknown mode {mode!r}")
    if _accepts(network, mode, q):
        return Validation(True)
    for u, v in network.arcs:
        if (v, u) in network.arcs:
            return Validation(False, "both orientations present", cycle=[u, v])
    if mode == "dag":
        cyc = _directed_cycle(network.n, network.arcs)
        if cyc is not None:
            return Validation(False, "directed cycle", cycle=cyc)
    else:
        parent = list(range(network.n))
        added: dict[int, set[int]] = {v: set() for v in range(network.n)}
        for u, v in sorted(network.arcs):
            ru, rv = find(parent, u), find(parent, v)
            if ru == rv:
                cyc = _skeleton_path(added, v, u)
                return Validation(False, "skeleton cycle", cycle=cyc)
            parent[ru] = rv
            added[u].add(v)
            added[v].add(u)
    if q is not None:
        indeg = [0] * network.n
        for _, v in network.arcs:
            indeg[v] += 1
            if indeg[v] > q:
                return Validation(False, f"in-degree exceeds {q}", vertex=v)
    return Validation(True)


def _accepts(network: Network, mode: str, q: Optional[int]) -> bool:
    """True when `validate` finds no fault: one pass over the arcs, then a
    Kahn count in dag mode."""
    n = network.n
    indeg = [0] * n
    if mode == "dag":
        out: list[list[int]] = [[] for _ in range(n)]
        for u, v in network.arcs:
            out[u].append(v)
            indeg[v] += 1
    else:
        root = list(range(n))
        for u, v in network.arcs:
            indeg[v] += 1
            ru, rv = find(root, u), find(root, v)
            if ru == rv:  # a second skeleton path, or both orientations
                return False
            root[ru] = rv
    if q is not None and n and max(indeg) > q:
        return False
    if mode == "polytree":
        return True
    order = [v for v in range(n) if not indeg[v]]
    for v in order:  # grows as it goes: each vertex whose last in-arc it drops
        for w in out[v]:
            indeg[w] -= 1
            if not indeg[w]:
                order.append(w)
    return len(order) == n  # a vertex on or below a cycle is never reached


def _skeleton_path(adj: dict[int, set[int]], start: int, goal: int) -> list[int]:
    """Path start..goal in an undirected adjacency dict (BFS)."""
    from collections import deque

    prev = {start: None}
    dq = deque([start])
    while dq:
        x = dq.popleft()
        if x == goal:
            break
        for y in adj[x]:
            if y not in prev:
                prev[y] = x
                dq.append(y)
    path, x = [], goal
    while x is not None:
        path.append(x)
        x = prev[x]
    path.reverse()
    return path


# ---------------------------------------------------------------------------
# parsing / writing


def _content_lines(text: str) -> Iterator[tuple[int, list[str]]]:
    for i, raw in enumerate(text.splitlines(), start=1):
        tok = raw.split()
        if tok and tok[0][0] != "#":
            yield i, tok


def _content_raw(text: str) -> Iterator[tuple[int, str]]:
    """The lines `_content_lines` yields, untokenized: `str.lstrip` and
    `str.split` share one definition of whitespace, so a line has a token
    exactly when its stripped form is not empty, and that form starts with
    the first token."""
    for i, raw in enumerate(text.splitlines(), start=1):
        head = raw.lstrip()[:1]
        if head and head != "#":
            yield i, raw


def parse_nonzero(text: str) -> NonZeroInstance:
    """Parse an explicit score file (see module docstring for the grammar)
    in two passes: the block headers, which skip the entry lines without
    splitting them, then the entries, every name known."""
    lines = _content_raw(text)
    try:
        line_no, raw = next(lines)
    except StopIteration:
        raise ParseError(1, "empty file") from None
    tok = raw.split()
    if len(tok) != 1:
        raise ParseError(line_no, "expected a single variable count")
    n = _parse_nat(line_no, tok[0], "variable count")

    index: dict[str, int] = {}
    counts: list[int] = []
    header = 1  # the line of the last block header read
    for header, raw in lines:
        tok = raw.split()
        if len(tok) != 2:
            raise ParseError(header, "expected '<varname> <entry-count>'")
        name, cnt_s = tok
        if name in index:
            raise ParseError(header, f"variable {name!r} declared twice")
        cnt = _parse_nat(header, cnt_s, "entry count")
        index[name] = len(counts)
        counts.append(cnt)
        # skip the entry lines (islice stops at sys.maxsize, past any text)
        if cnt and next(islice(lines, min(cnt - 1, sys.maxsize), None), None) is None:
            raise ParseError(header, f"{cnt} entries announced, file truncated")
    if len(index) != n:
        raise ParseError(header, f"declared {n} variables, found {len(index)}")

    entries: dict[int, dict[frozenset[int], int]] = {}
    lines = _content_lines(text)
    next(lines)  # the variable count
    # each block's vertex is the index's own int, which its parent sets share
    for v, cnt in zip(index.values(), counts):
        next(lines)  # the block header
        sets: dict[frozenset[int], int] = {}
        for line_no, tok in islice(lines, cnt):
            if len(tok) < 2:
                raise ParseError(line_no, "expected '<score> <k> <parents...>'")
            score = _parse_nat(line_no, tok[0], "score")
            k = _parse_nat(line_no, tok[1], "parent count")
            if len(tok) != 2 + k:
                raise ParseError(line_no, f"expected {k} parent names, got {len(tok) - 2}")
            parents = []
            for name in tok[2:]:
                if name not in index:
                    raise ParseError(line_no, f"unknown variable {name!r}")
                parents.append(index[name])
            pset = frozenset(parents)
            if len(pset) != k:
                raise ParseError(line_no, "repeated parent in one set")
            if v in pset:
                raise ParseError(line_no, "variable listed in its own parent set")
            if pset in sets:
                raise ParseError(line_no, "duplicate parent set for this variable")
            if pset and score < 1:
                raise ParseError(line_no, "non-empty parent set with zero score")
            if score > MAX_SCORE:
                raise ParseError(line_no, "score exceeds 2^63-1")
            sets[pset] = score
        if sets:
            entries[v] = sets
    return NonZeroInstance._parsed(n, tuple(index), entries)


def write_nonzero(instance: NonZeroInstance) -> str:
    out = [str(instance.n)]
    for v in range(instance.n):
        sets = instance.entries.get(v, {})
        out.append(f"{instance.names[v]} {len(sets)}")
        for parents in sorted(sets, key=lambda s: (len(s), sorted(s))):
            ps = " ".join(instance.names[p] for p in sorted(parents))
            out.append(f"{sets[parents]} {len(parents)}" + (f" {ps}" if ps else ""))
    return "\n".join(out) + "\n"


def parse_additive(text: str) -> AdditiveInstance:
    """Parse an additive score file: header `additive <n> [q]`, arc lines."""
    lines = enumerate(text.splitlines(), start=1)
    for line_no, raw in lines:
        tok = raw.split()
        if tok and tok[0][0] != "#":
            break
    else:
        raise ParseError(1, "empty file")
    if tok[0] != "additive" or len(tok) not in (2, 3):
        raise ParseError(line_no, "expected header 'additive <n> [q]'")
    n = _parse_nat(line_no, tok[1], "variable count")
    q = None
    if len(tok) == 3:
        q = _parse_nat(line_no, tok[2], "in-degree bound")
        if q <= 0:
            raise ParseError(line_no, "in-degree bound must be positive")

    index: dict[str, int] = {}
    arcs: dict[tuple[int, int], int] = {}
    for line_no, raw in lines:
        tok = raw.split()
        if not tok or tok[0][0] == "#":
            continue
        if len(tok) != 3:
            raise ParseError(line_no, "expected '<child> <parent> <score>'")
        child_name, parent_name, score_s = tok
        child = index.get(child_name)
        if child is None:
            if len(index) >= n:
                raise ParseError(line_no, f"more than {n} distinct variables")
            child = index[child_name] = len(index)
        parent = index.get(parent_name)
        if parent is None:
            if len(index) >= n:
                raise ParseError(line_no, f"more than {n} distinct variables")
            parent = index[parent_name] = len(index)
        if child == parent:
            raise ParseError(line_no, "variable used as its own parent")
        score = _parse_nat(line_no, score_s, "score")
        if score < 1:
            raise ParseError(line_no, "listed arc with zero score")
        if score > MAX_SCORE:
            raise ParseError(line_no, "score exceeds 2^63-1")
        if (parent, child) in arcs:
            raise ParseError(line_no, "duplicate arc")
        arcs[(parent, child)] = score

    names = list(index)
    used = set(names)
    k = len(names)
    while len(names) < n:
        cand = f"v{k}"
        while cand in used:
            cand += "_"
        names.append(cand)
        used.add(cand)
        k += 1
    return AdditiveInstance._parsed(n, tuple(names), arcs, q)


def write_additive(instance: AdditiveInstance) -> str:
    head = f"additive {instance.n}"
    if instance.max_in_degree is not None:
        head += f" {instance.max_in_degree}"
    out = [head]
    lines = [
        (instance.names[v], instance.names[u], s)
        for (u, v), s in instance.arc_scores.items()
    ]
    for child, parent, s in sorted(lines):
        out.append(f"{child} {parent} {s}")
    return "\n".join(out) + "\n"


def parse_solution(text: str, instance: Instance) -> Network:
    """Parse a solution file against an instance (vertices may be omitted)."""
    index = {name: i for i, name in enumerate(instance.names)}
    arcs = set()
    seen = set()
    for line_no, tok in _content_lines(text):
        if len(tok) < 2 or tok[1] != "<-":
            raise ParseError(line_no, "expected '<child> <- <parents...>'")
        if tok[0] not in index:
            raise ParseError(line_no, f"unknown variable {tok[0]!r}")
        child = index[tok[0]]
        if child in seen:
            raise ParseError(line_no, f"variable {tok[0]!r} listed twice")
        seen.add(child)
        for name in tok[2:]:
            if name not in index:
                raise ParseError(line_no, f"unknown variable {name!r}")
            p = index[name]
            if p == child:
                raise ParseError(line_no, "variable is its own parent")
            if (p, child) in arcs:  # all of child's arcs come from this line
                raise ParseError(line_no, f"parent {name!r} repeated")
            arcs.add((p, child))
    return Network(instance.n, frozenset(arcs))


def write_solution(network: Network, instance: Instance) -> str:
    names = instance.names
    out = [f"{names[v]} <- {' '.join([names[p] for p in sorted(ps)])}"
           for v, ps in enumerate(network.parent_map()) if ps]
    return "\n".join(out) + ("\n" if out else "")


def _parse_nat(line_no: int, token: str, what: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ParseError(line_no, f"bad {what}: {token!r}") from None
    if value < 0:
        raise ParseError(line_no, f"{what} must be non-negative")
    return value


# ---------------------------------------------------------------------------
# helpers shared by solvers and tests


def to_nonzero(instance: AdditiveInstance, max_degree: int = 6) -> NonZeroInstance:
    """Expand an additive instance into the explicit representation.

    Enumerates all subsets of each variable's positive in-neighbours, so it
    is limited to superstructure degree <= max_degree.  Intended for
    cross-checking solvers on the two representations.
    """
    from itertools import combinations

    in_nbrs: dict[int, list[int]] = {v: [] for v in range(instance.n)}
    for (u, v) in instance.arc_scores:
        in_nbrs[v].append(u)
    entries: dict[int, dict[frozenset[int], int]] = {}
    for v in range(instance.n):
        nbrs = sorted(in_nbrs[v])
        if len(nbrs) > max_degree:
            raise ValueError(f"variable {v} has {len(nbrs)} candidate parents")
        limit = len(nbrs)
        if instance.max_in_degree is not None:
            limit = min(limit, instance.max_in_degree)
        sets = {}
        for k in range(1, limit + 1):
            for combo in combinations(nbrs, k):
                sets[frozenset(combo)] = sum(instance.arc(u, v) for u in combo)
        if sets:
            entries[v] = sets
    return NonZeroInstance(instance.n, instance.names, entries)

