"""Structural parameters of superstructure graphs.

Provides spanning forests and the feedback edge number, the localized
feedback measure used by the record-based solver (per vertex: how many
non-tree edges route their tree path through it), and nice tree
decompositions for the bag-based solver.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import add
from typing import Optional

from .instances import Superstructure, find

DEFAULT_TREE_BUDGET = 20000
_SEARCH_ROOTS = 4  # the local search starts from the BFS trees of vertices 0..3


@dataclass(frozen=True)
class SpanningForest:
    """A rooted spanning forest of a superstructure.

    parent[v] is None for component roots; depth[v] is v's distance to its
    root; order lists every vertex breadth-first, each after its parent
    (reversed, children come before parents).  tree_edges/feedback_edges
    partition the graph's edge set.
    """

    n: int
    parent: tuple[Optional[int], ...]
    roots: tuple[int, ...]
    tree_edges: frozenset[tuple[int, int]]
    feedback_edges: frozenset[tuple[int, int]]
    depth: tuple[int, ...]
    order: tuple[int, ...]

    def children_lists(self) -> dict[int, list[int]]:
        ch: dict[int, list[int]] = {v: [] for v in range(self.n)}
        for v, p in enumerate(self.parent):
            if p is not None:
                ch[p].append(v)
        for v in ch:
            ch[v].sort()
        return ch

    def tree_path(self, u: int, w: int) -> list[int]:
        """Vertices on the unique tree path between u and w (inclusive)."""
        up, down = [], []
        x, y = u, w
        while x != y:
            if x is None or y is None:
                raise ValueError(f"{u} and {w} are in different components")
            if self.depth[x] >= self.depth[y]:
                up.append(x)
                x = self.parent[x]
            else:
                down.append(y)
                y = self.parent[y]
        return up + [x] + down[::-1]


@dataclass(frozen=True)
class LfenWitness:
    """A spanning forest with per-vertex counts of locally interfering
    non-tree edges; value is the maximum count."""

    forest: SpanningForest
    local_counts: tuple[int, ...]
    value: int
    exact: bool = False


def _norm(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def _bfs(adj, sources) -> tuple[list[Optional[int]], list[int], list[int], list[int]]:
    """Breadth-first forest over `adj` (vertex -> neighbours), one tree from
    each source not reached yet, neighbours in ascending order: (parent,
    depth, order, component root) per vertex, -1 depth when unreached."""
    n = len(adj)
    parent: list[Optional[int]] = [None] * n
    depth = [-1] * n
    root = [-1] * n
    order: list[int] = []
    for s in sources:
        if depth[s] >= 0:
            continue
        depth[s] = 0
        root[s] = s
        head = len(order)
        order.append(s)
        while head < len(order):
            v = order[head]
            head += 1
            for w in sorted(adj[v]):
                if depth[w] < 0:
                    parent[w] = v
                    depth[w] = depth[v] + 1
                    root[w] = s
                    order.append(w)
    return parent, depth, order, root


def _bfs_edges(g: Superstructure, sources) -> frozenset[tuple[int, int]]:
    """Tree edges of the breadth-first forest of g grown from `sources`."""
    parent = _bfs(g.adj, sources)[0]
    return frozenset(_norm(v, p) for v, p in enumerate(parent) if p is not None)


def forest_from_edges(
    g: Superstructure, tree_edges: frozenset[tuple[int, int]]
) -> SpanningForest:
    """Root the given spanning edge set by one BFS (from the smallest vertex
    per component) and classify the remaining edges as feedback edges.

    ValueError unless the edges form a spanning forest of g: every edge in
    g, no cycle (n - #roots edges), every component of g spanned.
    """
    tset = frozenset(_norm(a, b) for a, b in tree_edges)
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for a, b in tset:
        if (a, b) not in g.edges:
            raise ValueError(f"tree edge ({a},{b}) not in the graph")
        adj[a].append(b)
        adj[b].append(a)
    parent, depth, order, root = _bfs(adj, range(g.n))
    roots = tuple(v for v in order if parent[v] is None)
    if len(tset) != g.n - len(roots):
        raise ValueError("tree edges contain a cycle")
    if any(root[a] != root[b] for a, b in g.edges):
        raise ValueError("edge set does not span every component")
    return SpanningForest(
        g.n, tuple(parent), roots, tset, g.edges - tset, tuple(depth), tuple(order)
    )


def feedback_edge_set(g: Superstructure) -> SpanningForest:
    """BFS spanning forest; the non-tree edges form a minimum feedback edge
    set, of size |E| - n + #components."""
    return forest_from_edges(g, _bfs_edges(g, range(g.n)))


def lfen_of_tree(g: Superstructure, forest: SpanningForest) -> LfenWitness:
    """Count, per vertex, the non-tree edges whose tree path crosses it
    (path endpoints included)."""
    counts = [0] * g.n
    for u, w in sorted(forest.feedback_edges):
        for v in forest.tree_path(u, w):
            counts[v] += 1
    value = max(counts, default=0)
    return LfenWitness(forest, tuple(counts), value)


def peel(g: Superstructure) -> tuple[list[int], dict]:
    """The vertices that repeatedly peeling degree <= 1 vertices removes, in
    removal order, and for each the one neighbour it had left then (None
    for the last vertex of a tree component).  The rest is the 2-core."""
    adj = g.adj
    deg = [len(adj[v]) for v in range(g.n)]
    order = [v for v in range(g.n) if deg[v] <= 1]
    up: dict = {}
    for x in order:  # grows while read: a vertex left with one neighbour joins
        p = None
        for y in adj[x]:
            if y not in up:
                p = y
                break
        up[x] = p
        if p is not None:
            deg[p] -= 1
            if deg[p] == 1:
                order.append(p)
    return order, up


def _component_subgraph(g: Superstructure, comp: list[int]):
    idx = {v: i for i, v in enumerate(comp)}
    edges = [(idx[a], idx[b]) for a in comp for b in g.adj[a] if a < b]
    return Superstructure(len(comp), edges), idx


def spanning_tree_count(g: Superstructure) -> int:
    """Number of spanning trees of g (0 when g is disconnected).

    Every spanning tree holds every bridge, so peeling the pendant vertices
    (`peel`) leaves the count unchanged: it is the count of the 2-core,
    which is connected when g is, and 1 when the core is empty (g a tree).
    Matrix-tree theorem: the count is the determinant of the core's
    Laplacian with one row and column deleted.  Exact Gaussian elimination
    of the sparse Laplacian in minimum-degree order leaves one vertex
    uneliminated; the product of the other pivots is that determinant.
    Eliminating a vertex of a connected weighted Laplacian leaves a
    connected weighted Laplacian (positive pivots, no row swaps); entries
    are off-diagonal edge weights w[v][u] = -L[v][u] as Fractions.
    """
    if g.n <= 1:
        return 1
    if len(g.components()) > 1:
        return 0
    _, up = peel(g)
    core = [v for v in range(g.n) if v not in up]
    if not core:
        return 1
    w = {v: {u: Fraction(1) for u in g.adj[v] if u not in up} for v in core}
    diag = {v: Fraction(len(w[v])) for v in core}
    heap = [(len(w[v]), v) for v in core]
    heapq.heapify(heap)
    count = Fraction(1)
    for _ in range(len(core) - 1):
        while True:
            d, v = heapq.heappop(heap)
            if v in w and d == len(w[v]):
                break
        pivot = diag[v]
        count *= pivot
        nbrs = list(w.pop(v).items())
        for u, _ in nbrs:
            del w[u][v]
        for i, (a, wa) in enumerate(nbrs):
            diag[a] -= wa * wa / pivot
            row = w[a]
            for b, wb in nbrs[i + 1:]:
                fill = wa * wb / pivot
                row[b] = row.get(b, 0) + fill
                w[b][a] = row[b]
        for u, _ in nbrs:
            heapq.heappush(heap, (len(w[u]), u))
    return int(count)


def _spanning_trees(g: Superstructure, taken: frozenset):
    """Yield once each spanning tree (edge frozenset) of a connected graph
    that holds the forest `taken`, by branching on each other edge:
    contract it into the tree or delete it.  The branching lives in
    module-level functions, not closures, which would refer to themselves
    and leave reference cycles behind."""
    union = list(range(g.n))
    for a, b in taken:
        union[find(union, a)] = find(union, b)
    yield from _spanning_branch(sorted(g.edges - taken), g.n, 0, list(taken), union)


def _spanning_branch(edges: list, n: int, i: int, chosen: list, union: list[int]):
    """The spanning trees that take the edges `chosen` (merged into the
    union-find forest `union`) and decide edges[i:]."""
    if len(chosen) == n - 1:
        yield frozenset(chosen)
        return
    if i == len(edges):
        return
    a, b = edges[i]
    ra, rb = find(union, a), find(union, b)
    if ra != rb:
        u2 = union[:]
        u2[ra] = rb
        chosen.append(edges[i])
        yield from _spanning_branch(edges, n, i + 1, chosen, u2)
        chosen.pop()
    # deletion branch: only if the rest can still connect
    if _still_spans(edges, n, i + 1, union):
        yield from _spanning_branch(edges, n, i + 1, chosen, union)


def _still_spans(edges: list, n: int, start: int, union: list[int]) -> bool:
    """Whether edges[start:] can still connect everything merged so far in
    the union-find forest `union`."""
    parent = union[:]
    comps = len({find(parent, v) for v in range(n)})
    for a, b in edges[start:]:
        ra, rb = find(parent, a), find(parent, b)
        if ra != rb:
            parent[ra] = rb
            comps -= 1
            if comps == 1:
                return True
    return comps == 1


def lfen_search(g: Superstructure, budget: int = DEFAULT_TREE_BUDGET) -> LfenWitness:
    """Best witness tree found for the localized feedback measure.

    Per component: count the spanning trees (`spanning_tree_count`) and,
    when their number fits the budget, enumerate those that hold the edges
    the least tree holds (`_chain_forest`; result flagged exact), otherwise
    improve a BFS tree by edge swaps (add one non-tree edge, drop one tree
    edge on its cycle), taking in each round the best strict improvement,
    restarting from the BFS trees of the first four vertices.  Every
    candidate swap is scored incrementally from the current tree's paths
    (`_best_swap`); only the accepted swap's forest is built and its value
    checked against the score.  The global value is the maximum over
    components.
    """
    best_edges: set[tuple[int, int]] = set()
    exact_all = True
    for comp in g.components():
        sub, idx = _component_subgraph(g, comp)
        back = {i: v for v, i in idx.items()}
        tree, exact = _component_lfen_tree(sub, budget)
        exact_all = exact_all and exact
        best_edges.update(_norm(back[a], back[b]) for a, b in tree)
    forest = forest_from_edges(g, frozenset(best_edges))
    w = lfen_of_tree(g, forest)
    return LfenWitness(forest, w.local_counts, w.value, exact_all)


def _component_lfen_tree(g: Superstructure, budget: int):
    """(tree edge set, exact flag) for a connected graph."""
    if g.edge_count() == g.n - 1:
        return frozenset(g.edges), True
    best_tree = None
    best_key = None
    if spanning_tree_count(g) <= budget:
        for tree in _spanning_trees(g, _chain_forest(g)):
            value = lfen_of_tree(g, forest_from_edges(g, tree)).value
            key = (value, tuple(sorted(tree)))
            if best_key is None or key < best_key:
                best_key = key
                best_tree = tree
        return best_tree, True
    # local search fallback
    for root in range(min(g.n, _SEARCH_ROOTS)):
        forest = forest_from_edges(g, _bfs_edges(g, [root]))
        w = lfen_of_tree(g, forest)
        while True:
            swap = _best_swap(forest, w.local_counts, w.value)
            if swap is None:
                break
            cval, e, f = swap
            forest = forest_from_edges(g, (forest.tree_edges - {f}) | {e})
            w = lfen_of_tree(g, forest)
            if w.value != cval:
                raise RuntimeError(
                    f"swap in {e} for {f} scored lfen {cval}, the rebuilt tree has {w.value}"
                )
        key = (w.value, tuple(sorted(forest.tree_edges)))
        if best_key is None or key < best_key:
            best_key = key
            best_tree = forest.tree_edges
    return best_tree, False


def _chain_forest(g: Superstructure) -> frozenset:
    """Every edge of a connected graph but the largest of each chain of its
    2-core (`peel`): the spanning tree of least (lfen, sorted edges) holds
    them all.

    A chain is a maximal path whose inner vertices have two core neighbours,
    or a whole cycle; it is a class of core edges joined at such vertices.
    Every spanning tree keeps each bridge and cuts each chain at most once,
    or an inner vertex would be cut off.  The local counts depend only on
    which chains a tree cuts: a cut chain's feedback edge closes the same
    cycle wherever it lies, and no other tree path enters the chain, as no
    other edge ends inside it.  Among the trees that cut the same chains,
    cutting each at its largest edge gives the smallest sorted edge tuple.
    """
    out = peel(g)[1]
    union = {e: e for e in g.edges if e[0] not in out and e[1] not in out}
    for v in range(g.n):
        core = [] if v in out else [_norm(v, w) for w in g.adj[v] if w not in out]
        if len(core) == 2:
            union[find(union, core[0])] = find(union, core[1])
    largest: dict = {}
    for e in union:
        r = find(union, e)
        largest[r] = max(largest.get(r, e), e)
    return g.edges - frozenset(largest.values())


def _best_swap(forest: SpanningForest, counts: tuple[int, ...], value: int):
    """Smallest (lfen, e, f) over the swaps T' = T - f + e (e a feedback
    edge, f a tree edge on its path) with lfen(T') < value, or None.

    Each swap is scored from T's paths instead of a rebuilt forest.  In T',
    f's path covers exactly the vertices of e's old path P, so dropping e
    and adding f cancel in the counts.  A feedback edge g whose path avoids
    f keeps it.  If g's path uses f, it shares a sub-path P[lo..hi] with P
    (lo < hi) and its new path is the edge set path(g) xor (P + e): it
    gains the vertices of P outside [lo, hi] and loses those strictly
    inside.  So only P's counts move, and the swaps at the edges
    (P[k], P[k+1]) whose set of such g is the same all score alike.
    """
    paths = {e: forest.tree_path(*e) for e in sorted(forest.feedback_edges)}
    on_path: list[list[tuple[int, int]]] = [[] for _ in counts]
    for e, path in paths.items():
        for v in path:
            on_path[v].append(e)
    by_count = sorted(range(len(counts)), key=counts.__getitem__, reverse=True)
    best = None
    for e, path in paths.items():
        on_e = set(path)
        # vertices off P keep their counts
        rest = next((counts[v] for v in by_count if v not in on_e), 0)
        if rest >= (value if best is None else best[0]):
            continue  # later e lose ties, so nothing here beats `best`
        span: dict[tuple[int, int], list[int]] = {}
        for i, v in enumerate(path):
            for h in on_path[v]:
                if h in span:
                    span[h][1] = i
                elif h != e:
                    span[h] = [i, i]
        spans = [(lo, hi) for lo, hi in span.values() if lo < hi]
        size = len(path)
        on_counts = [counts[v] for v in path]
        cuts = sorted({0, size - 1, *(x for sp in spans for x in sp)})
        for start, stop in zip(cuts, cuts[1:]):
            active = [(lo, hi) for lo, hi in spans if lo <= start < hi]
            if not active:
                continue  # T' has T's counts
            diff = [0] * (size + 1)  # +1 before lo and after hi, -1 between
            for lo, hi in active:
                diff[0] += 1
                diff[lo] -= 1
                diff[lo + 1] -= 1
                diff[hi] += 1
                diff[hi + 1] += 1
            cval = max(rest, max(map(add, on_counts, accumulate(diff[:size]))))
            if cval < value:
                f = min(_norm(path[k], path[k + 1]) for k in range(start, stop))
                if best is None or (cval, e, f) < best:
                    best = (cval, e, f)
    return best


# ---------------------------------------------------------------------------
# tree decompositions


@dataclass
class TDNode:
    bag: frozenset[int]
    kind: str  # leaf | introduce | forget | join
    children: list[int]


@dataclass
class NiceTreeDecomposition:
    """Rooted nice decomposition: singleton leaf bags, empty root bag,
    introduce/forget steps change one vertex, join children copy the bag."""

    nodes: list[TDNode]
    root: int
    width: int

    def postorder(self) -> list[int]:
        """Node ids, each after its children, children walked right to left."""
        return [t for t, _ in _postorder(self.root, lambda t: reversed(self.nodes[t].children))]


def _postorder(root, children):
    """(node, parent) for each node under `root`, after its children, which
    go in the order `children(node)` gives; the root's parent is None."""
    stack = [(root, None, iter(children(root)))]
    while stack:
        v, p, kids = stack[-1]
        for c in kids:
            stack.append((c, v, iter(children(c))))
            break
        else:
            stack.pop()
            yield v, p


def check_nice(td: NiceTreeDecomposition, g: Superstructure) -> list[str]:
    """All violated decomposition invariants (empty list when valid)."""
    problems = []
    nodes = td.nodes
    if nodes[td.root].bag:
        problems.append("root bag not empty")
    seen_children = set()
    for t, node in enumerate(nodes):
        for c in node.children:
            if c in seen_children:
                problems.append(f"node {c} has two parents")
            seen_children.add(c)
        kids = node.children
        if node.kind == "leaf":
            if kids:
                problems.append(f"leaf {t} has children")
            if len(node.bag) != 1 and g.n > 0:
                problems.append(f"leaf {t} bag size {len(node.bag)}")
        elif node.kind in ("introduce", "forget"):
            if len(kids) != 1:
                problems.append(f"{node.kind} {t} has {len(kids)} children")
            else:
                child = nodes[kids[0]].bag
                diff = node.bag ^ child
                if len(diff) != 1:
                    problems.append(f"{node.kind} {t} changes {len(diff)} vertices")
                elif node.kind == "introduce" and not diff <= node.bag:
                    problems.append(f"introduce {t} removed a vertex")
                elif node.kind == "forget" and not diff <= child:
                    problems.append(f"forget {t} added a vertex")
        elif node.kind == "join":
            if len(kids) != 2 or any(nodes[c].bag != node.bag for c in kids):
                problems.append(f"join {t} children don't copy the bag")
        else:
            problems.append(f"unknown kind {node.kind}")
    holding: dict[int, list[int]] = {}
    for t, node in enumerate(nodes):
        for v in node.bag:
            holding.setdefault(v, []).append(t)
    hold_sets = {v: set(ts) for v, ts in holding.items()}
    # edge coverage
    for a, b in g.edges:
        if hold_sets.get(a, set()).isdisjoint(hold_sets.get(b, ())):
            problems.append(f"edge ({a},{b}) not covered")
    # subtree (connectedness) property per vertex: every occurrence must
    # reach the topmost one (the top reached from the last occurrence)
    # through occurrences only
    parent = {c: t for t, node in enumerate(nodes) for c in node.children}
    for v in range(g.n):
        if v not in holding:
            if g.adj[v]:
                problems.append(f"vertex {v} in no bag")
            continue
        hold = hold_sets[v]
        top = holding[v][-1]
        while top in parent and parent[top] in hold:
            top = parent[top]
        reaches = {top: True}
        for t in holding[v]:
            # climb to a node of known outcome, then label the walk with it
            walk, x = [], t
            while x not in reaches:
                walk.append(x)
                x = parent.get(x)
                if x not in hold:
                    break
            ok = x in hold and reaches[x]
            for y in walk:
                reaches[y] = ok
            if not ok:
                problems.append(f"vertex {v} occurrence not connected")
    return problems


def _eliminate(g: Superstructure, vertices):
    """Raw decomposition bags and tree of the subgraph of g induced by
    `vertices`, in g's own vertex numbers, from one elimination pass.

    Each vertex's bag is itself and its neighbours when it is eliminated;
    its parent is the first of them eliminated after it (bags are keyed in
    elimination order, and roots are omitted from the parent map).  The
    vertices go in greedy min-fill order: always the vertex with the fewest
    non-adjacent neighbour pairs (its fill), ties to the lowest vertex.

    fill[v] is kept up to date under elimination instead of rescanned: a
    lazily validated heap of (fill, v) gives the pick.  Eliminating v first
    drops v from each neighbour u, which loses the pairs (v, w) with w not
    adjacent to v; then each missing edge (a, b) inside N(v) is added, which
    closes the pair (a, b) at every common neighbour and opens at a the
    pairs (b, w) for w in N(a) not adjacent to b (and symmetrically at b).
    """
    keep = set(vertices)
    adj = {v: g.adj[v] & keep for v in keep}
    fill = {}
    for v, nbrs in adj.items():
        d = len(nbrs)
        closed = sum(len(adj[u] & nbrs) for u in nbrs) // 2
        fill[v] = d * (d - 1) // 2 - closed
    heap = [(f, v) for v, f in fill.items()]
    heapq.heapify(heap)
    bags: dict[int, frozenset[int]] = {}
    while adj:
        f, v = heapq.heappop(heap)
        if v not in adj or f != fill[v]:
            continue
        nbrs = adj.pop(v)
        del fill[v]
        bags[v] = frozenset(nbrs) | {v}
        changed = set(nbrs)
        for u in nbrs:
            nu = adj[u]
            nu.discard(v)
            fill[u] -= len(nu) - len(nu & nbrs)
        nl = sorted(nbrs)
        for i, a in enumerate(nl):
            for b in nl[i + 1:]:
                na, nb = adj[a], adj[b]
                if b in na:
                    continue
                common = na & nb
                for c in common:
                    fill[c] -= 1
                changed |= common
                fill[a] += len(na) - len(common)
                fill[b] += len(nb) - len(common)
                na.add(b)
                nb.add(a)
        for u in changed:
            heapq.heappush(heap, (fill[u], u))
    pos = {v: i for i, v in enumerate(bags)}
    parent = {v: min(bag - {v}, key=pos.__getitem__)
              for v, bag in bags.items() if len(bag) > 1}
    return bags, parent


def tree_decomposition(g: Superstructure, vertices=None) -> NiceTreeDecomposition:
    """Nice decomposition of g, or of the subgraph induced by `vertices`
    over g's vertex numbers, from one min-fill elimination pass; components
    meet under a shared empty root.  No vertex at all gives `nice_from_raw`'s
    empty leaf of width -1."""
    return nice_from_raw(*_eliminate(g, range(g.n) if vertices is None else vertices))


def nice_from_raw(bags: dict, parent: dict) -> NiceTreeDecomposition:
    """Nice decomposition from raw bags and a parent map over bag keys
    (roots omitted from `parent`), built in one post-order walk: every raw
    root hangs from one virtual bag with no vertex, and each child's bag is
    morphed stepwise into its parent's (children in ascending key order,
    meeting under joins), so the roots' bags are forgotten and the
    components meet under empty joins.  A bag with no vertex and no child
    covers nothing and is left out (a nice leaf holds one vertex); no bag
    left, or none given, gives one empty leaf of width -1."""
    nodes: list[TDNode] = []

    def add(bag, kind, children) -> int:
        nodes.append(TDNode(frozenset(bag), kind, list(children)))
        return len(nodes) - 1

    bags, parent = dict(bags), dict(parent)
    children_of: dict = {v: [] for v in bags}
    for v, p in parent.items():
        children_of[p].append(v)
    empty = [v for v in bags if not bags[v] and not children_of[v]]
    while empty:
        v = empty.pop()
        del bags[v], children_of[v]
        p = parent.pop(v, None)
        if p is not None:
            children_of[p].remove(v)
            if not bags[p] and not children_of[p]:
                empty.append(p)
    if not bags:
        return NiceTreeDecomposition([TDNode(frozenset(), "leaf", [])], 0, -1)
    virtual = object()
    children_of[virtual] = [v for v in bags if v not in parent]
    bags[virtual] = frozenset()

    def morph(top: int, cur_bag: frozenset, bag: frozenset) -> int:
        """Forget the extras of a child's bag, then introduce the missing."""
        cur = top
        for x in sorted(cur_bag - bag):
            cur_bag = cur_bag - {x}
            cur = add(cur_bag, "forget", [cur])
        for x in sorted(bag - cur_bag):
            cur_bag = cur_bag | {x}
            cur = add(cur_bag, "introduce", [cur])
        return cur

    def close(v, sub_tops: list[int]) -> int:
        """Top node for bags[v] once its children's subtrees are built."""
        bag = bags[v]
        if not sub_tops:
            # build the bag from a singleton leaf
            vs = sorted(bag)
            cur = add({vs[0]}, "leaf", [])
            cur_bag = {vs[0]}
            for x in vs[1:]:
                cur_bag.add(x)
                cur = add(cur_bag, "introduce", [cur])
            return cur
        while len(sub_tops) > 1:
            b = sub_tops.pop()
            a = sub_tops.pop()
            sub_tops.append(add(bag, "join", [a, b]))
        return sub_tops[0]

    # each child's subtree and morph are emitted before the next child's
    subs: dict = {v: [] for v in bags}
    for v, p in _postorder(virtual, lambda v: sorted(children_of[v])):
        t = close(v, subs.pop(v))
        if p is not None:
            subs[p].append(morph(t, bags[v], bags[p]))
    # the walk ends at the virtual bag, whose top node is the root
    width = max(len(node.bag) for node in nodes) - 1
    return NiceTreeDecomposition(nodes, t, width)
