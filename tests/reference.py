"""Independent brute-force references shared by the test modules.

These enumerate partial solutions directly from their definitions and are
kept free of any solver machinery they are used to check.  Two kinds of
exception: `kernelize_rescan` reuses the kernel's rule applications and
replaces only the bookkeeping it checks, and the last three functions are
the earlier, slower versions of library functions that the fast ones must
reproduce exactly.
"""

from itertools import product
from typing import Optional, Sequence

from bnsl.graphs import NiceTreeDecomposition
from bnsl.instances import Network, Superstructure, validate
from bnsl.polytree import GroundElement, MatroidOracles


def reach_pairs(n_ids, arcs):
    """Strict reachability pairs (x, y), x reaches y by >= 1 arc."""
    succ = {v: set() for v in n_ids}
    for u, v in arcs:
        succ[u].add(v)
    pairs = set()
    for s in n_ids:
        stack = list(succ[s])
        seen = set()
        while stack:
            x = stack.pop()
            if x in seen:
                continue
            seen.add(x)
            stack.extend(succ.get(x, ()))
        pairs.update((s, t) for t in seen)
    return pairs


def is_acyclic(arcs):
    verts = {x for a in arcs for x in a}
    return not any(u == v for u, v in reach_pairs(verts, arcs) | set())


def parent_choice_assignments(instance, members):
    """All per-vertex parent-set choices (listed plus empty) for `members`."""
    choices = [instance.parent_sets(v) for v in members]
    for combo in product(*choices):
        yield dict(zip(members, combo))


def subtree_record_reference(instance, subtree, delta):
    """Valid acyclic-network records of a subtree by enumeration.

    Partial solutions assign each subtree vertex a listed-or-empty parent
    set (arcs end inside the subtree); key: strict reachability restricted
    to the boundary; value: best score.
    """
    out = {}
    members = sorted(subtree)
    dset = set(delta)
    for assign in parent_choice_assignments(instance, members):
        arcs = {(p, v) for v, parents in assign.items() for p in parents}
        pairs = reach_pairs(set().union(*[{u, v} for u, v in arcs], set(members)), arcs)
        if any(u == v for u, v in pairs):
            continue
        key = frozenset((x, y) for x, y in pairs if x in dset and y in dset)
        score = sum(instance.score(v, parents) for v, parents in assign.items())
        if key not in out or score > out[key]:
            out[key] = score
    return out


def skeleton_forest(arcs):
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for u, v in arcs:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def subtree_pl_record_reference(instance, subtree, delta_in):
    """Valid polytree records: (component partition of the inner boundary,
    arcs entering the subtree) -> best score."""
    out = {}
    members = sorted(subtree)
    inner = sorted(delta_in)
    sset = set(subtree)
    for assign in parent_choice_assignments(instance, members):
        arcs = {(p, v) for v, parents in assign.items() for p in parents}
        if not skeleton_forest(arcs):
            continue
        # components of the subgraph induced on the subtree
        comp = {}

        def find(x):
            comp.setdefault(x, x)
            while comp[x] != x:
                comp[x] = comp.get(comp[x], comp[x])
                x = comp[x]
            return x

        for u, v in arcs:
            if u in sset and v in sset:
                ru, rv = find(u), find(v)
                if ru != rv:
                    comp[ru] = rv
        groups = {}
        for x in inner:
            groups.setdefault(find(x), []).append(x)
        part = tuple(sorted(tuple(sorted(g)) for g in groups.values()))
        entering = frozenset((u, v) for u, v in arcs if u not in sset)
        key = (part, entering)
        score = sum(instance.score(v, parents) for v, parents in assign.items())
        if key not in out or score > out[key]:
            out[key] = score
    return out


def snapshot_reference(instance, below, bag, q, mode):
    """Best score per snapshot over all networks on `below` drawn from the
    superstructure (acyclic or polytree, optional in-degree bound)."""
    from bnsl.instances import superstructure

    g = superstructure(instance)
    edges = [
        (a, b) for a, b in sorted(g.edges) if a in below and b in below
    ]
    bag = sorted(bag)
    bagset = set(bag)
    out = {}

    def snap(arcs):
        loc = frozenset(
            (u, v) for u, v in arcs if u in bagset and v in bagset
        )
        if mode == "bnsl":
            pairs = reach_pairs(set(below), arcs)
            con = frozenset(
                (x, y) for x, y in pairs if x in bagset and y in bagset
            )
        else:
            comp = {}

            def find(x):
                comp.setdefault(x, x)
                while comp[x] != x:
                    comp[x] = comp.get(comp[x], comp[x])
                    x = comp[x]
                return x

            for u, v in arcs:
                ru, rv = find(u), find(v)
                if ru != rv:
                    comp[ru] = rv
            con = frozenset(
                (x, y) for x in bag for y in bag if x != y and find(x) == find(y)
            )
        if q is not None:
            indeg = {v: 0 for v in bag}
            for u, v in arcs:
                if v in bagset:
                    indeg[v] += 1
            inn = tuple(sorted(indeg.items()))
        else:
            inn = ()
        return (loc, con, inn)

    def rec(i, arcs, indeg):
        if i == len(edges):
            score = sum(instance.arc(u, v) for u, v in arcs)
            key = snap(arcs)
            if key not in out or score > out[key]:
                out[key] = score
            return
        a, b = edges[i]
        rec(i + 1, arcs, indeg)
        for u, v in ((a, b), (b, a)):
            if q is not None and indeg.get(v, 0) >= q:
                continue
            arcs.append((u, v))
            indeg[v] = indeg.get(v, 0) + 1
            ok = True
            if mode == "bnsl":
                ok = is_acyclic(arcs)
            else:
                ok = skeleton_forest(arcs)
            if ok:
                rec(i + 1, arcs, indeg)
            indeg[v] -= 1
            arcs.pop()

    rec(0, [], {})
    return out


def random_dag(rng, n, prob=0.35):
    order = list(range(n))
    rng.shuffle(order)
    pos = {v: i for i, v in enumerate(order)}
    arcs = set()
    for u in range(n):
        for v in range(n):
            if u != v and pos[u] < pos[v] and rng.random() < prob:
                arcs.add((u, v))
    return Network(n, frozenset(arcs))


def scan_adjacency(work):
    """Superstructure adjacency of a kernel working state, rebuilt from its
    score tables; parent sets naming removed vertices give no edge."""
    adj = {v: set() for v in work.vertices}
    for v, sets in work.entries.items():
        for parents in sets:
            for p in parents:
                if p in adj:
                    adj[v].add(p)
                    adj[p].add(v)
    return adj


def rule1_scan_target(adj):
    """Smallest vertex with a degree-1 neighbour, by a sorted scan."""
    for v in sorted(adj):
        if any(len(adj[w]) == 1 for w in adj[v]):
            return v
    return None


def kernelize_rescan(instance, polytree):
    """The kernel's fixed-point loop with the superstructure adjacency
    rebuilt from the score tables at every use and the rule-1 target found
    by a sorted scan of all vertices (O(n^2) in total); `kernel._Work`
    keeps the adjacency incrementally and must reproduce this step for
    step."""
    from bnsl import kernel

    class RescanWork(kernel._Work):
        def adjacency(self):
            return scan_adjacency(self)

    work = RescanWork(instance)
    steps = []
    changed = True
    while changed:
        changed = False
        while True:
            target = rule1_scan_target(work.adjacency())
            if target is None:
                break
            steps.append(kernel._apply_rr1(work, target, work.adjacency()))
            changed = True
        paths = kernel._find_paths(work, 6 if polytree else 4)
        if paths:
            apply = kernel._apply_rr2_pl if polytree else kernel._apply_rr2
            steps.append(apply(work, paths[0]))
            changed = True
    reduced, loose_of_reduced = work.to_instance()
    dense_of_loose = {loose: d for d, loose in loose_of_reduced.items()}
    vertex_map = {v: dense_of_loose.get(v) for v in range(instance.n)}
    return kernel.KernelResult(reduced, vertex_map, steps, loose_of_reduced, instance.n)


# The three functions below are earlier versions of library functions, kept
# verbatim (only renamed) as references: the pairwise-oracle exchange graph
# of `polytree.weighted_matroid_intersection`, the per-vertex scan of
# `graphs.check_nice` and the full-rescan min-fill order of
# `graphs._min_fill_order`.  The library versions must return exactly what
# these return.


def weighted_matroid_intersection_pairwise(
    elements: Sequence[GroundElement], oracles: MatroidOracles
) -> list[GroundElement]:
    """Maximum-weight common independent set over all cardinalities.

    Augmenting-path scheme: exchange arcs x->y when I-x+y stays independent
    in the graphic matroid and y->x for the partition matroid; node costs
    -weight outside I, +weight inside; augment along a minimum-cost,
    fewest-arcs source-to-sink path while one exists.
    """
    items = list(elements)
    m = len(items)
    in_set = [False] * m
    best_weight = 0
    best_set: list[int] = []

    def members(exclude=None, include=None):
        out = [items[i] for i in range(m) if in_set[i] and i != exclude]
        if include is not None:
            out.append(items[include])
        return out

    while True:
        sources = []
        sinks = set()
        for y in range(m):
            if in_set[y]:
                continue
            if oracles.graphic_independent(members(include=y)):
                sources.append(y)
            if oracles.partition_independent(members(include=y)):
                sinks.add(y)
        if not sources:
            break
        arcs: dict[int, list[int]] = {i: [] for i in range(m)}
        for x in range(m):
            if not in_set[x]:
                continue
            for y in range(m):
                if in_set[y]:
                    continue
                if oracles.graphic_independent(members(exclude=x, include=y)):
                    arcs[x].append(y)
                if oracles.partition_independent(members(exclude=x, include=y)):
                    arcs[y].append(x)

        def cost(z):
            return items[z].weight if in_set[z] else -items[z].weight

        INF = float("inf")
        dist = {z: (INF, INF) for z in range(m)}
        pred: dict[int, Optional[int]] = {}
        for s in sources:
            d = (cost(s), 0)
            if d < dist[s]:
                dist[s] = d
                pred[s] = None
        for _ in range(m + 1):
            changed = False
            for u in range(m):
                if dist[u][0] == INF:
                    continue
                for v in arcs[u]:
                    nd = (dist[u][0] + cost(v), dist[u][1] + 1)
                    if nd < dist[v]:
                        dist[v] = nd
                        pred[v] = u
                        changed = True
            if not changed:
                break
        target = None
        for y in sorted(sinks):
            if dist[y][0] == INF:
                continue
            if target is None or dist[y] < dist[target]:
                target = y
        if target is None:
            break
        path = []
        z = target
        while z is not None:
            path.append(z)
            z = pred.get(z)
        for z in path:
            in_set[z] = not in_set[z]
        weight = sum(items[i].weight for i in range(m) if in_set[i])
        if weight > best_weight:
            best_weight = weight
            best_set = [i for i in range(m) if in_set[i]]
    return [items[i] for i in best_set]


def check_nice_scan(td: NiceTreeDecomposition, g: Superstructure) -> list[str]:
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
    # edge coverage
    for a, b in g.edges:
        if not any({a, b} <= node.bag for node in nodes):
            problems.append(f"edge ({a},{b}) not covered")
    # subtree (connectedness) property per vertex
    parent = {c: t for t, node in enumerate(nodes) for c in node.children}
    for v in range(g.n):
        holding = [t for t, node in enumerate(nodes) if v in node.bag]
        if not holding and any(v in e for e in g.edges):
            problems.append(f"vertex {v} in no bag")
            continue
        if not holding:
            continue
        hold = set(holding)
        top = holding[0]
        for t in holding:
            # walk towards root while staying in holding set
            x = t
            while x in parent and parent[x] in hold:
                x = parent[x]
            top = x
        for t in holding:
            x = t
            while x != top:
                if x not in parent or x not in hold:
                    problems.append(f"vertex {v} occurrence not connected")
                    break
                x = parent[x]
    return problems


def min_fill_order_rescan(g: Superstructure) -> list[int]:
    adj = {v: set(g.adj[v]) for v in range(g.n)}
    order = []
    remaining = set(range(g.n))
    while remaining:
        best_v, best_fill = None, None
        for v in sorted(remaining):
            nbrs = adj[v]
            fill = 0
            nl = sorted(nbrs)
            for i in range(len(nl)):
                for j in range(i + 1, len(nl)):
                    if nl[j] not in adj[nl[i]]:
                        fill += 1
            if best_fill is None or fill < best_fill:
                best_fill, best_v = fill, v
        v = best_v
        nbrs = sorted(adj[v])
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                adj[nbrs[i]].add(nbrs[j])
                adj[nbrs[j]].add(nbrs[i])
        for w in nbrs:
            adj[w].discard(v)
        del adj[v]
        remaining.remove(v)
        order.append(v)
    return order
