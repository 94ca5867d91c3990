"""Independent brute-force references shared by the test modules.

These enumerate partial solutions directly from their definitions and are
kept free of any solver machinery they are used to check; the one
exception, `kernelize_rescan`, reuses the kernel's rule applications and
replaces only the bookkeeping it checks.
"""

from itertools import product

from bnsl.instances import Network, validate


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
