import json
import random
import time
from itertools import product

from bnsl import generate, kernel, lfen_dp, oracle
from bnsl.instances import (
    Network,
    Superstructure,
    parse_nonzero,
    score_of,
    superstructure,
    validate,
    write_nonzero,
)
from reference import (
    best_config_two_encodings,
    kernelize_old_rules,
    kernelize_rescan,
    lift_rescan,
    random_dag,
    rule1_scan_target,
    scan_adjacency,
)

STATES = ("fwd", "bwd", "none")


def config_score(inst, path_ext, config):
    """Score of the inner path vertices under a full edge-state vector."""
    total = 0
    for j in range(1, len(path_ext) - 1):
        parents = set()
        if config[j - 1] == "fwd":
            parents.add(path_ext[j - 1])
        if config[j] == "bwd":
            parents.add(path_ext[j + 1])
        total += inst.score(path_ext[j], frozenset(parents))
    return total


def enumerate_configs(path_ext, e0, em):
    m = len(path_ext) - 2
    for inner in product(STATES, repeat=m - 1):
        yield (e0,) + inner + (em,)


def end_states(path_ext, bset):
    """End-edge states when the anchors in bset feed the path."""
    a, c = path_ext[0], path_ext[-1]
    return "fwd" if a in bset else "none", "bwd" if c in bset else "none"


def path_oracle_max(inst, path_ext, bset):
    return max(
        config_score(inst, path_ext, cfg)
        for cfg in enumerate_configs(path_ext, *end_states(path_ext, bset))
    )


def path_oracle_nopath(inst, path_ext, from_a):
    e0, em = ("fwd", "none") if from_a else ("none", "bwd")
    want_missing = "fwd" if from_a else "bwd"
    best = None
    for cfg in enumerate_configs(path_ext, e0, em):
        if all(s == want_missing for s in cfg[1:-1]):
            continue
        s = config_score(inst, path_ext, cfg)
        best = s if best is None else max(best, s)
    return best


def path_oracle_pl(inst, path_ext, p, bset):
    a, c = path_ext[0], path_ext[-1]
    e0 = "fwd" if a in bset else "none"
    em = "bwd" if c in bset else "none"
    m = len(path_ext) - 2
    best = None
    for cfg in enumerate_configs(path_ext, e0, em):
        if m > 1:
            connected = all(s != "none" for s in cfg[1:-1])
            if connected != (p == 1):
                continue
        s = config_score(inst, path_ext, cfg)
        best = s if best is None else max(best, s)
    return best


def rr1_prune(inst, v):
    """One application of rule 1 at v."""
    work = kernel._Work(inst)
    kernel._apply_rr1(work, v)
    return work.to_instance()[0]


def rr2_contract(inst, path):
    """One application of rule 2 on the path."""
    work = kernel._Work(inst)
    kernel._apply_rr2(work, list(path))
    return work.to_instance()[0]


def path_instance(rng, m, max_score=6):
    """A single induced path a, b_1..b_m, c with random scores."""
    n = m + 2
    g_edges = [(i, i + 1) for i in range(n - 1)]
    from bnsl.instances import Superstructure

    g = Superstructure(n, g_edges)
    return generate.scores_for_graph(rng, g, max_score)


def test_path_scores_single_inner_vertex():
    # b_1 flanked by a and c with every parent choice listed
    inst = parse_nonzero(
        "3\na 0\nb 3\n3 1 a\n2 1 c\n4 2 a c\nc 0\n"
    )
    a, b, c = 0, 1, 2
    cases = kernel._bnsl_path_cases(kernel._Work(inst), [a, b, c])
    assert [(tag, score) for tag, (score, _) in cases.items()] == [
        ("max_", 0), ("max_a", 3), ("max_c", 2), ("max_ac", 4),
        ("nopath_a", None), ("nopath_c", None),
    ]


def test_path_scores_values_are_maxima_of_families():
    # every value is bounded by the unconstrained maximum, and the
    # no-through-path values never exceed the matching fed maximum
    for seed in range(20):
        rng = random.Random(50 + seed)
        m = rng.randint(2, 5)
        inst = path_instance(rng, m)
        path_ext = list(range(m + 2))
        score = {tag: sc for tag, (sc, _) in kernel._bnsl_path_cases(
            kernel._Work(inst), path_ext).items()}
        assert score["nopath_a"] <= score["max_a"]
        assert score["nopath_c"] <= score["max_c"]
        assert all(score[tag] >= 0 for tag in ("max_", "max_a", "max_c", "max_ac"))


def test_path_scores_match_enumeration():
    for seed in range(60):
        rng = random.Random(seed)
        m = rng.randint(2, 6)
        inst = path_instance(rng, m)
        path_ext = list(range(m + 2))
        cases = kernel._bnsl_path_cases(kernel._Work(inst), path_ext)
        a, c = 0, m + 1
        assert list(cases) == ["max_", "max_a", "max_c", "max_ac", "nopath_a", "nopath_c"]
        for bset in (frozenset(), frozenset([a]), frozenset([c]), frozenset([a, c])):
            tag = "max_" + ("a" if a in bset else "") + ("c" if c in bset else "")
            value, cfg = cases[tag]
            assert value == path_oracle_max(inst, path_ext, bset)
            assert cfg in set(enumerate_configs(path_ext, *end_states(path_ext, bset)))
            assert config_score(inst, path_ext, cfg) == value
        for tag, e0, em, through in (
            ("nopath_a", "fwd", "none", "fwd"),
            ("nopath_c", "none", "bwd", "bwd"),
        ):
            value, cfg = cases[tag]
            assert value == path_oracle_nopath(inst, path_ext, tag == "nopath_a")
            assert cfg[0] == e0 and cfg[-1] == em and len(cfg) == m + 1
            assert not all(st == through for st in cfg[1:-1])
            assert config_score(inst, path_ext, cfg) == value


def test_pl_path_scores_match_enumeration():
    for seed in range(60):
        rng = random.Random(100 + seed)
        m = rng.randint(2, 6)
        inst = path_instance(rng, m)
        path_ext = list(range(m + 2))
        cases = kernel._pl_path_cases(kernel._Work(inst), path_ext)
        a, c = 0, m + 1
        assert list(cases) == ["0_", "1_", "0_a", "1_a", "0_c", "1_c", "0_ac", "1_ac"]
        for bset in (frozenset(), frozenset([a]), frozenset([c]), frozenset([a, c])):
            for p in (0, 1):
                value, cfg = cases[f"{p}_" + ("a" if a in bset else "") + ("c" if c in bset else "")]
                assert value == path_oracle_pl(inst, path_ext, p, bset)
                assert cfg in set(enumerate_configs(path_ext, *end_states(path_ext, bset)))
                assert all(st != "none" for st in cfg[1:-1]) == (p == 1)
                assert config_score(inst, path_ext, cfg) == value


def test_best_config_matches_two_encoding_reference():
    # scores up to 2 leave many ties: the configuration kept must be the
    # one the reference keeps, for every end-edge pair and constraint
    for seed in range(150):
        rng = random.Random(700 + seed)
        m = rng.randint(1, 6)
        inst = path_instance(rng, m, max_score=2)
        work = kernel._Work(inst)
        path_ext = list(range(m + 2))
        table = kernel._path_table(work, path_ext)
        for e0, em in product(("fwd", "none"), ("bwd", "none")):
            cases = [(None, ())]
            for s in STATES:
                cases.append((("not_all", s), (lambda st, s=s: st == s, False)))
            for want in (False, True):
                cases.append((("all_present", want), (lambda st: st != "none", want)))
            for constraint, args in cases:
                assert kernel._best_config(table, e0, em, *args) == (
                    best_config_two_encodings(work, path_ext, e0, em, constraint)
                )


def test_pl_path_scores_degenerate_single_vertex():
    inst = parse_nonzero("3\na 0\nb 3\n3 1 a\n2 1 c\n4 2 a c\nc 0\n")
    cases = kernel._pl_path_cases(kernel._Work(inst), [0, 1, 2])
    for tag in ("", "a", "c", "ac"):
        assert cases["0_" + tag] == cases["1_" + tag]
    assert cases["1_a"][0] == 3


def test_rr1_star():
    inst = parse_nonzero(
        "4\nh 0\nl1 1\n1 1 h\nl2 1\n1 1 h\nl3 1\n1 1 h\n"
    )
    reduced = rr1_prune(inst, 0)
    assert reduced.n == 1
    assert reduced.entries == {0: {frozenset(): 3}}
    assert oracle.exact_bnsl(reduced)[0] == oracle.exact_bnsl(inst)[0] == 3


def test_rr1_single_absorbed_neighbour():
    inst = parse_nonzero("2\nv 1\n5 1 q\nq 0\n")
    reduced = rr1_prune(inst, 0)
    assert reduced.n == 1
    assert reduced.entries == {0: {frozenset(): 5}}


def test_rr1_drops_a_zero_empty_set_group():
    # v lists only {w, x}, with w a leaf that lists nothing: every leaf of v
    # adds 0 (base 0), so the empty-set group of v scores 0 and is left out
    # of v's new table, which keeps {x} alone.  The lift hands w back to v,
    # and the optimum, 8, is the input's
    inst = parse_nonzero("4\nv 1\n5 2 w x\nw 0\nx 1\n3 1 y\ny 1\n2 1 v\n")
    result = kernel.absorb_leaves(inst)
    assert [(step["rule"], step["v"], step["q"]) for step in result.steps] == [(1, 0, [1])]
    red = result.reduced
    assert red.names == ("v", "x", "y")
    assert red.entries == {0: {frozenset({1}): 5}, 1: {frozenset({2}): 3}, 2: {frozenset({0}): 2}}
    best, net = oracle.exact_bnsl(red)
    lifted = result.lift(net)
    assert best == oracle.exact_bnsl(inst)[0] == score_of(inst, lifted) == 8
    assert validate(lifted, "dag").ok and (1, 0) in lifted.arcs


def test_rr1_preserves_optimum_random():
    checked = 0
    for seed in range(200):
        rng = random.Random(seed)
        inst = generate.random_nonzero(rng, rng.randint(2, 10), rng.randint(0, 2),
                                       connected=False, exact_fen=False)
        g = superstructure(inst)
        target = None
        for v in range(inst.n):
            if any(g.degree(w) == 1 for w in g.adj[v]):
                target = v
                break
        if target is None:
            continue
        checked += 1
        reduced = rr1_prune(inst, target)
        assert oracle.exact_bnsl(reduced)[0] == oracle.exact_bnsl(inst)[0]
        if checked >= 100:
            break
    assert checked >= 50


def test_absorb_leaves_keeps_the_core_and_its_edges():
    # rule 1 alone leaves no degree-1 vertex and keeps every edge among the
    # vertices it keeps, which is what `--algo lfen` needs to cut a
    # supplied spanning forest down to them; the steps are the rule-1
    # prefix of both kernels, and the lifted optimum is the input's
    for seed in range(120):
        rng = random.Random(f"absorb:{seed}")
        n = rng.randint(1, 12)
        inst = generate.random_nonzero(rng, n, rng.randint(0, 3), connected=(seed % 3 != 0),
                                       exact_fen=False, subdivisions=rng.randint(0, (n - 1) // 2))
        result = kernel.absorb_leaves(inst)
        red = result.reduced
        kept = result.loose_of_reduced
        g, gr = superstructure(inst), superstructure(red)
        assert all(gr.degree(v) != 1 for v in range(red.n))
        assert gr.edges == {(a, b) for a in range(red.n) for b in range(a + 1, red.n)
                            if (kept[a], kept[b]) in g.edges}
        assert all(step["rule"] == 1 for step in result.steps)
        for full in (kernel.kernelize_bnsl(inst), kernel.kernelize_pl(inst)):
            assert full.steps[:len(result.steps)] == result.steps
        best, net = oracle.exact_bnsl(red)
        lifted = result.lift(net)
        assert validate(lifted, "dag").ok
        assert score_of(inst, lifted) == best == oracle.exact_bnsl(inst)[0]


def test_rr2_contract_structure():
    rng = random.Random(17)
    inst = path_instance(rng, 4)
    path = list(range(6))
    s0 = oracle.exact_bnsl(inst)[0]
    reduced = rr2_contract(inst, path)
    # anchors + end vertices + one fresh hub replace the 4 inner vertices
    assert reduced.n == 5
    assert oracle.exact_bnsl(reduced)[0] == s0
    # the fresh hub's listed sets always contain both end vertices
    hub = next(
        v for v in range(reduced.n)
        if reduced.names[v] not in inst.names
    )
    for parents in reduced.entries.get(hub, {}):
        assert len(parents) >= 2


def test_rr2_preserves_optimum_random():
    done = 0
    for seed in range(300):
        rng = random.Random(3000 + seed)
        base = rng.randint(3, 5)
        n = rng.randint(base + 4, 12)
        try:
            inst = generate.random_nonzero(rng, n, rng.randint(1, 2),
                                           subdivisions=n - base)
        except ValueError:
            continue
        work = kernel._Work(inst)
        paths = kernel._find_paths(work, 4)
        if not paths:
            continue
        done += 1
        reduced = rr2_contract(inst, paths[0])
        assert oracle.exact_bnsl(reduced)[0] == oracle.exact_bnsl(inst)[0]
        if done >= 100:
            break
    assert done >= 40


def test_kernelize_example_is_fixpoint(example4):
    res = kernel.kernelize_bnsl(example4)
    assert res.reduced == example4
    assert res.steps == []
    assert res.lift(oracle.exact_bnsl(example4)[1]) == oracle.exact_bnsl(example4)[1]


def test_kernelize_tree_collapses():
    for seed in range(30):
        rng = random.Random(seed)
        inst = generate.random_nonzero(rng, rng.randint(2, 12), 0)
        res = kernel.kernelize_bnsl(inst)
        assert res.reduced.n == 1
        so, _ = oracle.exact_bnsl(inst)
        sr, netr = oracle.exact_bnsl(res.reduced)
        assert so == sr
        lifted = res.lift(netr)
        assert validate(lifted, "dag").ok and score_of(inst, lifted) == so


def _planted(seed, n_max, k_range):
    rng = random.Random(seed)
    k = rng.choice(k_range)
    base = max(3, k)
    while (base * (base - 1)) // 2 - (base - 1) < k:
        base += 1
    base = rng.randint(base, base + 2)
    n = rng.randint(base, n_max)
    inst = generate.random_nonzero(rng, n, k, subdivisions=max(0, n - base))
    return inst, k


def test_kernelize_planted_bound_and_lift():
    done = 0
    seed = 0
    while done < 100:
        seed += 1
        try:
            inst, k = _planted(seed, 12, [1, 2, 3, 4])
        except ValueError:
            continue
        done += 1
        res = kernel.kernelize_bnsl(inst)
        assert res.reduced.n <= 16 * k
        so, _ = oracle.exact_bnsl(inst)
        sr, netr = oracle.exact_bnsl(res.reduced)
        assert so == sr
        lifted = res.lift(netr)
        assert validate(lifted, "dag").ok
        assert score_of(inst, lifted) == so


def test_kernelize_pl_planted_bound_and_lift():
    done = 0
    seed = 1000
    while done < 100:
        seed += 1
        try:
            inst, k = _planted(seed, 8, [1, 2, 3, 4])
        except ValueError:
            continue
        if superstructure(inst).edge_count() > 13:
            continue
        done += 1
        res = kernel.kernelize_pl(inst)
        assert res.reduced.n <= 24 * k
        so, _ = oracle.exact_pl(inst)
        sr, netr = oracle.exact_pl(res.reduced)
        assert so == sr
        lifted = res.lift(netr)
        assert validate(lifted, "polytree").ok
        assert score_of(inst, lifted) == so


def test_kernelize_pl_long_paths():
    # bigger instances where the 5-vertex gadget actually fires; reduced
    # optimum is cross-checked with the record solver instead of the oracle
    from bnsl import lfen_dp

    fired = 0
    for seed in range(40):
        rng = random.Random(7777 + seed)
        base = rng.randint(3, 4)
        n = rng.randint(base + 7, 16)
        try:
            inst = generate.random_nonzero(rng, n, rng.randint(1, 2),
                                           subdivisions=n - base)
        except ValueError:
            continue
        res = kernel.kernelize_pl(inst)
        if any(s["rule"] == 3 for s in res.steps):
            fired += 1
        so, _ = lfen_dp.solve_pl_lfen(inst)
        sr, netr = lfen_dp.solve_pl_lfen(res.reduced)
        assert so == sr
        lifted = res.lift(netr)
        assert validate(lifted, "polytree").ok
        assert score_of(inst, lifted) == so
    assert fired >= 5


def test_kernelize_idempotent():
    for seed in range(25):
        try:
            inst, _ = _planted(4000 + seed, 12, [1, 2, 3])
        except ValueError:
            continue
        once = kernel.kernelize_bnsl(inst)
        twice = kernel.kernelize_bnsl(once.reduced)
        assert twice.reduced == once.reduced
        assert twice.steps == []


def test_rule_order_does_not_change_optimum():
    for seed in range(25):
        rng = random.Random(8800 + seed)
        try:
            inst, _ = _planted(rng.randrange(10**6), 12, [1, 2])
        except ValueError:
            continue
        so, _ = oracle.exact_bnsl(inst)
        work = kernel._Work(inst)
        while True:
            adj = work.adj
            rr1_targets = sorted(
                v for v in adj
                if any(len(adj[w]) == 1 for w in adj[v])
            )
            paths = kernel._find_paths(work, 4)
            moves = [("rr1", v) for v in rr1_targets] + [
                ("rr2", tuple(p)) for p in paths
            ]
            if not moves:
                break
            kind, arg = rng.choice(moves)
            if kind == "rr1":
                kernel._apply_rr1(work, arg)
            else:
                kernel._apply_rr2(work, list(arg))
        reduced, _ = work.to_instance()
        assert oracle.exact_bnsl(reduced)[0] == so


def test_kernel_result_json_roundtrip():
    inst, _ = _planted(31, 12, [2])
    res = kernel.kernelize_bnsl(inst)
    text = res.to_json()
    back = kernel.KernelResult.from_json(text, res.reduced)
    _, netr = oracle.exact_bnsl(res.reduced)
    assert back.lift(netr) == res.lift(netr)
    # maps are written on one line; the indented layout written before
    # reads back to the same steps
    assert "\n" not in text
    indented = kernel.KernelResult.from_json(json.dumps(json.loads(text), indent=1), res.reduced)
    assert indented == back and indented.steps == res.steps
    # vertex sets are written sorted, so a map does not depend on how each
    # set was built
    rule1 = [st for st in json.loads(text)["steps"] if st["rule"] == 1]
    assert rule1
    for st in rule1:
        for names in [*st["fallback"], *(x for config in st["configs"] for x in config)]:
            assert names == sorted(names)


def test_lift_matches_rescan_reference():
    # the lift must equal the old scan-and-copy one for any network on the
    # reduced vertices: the optimum, random networks inside the
    # superstructure, and random DAGs over all pairs (a user's solution file
    # may have arcs outside it)
    done = 0
    for seed in range(100):
        rng = random.Random(14000 + seed)
        n = rng.randint(6, 50)
        try:
            inst = generate.random_nonzero(
                rng, n, rng.randint(0, 3), subdivisions=rng.choice([n // 3, n // 2, n - 6])
            )
        except ValueError:
            continue
        done += 1
        for polytree in (False, True):
            res = kernel.kernelize_pl(inst) if polytree else kernel.kernelize_bnsl(inst)
            red = res.reduced
            nets = [random_dag(rng, red.n, prob) for prob in (0.1, 0.3, 0.6)]
            edges = sorted(superstructure(red).edges)
            for _ in range(3):
                nets.append(Network(red.n, frozenset(
                    (u, w) if rng.random() < 0.5 else (w, u)
                    for u, w in edges if rng.random() < 0.7
                )))
            if red.n <= 11:
                solve = lfen_dp.solve_pl_lfen if polytree else lfen_dp.solve_bnsl_lfen
                nets.append(solve(red)[1])
            for net in nets:
                assert res.lift(net) == lift_rescan(res, net)
    assert done >= 80


def test_incremental_adjacency_matches_rescan_reference():
    done = 0
    for seed in range(160):
        rng = random.Random(12000 + seed)
        n = rng.randint(6, 70)
        try:
            inst = generate.random_nonzero(
                rng, n, rng.randint(0, 4), subdivisions=rng.choice([0, n // 2, n - 6])
            )
        except ValueError:
            continue
        done += 1
        for polytree, fast in ((False, kernel.kernelize_bnsl), (True, kernel.kernelize_pl)):
            want = kernelize_rescan(inst, polytree)
            got = fast(inst)
            assert got.to_json() == want.to_json()
            assert write_nonzero(got.reduced) == write_nonzero(want.reduced)
    assert done >= 100


def step_orders(result):
    """Each step's config keys in insertion order (`==` on the steps
    ignores dict order)."""
    return [list(step["configs"]) for step in result.steps]


def pendant_heavy(rng, core_n, pendants, max_score, extra_sets):
    """A random connected core with pendant stars, paths and caterpillars
    hung from random vertices, scored by `generate.scores_for_graph`: many
    vertices take more than one rule-1 step in heap order, and their
    leaves are often among their parents."""
    core = generate.random_graph(rng, core_n, rng.randint(0, 3), exact_fen=False)
    edges = set(core.edges)
    n = core.n
    for _ in range(pendants):
        at = rng.randrange(n)
        for _ in range(rng.randint(1, 4)):  # a path hung from `at`, ...
            edges.add((at, n))
            at, n = n, n + 1
            for _ in range(rng.randint(0, 3)):  # ... each vertex with its own leaves
                edges.add((at, n))
                n += 1
    return generate.scores_for_graph(rng, Superstructure(n, edges), max_score,
                                     extra_sets=extra_sets)


def old_rules_family():
    """(instance, whether to compare lifts) for `test_kernel_matches_old_rules`:
    the explicit benchmark families of seeds 1-5, seeded subdivided
    instances and near-trees, small subdivided ones and pendant-heavy ones,
    many scored up to 2 (many ties), some with an extra set per neighbour."""
    families = [(60, 5, 40), (200, 3, 150), (800, 1, 700), (1500, 1, 0)]
    for seed in range(1, 6):
        for n, fen, sub in families:
            yield generate.random_nonzero(random.Random(f"rr1:{seed}:{n}"), n, fen,
                                          subdivisions=sub), True
    for seed in range(45):
        rng = random.Random(f"old-rules:{seed}")
        max_score = 2 if seed % 3 == 0 else 8
        if seed % 2:
            n = rng.randint(40, 400)
            yield generate.random_nonzero(rng, n, rng.randint(1, 5), max_score,
                                          subdivisions=rng.randint(n // 2, n - 10)), False
        else:
            yield generate.random_nonzero(rng, rng.randint(30, 400), rng.randint(0, 2),
                                          max_score), False
    for seed in range(40):
        rng = random.Random(f"rr1-small:{seed}")
        n = rng.randint(6, 50)
        yield generate.random_nonzero(rng, n, rng.randint(0, 3), 2 if seed % 3 == 0 else 8,
                                      subdivisions=rng.choice([n // 3, n - 6])), False
    for seed in range(60):
        rng = random.Random(f"rr1-loop:{seed}")
        max_score = 2 if seed % 3 == 0 else 8
        extra_sets = rng.choice([0.3, 0.7, 1.5])
        if seed % 2:
            n = rng.randint(20, 300)
            yield generate.random_nonzero(rng, n, rng.randint(0, 4), max_score,
                                          subdivisions=rng.randint(n // 3, n - 8),
                                          connected=seed % 5 != 0, exact_fen=False,
                                          extra_sets=extra_sets), False
        else:
            yield pendant_heavy(rng, rng.randint(3, 30), rng.randint(5, 60), max_score,
                                extra_sets), False


def test_kernel_matches_old_rules():
    # both kernels and `absorb_leaves` against the kernel's loop with the
    # old rule 1 (set_entries and remove per step, every leaf rescanned per
    # candidate), whose path contractions also check the path DP against
    # the old one: the same step lists (config keys in insertion order
    # too), maps as JSON, reduced files and tables, and on the benchmark
    # families the same lifted networks; the kernel never edits its input
    rules = (("bnsl", kernel.kernelize_bnsl), ("pl", kernel.kernelize_pl),
             (None, kernel.absorb_leaves))
    rng = random.Random(5)
    steps = multi = 0
    for inst, lifts in old_rules_family():
        text = write_nonzero(inst)
        for mode, fast in rules:
            want = kernelize_old_rules(inst, mode)
            got = fast(inst)
            assert write_nonzero(inst) == text
            assert got.steps == want.steps and step_orders(got) == step_orders(want)
            assert got.to_json() == want.to_json()
            assert write_nonzero(got.reduced) == write_nonzero(want.reduced)
            assert got.reduced.entries == want.reduced.entries
            targets = [st["v"] for st in got.steps if st["rule"] == 1]
            steps += len(targets)
            multi += len(targets) - len(set(targets))
            if not lifts:
                continue
            red = got.reduced
            nets = [random_dag(rng, red.n, prob) for prob in (0.1, 0.4)]
            edges = sorted(superstructure(red).edges)  # and one orientation of them all
            nets.append(Network(red.n, frozenset(
                (u, w) if rng.random() < 0.5 else (w, u) for u, w in edges
            )))
            for net in nets:
                assert got.lift(net) == want.lift(net)
    assert steps > 20_000 and multi > 5000, (steps, multi)


def test_work_adjacency_tracks_random_mutations():
    # includes what the rules rarely do: tables that drop a live parent
    # (zero scores), removals that leave references behind, fresh vertices
    for seed in range(40):
        rng = random.Random(13000 + seed)
        inst = generate.random_nonzero(rng, rng.randint(3, 15), rng.randint(0, 3),
                                       exact_fen=False)
        work = kernel._Work(inst)
        for _ in range(60):
            live = sorted(work.adj)
            op = rng.random()
            if op < 0.15 and len(live) > 2:
                work.remove(rng.choice(live))
            elif op < 0.25:
                work.fresh("f")
            else:
                v = rng.choice(live)
                others = [u for u in live if u != v]
                work.set_entries(v, {
                    frozenset(rng.sample(others, rng.randint(0, min(3, len(others))))):
                        rng.randint(0, 3)
                    for _ in range(rng.randint(0, 3))
                })
            adj = scan_adjacency(work)
            assert work.adj == adj
            assert work.rule1_target() == rule1_scan_target(adj)


def test_tree_plus_one_edge_kernelizes_at_scale():
    # a random 20 000-vertex tree plus three edges; an O(n^2) rule-1 loop
    # takes minutes here, and so did a lift that scanned and copied every
    # arc once per step
    rng = random.Random(77)
    n = 20_000
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n + 2:
        a, b = sorted(rng.sample(range(n), 2))
        edges.add((a, b))
    inst = generate.scores_for_graph(rng, Superstructure(n, edges))
    for polytree in (False, True):
        if polytree:
            res, bound, solve = kernel.kernelize_pl(inst), 24 * 3, lfen_dp.solve_pl_lfen
        else:
            res, bound, solve = kernel.kernelize_bnsl(inst), 16 * 3, lfen_dp.solve_bnsl_lfen
        assert res.reduced.n <= bound
        score, net = solve(res.reduced)
        start = time.perf_counter()
        lifted = res.lift(net)
        assert time.perf_counter() - start < 2.0
        assert validate(lifted, "polytree" if polytree else "dag").ok
        assert score_of(inst, lifted) == score
