import random

import pytest

from bnsl import generate, oracle
from bnsl.instances import (
    MAX_SCORE,
    AdditiveInstance,
    Network,
    NonZeroInstance,
    ParseError,
    ScoreOverflowError,
    Superstructure,
    parse_additive,
    parse_nonzero,
    parse_solution,
    score_of,
    superstructure,
    to_nonzero,
    validate,
    write_additive,
    write_nonzero,
    write_solution,
)

from reference import (
    network_parents,
    parse_additive_closure,
    parse_nonzero_pending,
    random_network,
    score_of_parent_sets,
    subdivide_resort,
    validate_ordered,
    write_solution_parent_sets,
)


def names_to_ids(inst, *names):
    return [inst.names.index(x) for x in names]


def test_example_parses(example4):
    assert example4.n == 4
    assert example4.entry_count() == 9
    a, b, c, d = range(4)
    assert example4.score(b, frozenset({a, c})) == 3
    assert example4.score(a, frozenset()) == 0  # unlisted empty set


def test_empty_family():
    inst = parse_nonzero("1\nx 0\n")
    assert inst.n == 1 and inst.entry_count() == 0
    assert superstructure(inst).edge_count() == 0


def test_nonzero_roundtrip_random():
    for seed in range(100):
        rng = random.Random(seed)
        n = rng.randint(1, 9)
        fen = rng.randint(0, 3)
        inst = generate.random_nonzero(rng, n, fen, connected=False,
                                       exact_fen=False)
        assert parse_nonzero(write_nonzero(inst)) == inst


def test_subdivide_matches_resort_reference():
    # the sorted edge list kept with bisect draws the same edges as sorting
    # the edge set for every draw, and leaves the generator in the same
    # state, so every seeded instance is unchanged
    for seed in range(60):
        rng = random.Random(2000 + seed)
        g = generate.random_graph(rng, rng.randint(2, 60), rng.randint(0, 6),
                                  connected=(seed % 4 != 0), exact_fen=False)
        if not g.edges:
            continue
        times = rng.randint(0, 80)
        state = rng.getstate()
        got = generate.subdivide(rng, g, times)
        after = rng.random()
        rng.setstate(state)
        assert got == subdivide_resort(rng, g, times)
        assert after == rng.random()


def _canon_additive(inst):
    arcs = frozenset(
        (inst.names[u], inst.names[v], s) for (u, v), s in inst.arc_scores.items()
    )
    return (inst.n, inst.max_in_degree, arcs)


def test_additive_roundtrip_random():
    # the additive grammar cannot express names of arc-less variables, so
    # the round trip is checked on the representable content plus
    # write-level idempotence
    for seed in range(100):
        rng = random.Random(1000 + seed)
        n = rng.randint(1, 9)
        q = rng.choice([None, 1, 2, 3])
        inst = generate.random_additive(rng, n, 0, q=q, connected=False,
                                        exact_fen=False)
        back = parse_additive(write_additive(inst))
        assert _canon_additive(back) == _canon_additive(inst)
        assert write_additive(parse_additive(write_additive(inst))) == write_additive(inst)


def test_additive_basic():
    inst = parse_additive("additive 4\nb a 2\na b 1\n")
    assert inst.n == 4
    a, b = names_to_ids(inst, "a", "b")
    assert inst.arc_scores == {(a, b): 2, (b, a): 1}
    assert inst.max_in_degree is None


def test_additive_q_header():
    inst = parse_additive("additive 3 3\nb a 1\n")
    assert inst.max_in_degree == 3
    with pytest.raises(ParseError):
        parse_additive("additive 3 0\nb a 1\n")


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty"),
        ("2\na 1\n1 1 b\n", "declared 2"),
        ("1\na 1\n1 1 a\n", "own parent"),
        ("2\na 2\n1 1 b\n2 1 b\nb 0\n", "duplicate"),
        ("2\na 1\n0 1 b\nb 0\n", "zero score"),
        ("2\na 1\n1 2 b\nb 0\n", "expected 2 parent"),
        ("2\na 1\n1 1 c\nb 0\n", "unknown"),
        ("2\na 3\n1 1 b\n", "truncated"),
        ("a <- b\nc <- a b a\n", "line 2: parent 'a' repeated"),
    ],
)
def test_parse_errors(text, fragment):
    # a solution file (its lines hold `<-`) is read against three variables
    with pytest.raises(ParseError) as e:
        if "<-" in text:
            parse_solution(text, parse_nonzero("3\na 0\nb 0\nc 0\n"))
        else:
            parse_nonzero(text)
    assert fragment in str(e.value)


def test_error_line_numbers():
    with pytest.raises(ParseError) as e:
        parse_nonzero("2\na 1\n1 1 zz\nb 0\n")
    assert str(e.value).startswith("line 3:")


def test_superstructure_example(example4):
    g = superstructure(example4)
    a, b, c, d = range(4)
    expect = {(a, b), (a, c), (b, c), (b, d), (c, d)}
    assert g.edges == frozenset(expect)


def test_superstructure_merges_orientations():
    inst = parse_additive("additive 4\nb a 2\na b 1\n")
    g = superstructure(inst)
    assert g.edge_count() == 1


def test_superstructure_additive_vs_singleton_expansion():
    for seed in range(30):
        rng = random.Random(seed)
        inst = generate.random_additive(rng, rng.randint(2, 8), 1, connected=False,
                                        exact_fen=False)
        singles = {}
        for (u, v), s in inst.arc_scores.items():
            singles.setdefault(v, {})[frozenset([u])] = s
        nz = NonZeroInstance(inst.n, inst.names, singles)
        assert superstructure(inst) == superstructure(nz)


def test_score_of_example(example4):
    a, b, c, d = range(4)
    net = Network(4, frozenset({(a, b), (c, b), (a, c), (b, d), (c, d)}))
    assert score_of(example4, net) == 7


def test_score_of_arcless(example4):
    assert score_of(example4, Network(4, frozenset())) == 0
    inst = parse_nonzero("2\na 1\n5 0\nb 0\n")  # explicit empty-set entry
    assert score_of(inst, Network(2, frozenset())) == 5


def test_score_of_matches_by_vertex_recomputation():
    for seed in range(50):
        rng = random.Random(seed)
        inst = generate.random_nonzero(rng, rng.randint(2, 8), 1, connected=False,
                                        exact_fen=False)
        net = random_network(rng, inst)
        expect = sum(
            inst.score(v, network_parents(net, v)) for v in range(inst.n)
        )
        assert score_of(inst, net) == expect
        assert expect <= sum(
            max(sets.values()) for sets in inst.entries.values()
        )


def test_validate_cycle():
    net = Network(3, frozenset({(0, 1), (1, 2), (2, 0)}))
    res = validate(net, "dag")
    assert not res.ok and sorted(res.cycle) == [0, 1, 2]


def test_validate_example_not_polytree(example4):
    a, b, c, d = range(4)
    net = Network(4, frozenset({(a, b), (c, b), (a, c), (b, d), (c, d)}))
    assert validate(net, "dag").ok
    res = validate(net, "polytree")
    assert not res.ok and res.reason == "skeleton cycle"


def test_validate_empty():
    net = Network(3, frozenset())
    assert validate(net, "dag").ok and validate(net, "polytree").ok


def test_validate_in_degree():
    net = Network(3, frozenset({(0, 2), (1, 2)}))
    assert validate(net, "dag", q=2).ok
    res = validate(net, "dag", q=1)
    assert not res.ok and res.vertex == 2


def test_validate_agrees_with_kahn():
    def kahn_acyclic(net):
        indeg = [0] * net.n
        out = {v: [] for v in range(net.n)}
        for u, v in net.arcs:
            out[u].append(v)
            indeg[v] += 1
        queue = [v for v in range(net.n) if indeg[v] == 0]
        seen = 0
        while queue:
            v = queue.pop()
            seen += 1
            for w in out[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        return seen == net.n

    for seed in range(200):
        rng = random.Random(seed)
        n = rng.randint(1, 7)
        arcs = set()
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.3:
                    if (v, u) not in arcs:
                        arcs.add((u, v))
        net = Network(n, frozenset(arcs))
        assert validate(net, "dag").ok == kahn_acyclic(net)


def seeded_networks():
    """Seeded networks on 0 to 40 vertices, each kind `validate` must tell
    apart: acyclic ones (sparse, dense or polytrees), then with a 2-cycle,
    with a longer directed cycle, and acyclic with a skeleton cycle only;
    many also pass an in-degree of 1, 2 or 3."""
    for seed in range(410):
        rng = random.Random(290_000 + seed)
        n, kind = seed % 41, seed // 41 % 5
        order = list(range(n))
        rng.shuffle(order)
        if kind == 0:  # acyclic: each arc runs forward in `order`
            density = rng.choice([0.05, 0.2])
            arcs = {(order[i], order[j]) for i in range(n) for j in range(i + 1, n)
                    if rng.random() < density}
        else:  # a polytree: each vertex hangs from an earlier one, or roots a tree
            arcs = set()
            for j in range(1, n):
                if rng.random() < 0.9:
                    u, v = order[rng.randrange(j)], order[j]
                    arcs.add((u, v) if kind == 4 or rng.random() < 0.5 else (v, u))
        if kind == 2 and arcs:
            u, v = rng.choice(sorted(arcs))
            arcs.add((v, u))
        elif kind == 3 and n >= 3:
            ring = rng.sample(range(n), rng.randint(3, n))
            arcs |= {(a, b) for a, b in zip(ring, ring[1:] + ring[:1])}
        elif kind == 4 and n >= 3:  # a forward chord: still acyclic
            i, j = sorted(rng.sample(range(n), 2))
            arcs.add((order[i], order[j]))
        yield seed, Network(n, frozenset(arcs))


def test_validate_equals_ordered_diagnosis():
    # the one-pass accept and the failure-only diagnosis return what the
    # ordered checks return on every network: field for field, so the
    # reason, the cycle and the vertex `verify` prints are the same
    faults = {}
    for seed, net in seeded_networks():
        for mode in ("dag", "polytree"):
            for q in (None, 1, 2, 3):
                want = validate_ordered(net, mode, q)
                assert validate(net, mode, q) == want, (seed, mode, q)
                faults[want.reason] = faults.get(want.reason, 0) + 1
    assert set(faults) == {None, "both orientations present", "directed cycle",
                           "skeleton cycle", "in-degree exceeds 1",
                           "in-degree exceeds 2", "in-degree exceeds 3"}
    assert min(faults.values()) >= 20


def test_score_of_and_write_solution_equal_parent_set_versions():
    # both representations, scores that hit, miss and list the empty set,
    # totals past 2^63-1, and the written bytes under random names
    overflows = 0
    for seed, net in seeded_networks():
        rng = random.Random(seed)
        n = net.n
        names = tuple(f"{rng.choice('abcxyz')}{v}" for v in rng.sample(range(10 * n), n))
        big = seed % 7 == 0
        entries = {}
        for v in range(n):
            sets = {}
            if rng.random() < 0.5:
                sets[frozenset(u for u, w in net.arcs if w == v)] = rng.randint(1, 9)
            if rng.random() < 0.3:
                sets[frozenset()] = rng.randint(0, 9)
            if n > 1 and rng.random() < 0.4:
                sets[frozenset(rng.sample([u for u in range(n) if u != v], 1))] = 5
            if big:
                sets = {s: MAX_SCORE // 2 for s in sets}
            if sets:
                entries[v] = sets
        arcs = {a: MAX_SCORE // 3 if big else rng.randint(1, 9)
                for a in net.arcs if rng.random() < 0.7}
        for inst in (NonZeroInstance(n, names, entries), AdditiveInstance(n, names, arcs)):
            try:
                want = score_of_parent_sets(inst, net)
            except ScoreOverflowError as e:
                with pytest.raises(ScoreOverflowError) as got:
                    score_of(inst, net)
                assert str(got.value) == str(e)
                overflows += 1
            else:
                assert score_of(inst, net) == want, seed
            assert write_solution(net, inst) == write_solution_parent_sets(net, inst)
    assert overflows >= 20


def test_solution_roundtrip(example4):
    a, b, c, d = range(4)
    net = Network(4, frozenset({(a, b), (c, b), (a, c), (b, d), (c, d)}))
    text = write_solution(net, example4)
    assert parse_solution(text, example4) == net
    assert parse_solution("", example4).arcs == frozenset()


def test_to_nonzero_preserves_optimum():
    for seed in range(25):
        rng = random.Random(seed)
        inst = generate.random_additive(rng, rng.randint(2, 7), 1,
                                        q=rng.choice([None, 2]), connected=False,
                                        exact_fen=False)
        expanded = to_nonzero(inst)
        s1, _ = oracle.exact_bnsl(inst)
        s2, _ = oracle.exact_bnsl(expanded)
        assert s1 == s2


def parse_outcome(parse, text):
    """The instance `parse` reads from `text`, its fields with the arcs in
    file order, or its ParseError's message and line number."""
    try:
        inst = parse(text)
    except ParseError as e:
        return "error", str(e), e.line_no
    return inst, list(inst.arc_scores.items())


def test_parse_additive_matches_closure_parser():
    # the one-loop parser reads the same instances as the parser with a
    # per-token closure, arcs in the same order, and rejects the same
    # malformed files with the same message and line number: seeded files
    # with comments, blank lines and unused names, then each with one line
    # broken, dropped or repeated
    fixed = ["", "\n# only a comment\n", "additive\n", "additive 2 1 1\n", "additiv 2\n",
             "additive x\n", "additive 2 -1\n", "additive 2 0\n", "additive 1\na b 1\n",
             "additive 2\na a 1\n", "additive 2\na b 0\n", "additive 2\na b -3\n",
             "additive 2\na b x\n", f"additive 2\na b {2**63}\n", "additive 2\na b\n",
             "additive 2\na b 1\na b 2\n", "additive 3\n  # c\n\tb a 1 \n", "additive 0\n"]
    for text in fixed:
        assert parse_outcome(parse_additive, text) == parse_outcome(parse_additive_closure, text)
    errors = 0
    for seed in range(150):
        rng = random.Random(170_000 + seed)
        inst = generate.random_additive(rng, rng.randint(1, 12), rng.randint(0, 3),
                                        q=rng.choice([None, 1, 2, 3]), connected=(seed % 3 != 0),
                                        exact_fen=False)
        lines = write_additive(inst).splitlines()
        for _ in range(rng.randint(0, 4)):
            lines.insert(rng.randint(0, len(lines)), rng.choice(["", "   ", "# note", "  #x y"]))
        texts = ["\n".join(lines) + "\n"]
        for _ in range(4):
            broken = list(lines)
            at = rng.randrange(len(broken))
            tok = broken[at].split()
            how = rng.choice(["token", "drop", "repeat", "extra"])
            if how == "token" and tok:
                # a header may not announce a huge n: the parsers would list
                # a name for every variable
                huge = [] if tok[0] == "additive" else [str(2**63)]
                tok[rng.randrange(len(tok))] = rng.choice(["0", "-2", "x", "a", "3"] + huge)
                broken[at] = " ".join(tok)
            elif how == "drop":
                del broken[at]
            elif how == "repeat":
                broken.insert(at, broken[at])
            else:
                broken[at] += " 7"
            texts.append("\n".join(broken))
        for text in texts:
            want = parse_outcome(parse_additive_closure, text)
            assert parse_outcome(parse_additive, text) == want
            errors += want[0] == "error"
    assert errors >= 200


def nonzero_outcome(parse, text):
    """The instance `parse` reads from `text`, its tables with the sets in
    file order, or its ParseError's message and line number."""
    try:
        inst = parse(text)
    except ParseError as e:
        return "error", str(e), e.line_no
    return inst, [(v, list(sets.items())) for v, sets in inst.entries.items()]


def test_parse_nonzero_matches_pending_parser():
    # the two-pass parser reads the same instances as the parser that
    # listed every content line first, tables and sets in the same order,
    # and rejects the same malformed files with the same message and line
    # number: fixed edge cases, then seeded files with comments and blank
    # lines, each also with one line broken, dropped, repeated or extended
    fixed = ["", "\n# only a comment\n", "2 3\n", "x\n", "-1\n", "0\n", "1\n",
             "\n\n1\n", "2\na 0\n", "1\na\n", "1\na 0 0\n", "2\na 0\na 0\n",
             "1\na x\n", "1\na -1\n", "1\na 2\n1 0\n", f"1\na {2**63}\n",
             f"1\na {2**70}\n", "2\na 1\nb 0\n", "1\na 1\n3\n",
             "2\na 1\n3 1 b\nb 0\n", "2\na 1\n3 1 c\nb 0\n", "2\na 1\n3 2 b\nb 0\n",
             "2\na 1\n3 2 b b\nb 0\n", "1\na 1\n3 1 a\n", "2\na 2\n3 1 b\n4 1 b\nb 0\n",
             "2\na 1\n0 1 b\nb 0\n", f"2\na 1\n{2**63} 1 b\nb 0\n", "1\na 1\n0 0\n",
             "1\na 1\n-1 0\n", "1\na 1\nx 0\n", "1\na 1\n1 y\n",
             "2\n\n# c\n  a 1 \n\t3 1 b\n b 0\n", "1\na 0\n b 0\n", "1\na 0\n# a 0\n",
             "1\n\t#c\na\x0b0\x0c\n", "1\n\u3000a 0\u3000\n", "1\n#\na 0 # x\n", "1\n a#b 0\n",
             "1\r\na 1\r\n\r\n 2 0\r\n", "2\na 1\n1 1 #b\n#b 0\n"]
    for text in fixed:
        assert nonzero_outcome(parse_nonzero, text) == nonzero_outcome(parse_nonzero_pending,
                                                                       text), text
    texts = errors = 0
    for seed in range(300):
        rng = random.Random(190_000 + seed)
        n = rng.randint(1, 12)
        connected = seed % 3 != 0
        inst = generate.random_nonzero(rng, n, rng.randint(0, 3), connected=connected,
                                       subdivisions=rng.randint(0, n - 2) if connected and n > 2
                                       and seed % 2 else 0, exact_fen=False)
        lines = write_nonzero(inst).splitlines()
        for _ in range(rng.randint(0, 4)):
            lines.insert(rng.randint(0, len(lines)), rng.choice(["", "   ", "# note", "  #x 1"]))
        variants = ["\n".join(lines) + "\n"]
        for _ in range(8):
            broken = list(lines)
            at = rng.randrange(len(broken))
            tok = broken[at].split()
            how = rng.choice(["token", "token", "drop", "repeat", "extra"])
            if how == "token" and tok:
                tok[rng.randrange(len(tok))] = rng.choice(
                    ["0", "1", "2", "-2", "x", "x0", "x1", "3", str(2**63), str(2**70)])
                broken[at] = " ".join(tok)
            elif how == "drop":
                del broken[at]
            elif how == "repeat":
                broken.insert(at, broken[at])
            else:
                broken[at] += rng.choice([" 7", " x0"])
            variants.append("\n".join(broken))
        for text in variants:
            want = nonzero_outcome(parse_nonzero_pending, text)
            assert nonzero_outcome(parse_nonzero, text) == want, text
            texts += 1
            errors += want[0] == "error"
    assert texts == 2700 and 1000 <= errors <= 2400


def test_parser_and_constructor_refuse_what_they_refused():
    # the parser builds its instance without `__post_init__`, whose checks
    # it makes itself first: each file that breaks one of them is refused
    # with its message and line, as by the parser that went through the
    # public constructor; the public constructor still refuses each bad
    # table with its own message; and every instance the parser reads is
    # one the public constructor accepts, equal to the parsed one
    refused = {
        "2\na 1\n3 1 a\nb 0\n": "line 3: variable listed in its own parent set",
        "2\na 1\n3 1 c\nb 0\n": "line 3: unknown variable 'c'",
        "2\na 1\n0 1 b\nb 0\n": "line 3: non-empty parent set with zero score",
        "2\na 1\n-1 0\nb 0\n": "line 3: score must be non-negative",
        f"2\na 1\n{2**63} 0\nb 0\n": "line 3: score exceeds 2^63-1",
        "2\na 0\n": "line 2: declared 2 variables, found 1",
        "1\na 0\nb 0\n": "line 3: declared 1 variables, found 2",
    }
    for text, message in refused.items():
        for parse in (parse_nonzero, parse_nonzero_pending):
            with pytest.raises(ParseError) as e:
                parse(text)
            assert str(e.value) == message
    bad_tables = [
        ((2, ("a",), {}), "names/variable count mismatch"),
        ((1, ("a",), {1: {frozenset(): 1}}), "child index 1 out of range"),
        ((2, ("a", "b"), {0: {frozenset({0}): 1}}), "variable 0 occurs in its own parent set"),
        ((2, ("a", "b"), {0: {frozenset({2}): 1}}), "parent index out of range for child 0"),
        ((2, ("a", "b"), {1: {frozenset({0}): 0}}),
         "non-empty parent set of 1 listed with score 0"),
        ((2, ("a", "b"), {1: {frozenset(): -1}}), "score -1 outside [0, 2^63)"),
        ((2, ("a", "b"), {1: {frozenset({0}): 2**63}}), f"score {2**63} outside [0, 2^63)"),
    ]
    for args, message in bad_tables:
        with pytest.raises(ValueError) as e:
            NonZeroInstance(*args)
        assert str(e.value) == message
    for seed in range(100):
        rng = random.Random(f"post-init:{seed}")
        n = rng.randint(1, 30)
        inst = generate.random_nonzero(rng, n, rng.randint(0, 3), rng.choice([1, 8, MAX_SCORE]),
                                       connected=seed % 3 != 0, exact_fen=False)
        parsed = parse_nonzero(write_nonzero(inst))
        assert type(parsed) is NonZeroInstance
        assert NonZeroInstance(parsed.n, parsed.names, parsed.entries) == parsed == inst


def test_constructors_score_of_and_validate_refuse_bad_arguments():
    # each refusal with its own message: the additive instance, network
    # and superstructure constructors, a network of another size than the
    # instance it is scored against, and a mode validate does not know
    refusals = [
        (lambda: AdditiveInstance(2, ("a",), {}), "names/variable count mismatch"),
        (lambda: AdditiveInstance(2, ("a", "b"), {}, 0), "in-degree bound must be positive"),
        (lambda: AdditiveInstance(2, ("a", "b"), {(1, 1): 1}), "self-arc on variable 1"),
        (lambda: AdditiveInstance(2, ("a", "b"), {(0, 2): 1}), "arc (0,2) out of range"),
        (lambda: AdditiveInstance(2, ("a", "b"), {(0, 1): 0}), "arc score 0 outside [1, 2^63)"),
        (lambda: AdditiveInstance(2, ("a", "b"), {(0, 1): 2**63}),
         f"arc score {2**63} outside [1, 2^63)"),
        (lambda: Network(2, frozenset({(1, 1)})), "self-arc on 1"),
        (lambda: Network(2, frozenset({(-1, 0)})), "arc (-1,0) out of range"),
        (lambda: Superstructure(3, [(0, 1), (2, 2)]), "self-loop on 2"),
        (lambda: Superstructure(3, [(0, 3)]), "edge (0,3) out of range"),
        (lambda: score_of(parse_nonzero("2\na 0\nb 0\n"), Network(3, frozenset())),
         "network size does not match instance"),
        (lambda: validate(Network(2, frozenset()), "forest"), "unknown mode 'forest'"),
    ]
    for make, message in refusals:
        with pytest.raises(ValueError) as e:
            make()
        assert str(e.value) == message
