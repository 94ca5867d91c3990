import random

import pytest

from bnsl import cli, depset, generate, kernel, lfen_dp, oracle
from bnsl.instances import NonZeroInstance, parse_nonzero, score_of, validate, write_nonzero


def test_example_all_dependent(example4):
    assert depset.dependent_vertices(example4) == (0, 1, 2, 3)
    s, net = depset.solve_bnsl_depset(example4)
    assert s == 7 and validate(net, "dag").ok


def test_empty_family():
    inst = parse_nonzero("3\na 0\nb 0\nc 0\n")
    assert depset.dependent_vertices(inst) == ()
    s, net = depset.solve_bnsl_depset(inst)
    assert s == 0 and net.arcs == frozenset()


def test_explicit_empty_entries_do_not_make_dependent():
    inst = parse_nonzero("2\na 1\n4 0\nb 1\n1 1 a\n")
    assert depset.dependent_vertices(inst) == (1,)
    s, _ = depset.solve_bnsl_depset(inst)
    assert s == 5  # a keeps its empty-set score, b takes a


def test_count_matches_rescan():
    for seed in range(60):
        rng = random.Random(seed)
        inst = generate.random_limited_dependents(rng, rng.randint(2, 10),
                                                  rng.randint(1, 4))
        got = depset.dependent_vertices(inst)
        want = tuple(
            v for v in range(inst.n)
            if any(p for p in inst.entries.get(v, {}))
        )
        assert got == want


def test_limit_refusal():
    inst = generate.random_nonzero(3, 8, 2)
    assert len(depset.dependent_vertices(inst)) > 3
    with pytest.raises(depset.TooManyDependentError) as e:
        depset.solve_bnsl_depset(inst, max_dependent=3)
    assert "solvers" in str(e.value)


def test_negative_limit_refused():
    inst = generate.random_nonzero(3, 8, 2)
    with pytest.raises(ValueError, match="at least 0"):
        depset.solve_bnsl_depset(inst, max_dependent=-1)


def test_matches_oracle_random():
    done = 0
    seed = 0
    while done < 200:
        seed += 1
        rng = random.Random(seed)
        inst = generate.random_limited_dependents(rng, rng.randint(2, 12),
                                                  rng.randint(1, 8))
        members = depset.dependent_vertices(inst)
        if len(members) > 8:
            continue
        done += 1
        so, _ = oracle.exact_bnsl(inst)
        sd, net = depset.solve_bnsl_depset(inst, max_dependent=8)
        assert so == sd
        assert validate(net, "dag").ok and score_of(inst, net) == sd


def test_agrees_with_record_solver():
    for seed in range(50):
        rng = random.Random(600 + seed)
        inst = generate.random_limited_dependents(rng, rng.randint(2, 8),
                                                  rng.randint(1, 4))
        if len(depset.dependent_vertices(inst)) > 4:
            continue
        assert depset.solve_bnsl_depset(inst)[0] == \
            lfen_dp.solve_bnsl_lfen(inst)[0]


def test_witness_sources_outside_dependents():
    for seed in range(40):
        rng = random.Random(1200 + seed)
        inst = generate.random_limited_dependents(rng, rng.randint(3, 9), 3)
        members = set(depset.dependent_vertices(inst))
        if len(members) > 4:
            continue
        _, net = depset.solve_bnsl_depset(inst)
        for u, v in net.arcs:
            assert v in members  # arcs only end in dependent vertices


def test_rule0_runs_before_the_dependents_are_counted():
    # seeded instances with dominated sets, half scored up to 2 (many
    # ties): the subset DP under the limit the pruned instance needs finds
    # the oracle's optimum with a valid witness, and rule 0 often leaves
    # fewer dependents than the input lists
    dominated = fewer = 0
    for seed in range(200):
        rng = random.Random(f"depset-rule0:{seed}")
        inst = generate.random_nonzero(rng, rng.randint(2, 8), rng.randint(0, 3),
                                       2 if seed % 2 else 8, connected=seed % 3 != 0,
                                       exact_fen=False, extra_sets=rng.uniform(0.7, 2.5))
        pruned = NonZeroInstance(inst.n, inst.names, {
            v: kernel.drop_dominated(sets) for v, sets in inst.entries.items()})
        dominated += pruned.entries != inst.entries
        k = len(depset.dependent_vertices(pruned))
        fewer += k < len(depset.dependent_vertices(inst))
        best, net = depset.solve_bnsl_depset(inst, max_dependent=k)
        assert best == oracle.exact_bnsl(inst)[0] == score_of(inst, net)
        assert validate(net, "dag").ok
        if k:
            with pytest.raises(depset.TooManyDependentError):
                depset.solve_bnsl_depset(inst, max_dependent=k - 1)
    assert dominated >= 150 and fewer >= 20, (dominated, fewer)


def test_a_dependent_with_dominated_sets_only_is_no_dependent(capsys, tmp_path):
    # six dependents and a seventh whose sets all score at most its empty
    # set: `--max-dependent 6` solves it, to the oracle's optimum
    inst = generate.random_limited_dependents(random.Random(1), 12, 6)
    members = depset.dependent_vertices(inst)
    v = next(x for x in range(inst.n) if x not in members)
    entries = dict(inst.entries)
    entries[v] = {frozenset(): 6, frozenset(members[:1]): 4, frozenset(members[:2]): 6}
    inst = NonZeroInstance(inst.n, inst.names, entries)
    assert len(depset.dependent_vertices(inst)) == 7
    p = tmp_path / "d7.scores"
    p.write_text(write_nonzero(inst))
    code = cli.main(["solve", str(p), "--algo", "depset", "--max-dependent", "6"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (0, f"max_score={oracle.exact_bnsl(inst)[0]}\n", "")
