import gc
import io
import json
import random
import re
import sys
import time

import pytest

from bnsl import cli, generate, graphs, kernel, lfen_dp, oracle
from bnsl.instances import (
    AdditiveInstance,
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
)
from reference import rising_scores


@pytest.fixture
def example_file(tmp_path, example4_text):
    p = tmp_path / "ex.scores"
    p.write_text(example4_text)
    return str(p)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_yes(capsys, example_file):
    code, out, _ = run(capsys, "solve", example_file, "--target", "6")
    assert code == 0
    assert out.strip() == "max_score=7 answer=YES"


def test_solve_no(capsys, example_file):
    code, out, _ = run(capsys, "solve", example_file, "--target", "8")
    assert code == 1
    assert out.strip() == "max_score=7 answer=NO"


def test_solve_no_target(capsys, example_file):
    code, out, _ = run(capsys, "solve", example_file)
    assert code == 0 and out.strip() == "max_score=7"


@pytest.mark.parametrize("algo", ["oracle", "lfen", "kernel-lfen", "depset"])
def test_solve_algorithms_agree(capsys, example_file, algo):
    code, out, _ = run(capsys, "solve", example_file, "--algo", algo)
    assert code == 0 and out.strip() == "max_score=7"


def test_solve_writes_solution(capsys, example_file, tmp_path, example4):
    out_file = tmp_path / "sol.txt"
    code, _, _ = run(capsys, "solve", example_file, "--out", str(out_file))
    assert code == 0
    net = parse_solution(out_file.read_text(), example4)
    assert score_of(example4, net) == 7 and validate(net, "dag").ok


def test_rep_algo_mismatch_is_usage_error(capsys, example_file, tmp_path):
    code, _, err = run(capsys, "solve", example_file, "--algo", "twdp")
    assert code == 2 and "additive" in err
    # structure files only the other algorithm reads are never dropped silently
    tree = tmp_path / "tree.txt"
    tree.write_text("a b\nb d\nc d\n")
    td = tmp_path / "td.txt"
    td.write_text("b 0 a b c d\n")
    for argv in (("--tree", str(tree)), ("--algo", "oracle", "--td", str(td)),
                 ("--algo", "lfen", "--max-dependent", "3")):
        code, out, err = run(capsys, "solve", example_file, *argv)
        assert code == 2 and out == "" and argv[-2] in err
    with pytest.raises(SystemExit) as exc:  # argparse rejects unknown flags
        cli.main(["solve", example_file, "--threads", "2"])
    assert exc.value.code == 2


def test_rep_is_a_gen_option_only(capsys, example_file):
    # the other subcommands read the representation off the file header
    for argv in (["solve", example_file], ["kernelize", example_file],
                 ["params", example_file], ["verify", example_file, example_file]):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--rep", "nonzero"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --rep nonzero" in capsys.readouterr().err
    code, out, _ = run(capsys, "gen", "--n", "3", "--seed", "1", "--rep", "nonzero")
    assert code == 0 and out


def test_wrong_solver_result_is_internal_error(capsys, example_file, monkeypatch):
    from bnsl import lfen_dp
    from bnsl.instances import Network

    real = lfen_dp.solve_bnsl_lfen

    def wrong_score(*args):
        score, net = real(*args)
        return score + 1, net

    monkeypatch.setattr(lfen_dp, "solve_bnsl_lfen", wrong_score)
    code, out, err = run(capsys, "solve", example_file, "--algo", "lfen")
    assert code == 3 and out == "" and err.startswith("error: internal:")
    cyclic = Network(4, frozenset({(0, 1), (1, 0)}))
    monkeypatch.setattr(lfen_dp, "solve_bnsl_lfen", lambda *a: (0, cyclic))
    code, out, err = run(capsys, "solve", example_file, "--algo", "lfen")
    assert code == 3 and out == "" and "invalid network" in err


@pytest.mark.parametrize("error", [RuntimeError("broken invariant"), RecursionError("too deep"),
                                   MemoryError("out of memory")])
def test_solver_runtime_error_is_internal_error(capsys, example_file, monkeypatch, error):
    from bnsl import lfen_dp

    def broken(*args):
        raise error

    monkeypatch.setattr(lfen_dp, "solve_bnsl_lfen", broken)
    code, out, err = run(capsys, "solve", example_file, "--algo", "lfen")
    assert code == 3 and out == ""
    assert err.startswith("error: internal:") and str(error) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_main_leaves_the_collector_as_it_found_it(capsys, example_file, tmp_path, monkeypatch,
                                                  enabled):
    # main runs each command with the cyclic collector off and gives the
    # caller back its own setting, however the command ends
    bad = tmp_path / "bad.scores"
    bad.write_text("2\nx 0\n")

    def broken(*args):
        raise RuntimeError("broken invariant")

    def main(*argv):
        try:
            code = cli.main(list(argv))
        except SystemExit as e:
            code = f"SystemExit {e.code}"
        return code, gc.isenabled()

    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        codes = [
            main("solve", example_file),
            main("params", example_file, "--budget", "-1"),  # CliError
            main("solve", str(bad)),  # ParseError
            main("solve", example_file, "--threads", "2"),  # argparse
        ]
        monkeypatch.setattr(lfen_dp, "solve_bnsl_lfen", broken)
        codes.append(main("solve", example_file, "--algo", "lfen"))
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()
    assert codes == [(code, enabled) for code in (0, 2, 2, "SystemExit 2", 3)]


def test_matroid_without_convergence_is_internal_error(capsys, tmp_path, monkeypatch):
    from bnsl import polytree

    monkeypatch.setattr(polytree, "_node_costs", lambda items, in_set: [-1] * len(items))
    p = tmp_path / "a.inst"
    # a triangle: the matroid runs on the 2-core, and a path has none
    p.write_text("additive 3\nb a 2\nc b 1\na c 1\n")
    code, out, err = run(capsys, "solve", str(p), "--mode", "polytree",
                         "--max-parents", "2")
    assert code == 3 and out == ""
    assert err.startswith("error: internal:") and "did not converge" in err


def test_long_additive_path_solves(capsys, tmp_path):
    # a 1500-vertex chain gives a 1500-level decomposition tree; building
    # its nice form once recursed per level (the solve folds the chain away
    # and decomposes nothing; the 20 000-cycle below builds such a
    # decomposition)
    rng = random.Random(15)
    n = 1500
    lines, best = [f"additive {n}"], 0
    for i in range(1, n):
        fwd, bwd = rng.sample([rng.randint(1, 9), rng.randint(0, 9)], 2)  # one arc at least
        if fwd:
            lines.append(f"x{i} x{i - 1} {fwd}")
        if bwd:
            lines.append(f"x{i - 1} x{i} {bwd}")
        best += max(0, fwd, bwd)
    p = tmp_path / "chain.inst"
    p.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "solve", str(p))
    assert code == 0, err
    assert out.strip() == f"max_score={best}"


def test_empty_core_info_line(capsys, tmp_path):
    # a path has no 2-core: the fold solves it alone, and the info line
    # reports the empty decomposition of the empty core
    g = Superstructure(8, [(v, v + 1) for v in range(7)])
    inst = generate.additive_for_graph(random.Random(8), g, q=1)
    p = tmp_path / "path.inst"
    p.write_text(write_additive(inst))
    inst = parse_additive(p.read_text())
    for mode, exact in (("bnsl", oracle.exact_bnsl), ("polytree", oracle.exact_pl)):
        code, out, err = run(capsys, "solve", str(p), "--mode", mode, "--algo", "twdp")
        assert code == 0, err
        assert err.strip() == "width=-1 core=0"
        assert out.strip() == f"max_score={exact(inst)[0]}"


SCALE_N = 20_000
SCALE_EDGES = {
    "path": [(v, v + 1) for v in range(SCALE_N - 1)],
    "star": [(0, v) for v in range(1, SCALE_N)],
    "cycle": [(v, (v + 1) % SCALE_N) for v in range(SCALE_N)],
}
# seconds per solve; on a shared 2-core VM the bag DP took 0.6-0.7 s (path
# and star), whose trees fold away completely (core=0, so nothing is
# decomposed; 1.2-1.3 s while min-fill decomposed the whole graph, 2.4 and
# 4.6 s before the fold), and 2.3-2.9 s (cycle, all core); the forest
# solver 0.2-0.3 s
SCALE_RUNS = (
    (("--algo", "twdp"), 25.0),
    (("--mode", "polytree", "--algo", "mst"), 5.0),
)


@pytest.mark.parametrize("shape", sorted(SCALE_EDGES))
def test_additive_shapes_at_scale(capsys, tmp_path, shape):
    # 20 000-vertex path, star and cycle through the bag DP and the forest
    # solver; a min-fill rescan is cubic on the star
    g = Superstructure(SCALE_N, SCALE_EDGES[shape])
    inst = generate.additive_for_graph(random.Random(shape), g)
    p = tmp_path / f"{shape}.inst"
    p.write_text(write_additive(inst))
    gains = [max(0, inst.arc(a, b), inst.arc(b, a)) for a, b in g.edges]
    if shape == "cycle":
        best, _ = lfen_dp.solve_bnsl_lfen(to_nonzero(inst), graphs.feedback_edge_set(g))
        forest_best = sum(gains) - min(gains)  # a forest drops one cycle edge
    else:
        best = forest_best = sum(gains)
    for extra, bound in SCALE_RUNS:
        start = time.perf_counter()
        code, out, err = run(capsys, "solve", str(p), *extra)
        elapsed = time.perf_counter() - start
        assert code == 0, err
        want = forest_best if "mst" in extra else best
        assert out.strip() == f"max_score={want}"
        assert elapsed < bound, (extra, elapsed)


def test_near_tree_with_bound_at_scale(capsys, tmp_path):
    # a random 20 000-vertex tree plus 3 edges, q=2, through the bag DP in
    # both modes.  On a shared 2-core VM each solve took 0.6-0.8 s (core=42)
    # with min-fill on the core alone, 1.6-1.8 s on the whole graph with
    # the pendant trees folded, 6.1-7.4 s without
    rng = random.Random("near-tree")
    edges = {(rng.randrange(v), v) for v in range(1, SCALE_N)}
    while len(edges) < SCALE_N + 2:
        a, b = sorted(rng.sample(range(SCALE_N), 2))
        edges.add((a, b))
    g = Superstructure(SCALE_N, edges)
    inst = generate.additive_for_graph(rng, g, q=2)
    p = tmp_path / "near.inst"
    p.write_text(write_additive(inst))
    # the record DP on the explicit form over a BFS tree as the reference
    explicit = to_nonzero(inst, max_degree=max(g.degree(v) for v in range(g.n)))
    forest = graphs.feedback_edge_set(g)
    for mode, reference in (("bnsl", lfen_dp.solve_bnsl_lfen), ("polytree", lfen_dp.solve_pl_lfen)):
        best, _ = reference(explicit, forest)
        start = time.perf_counter()
        code, out, err = run(capsys, "solve", str(p), "--mode", mode, "--algo", "twdp")
        elapsed = time.perf_counter() - start
        assert code == 0, err
        assert out.strip() == f"max_score={best}"
        assert err.strip() == "width=2 core=42"
        assert elapsed < 5.0, (mode, elapsed)


def test_polytree_record_dp_with_many_open_children(capsys, tmp_path):
    # the kernel leaves 18 vertices with lfen 4, and the polytree record
    # tables of the whole instance peak at 148 entries, the most of seeds
    # 1-300.  On a like instance (kernel 19, lfen 4, from a generator that
    # drew other extra edges) combining the full product of all open
    # children's tables took 51-55 s on the default path and 44-55 s with
    # --algo lfen on a shared 2-core VM; folding the children one at a time
    # takes well under a second
    code, text, err = run(capsys, "gen", "--n", "40", "--fen", "4", "--subdivide", "10",
                          "--seed", "1")
    assert code == 0, err
    p = tmp_path / "s8.scores"
    p.write_text(text)
    for extra in ((), ("--algo", "lfen")):
        start = time.perf_counter()
        code, out, err = run(capsys, "solve", str(p), "--mode", "polytree", *extra)
        elapsed = time.perf_counter() - start
        assert code == 0, err
        assert out.strip() == "max_score=177"
        assert elapsed < 10.0, (extra, elapsed)


def test_mst_with_bound_rejected(capsys, tmp_path):
    p = tmp_path / "a.inst"
    p.write_text("additive 3\nb a 2\nc b 1\n")
    code, _, err = run(capsys, "solve", str(p), "--mode", "polytree",
                       "--algo", "mst", "--max-parents", "1")
    assert code == 2 and "matroid" in err


def test_additive_auto_routes(capsys, tmp_path):
    p = tmp_path / "a.inst"
    p.write_text("additive 3\nb a 2\nc b 1\n")
    code, out, _ = run(capsys, "solve", str(p))
    assert code == 0 and out.strip() == "max_score=3"
    code, out, _ = run(capsys, "solve", str(p), "--mode", "polytree")
    assert code == 0 and out.strip() == "max_score=3"
    code, out, _ = run(capsys, "solve", str(p), "--mode", "polytree",
                       "--max-parents", "1")
    assert code == 0 and out.strip() == "max_score=3"


def test_malformed_file_is_error(capsys, tmp_path):
    p = tmp_path / "bad.scores"
    p.write_text("2\na 1\n1 1 zz\nb 0\n")
    code, _, err = run(capsys, "solve", str(p))
    assert code == 2 and "line 3" in err


def test_params_output(capsys, example_file):
    code, out, _ = run(capsys, "params", example_file)
    assert code == 0
    assert out.strip() == "fen=2 lfen<=2 exact tw<=2"


def test_params_witness_lists_tree(capsys, example_file):
    code, out, _ = run(capsys, "params", example_file, "--witness")
    lines = out.strip().splitlines()
    assert len(lines) == 4  # summary + 3 tree edges
    assert all(len(line.split()) == 2 for line in lines[1:])


def test_params_budget_counts_trees(capsys, example_file):
    # the example has 8 spanning trees, 3 of which hold its chain forest
    # (the edges a-b and b-d): a budget of 3 enumerates those, a smaller
    # one runs the local search
    code, out, _ = run(capsys, "params", example_file, "--budget", "3")
    assert code == 0 and out.strip() == "fen=2 lfen<=2 exact tw<=2"
    code, out, _ = run(capsys, "params", example_file, "--budget", "2")
    assert code == 0 and out.strip() == "fen=2 lfen<=2 tw<=2"


def test_params_negative_budget_is_usage_error(capsys, example_file):
    code, out, err = run(capsys, "params", example_file, "--budget", "-1")
    assert code == 2 and out == ""
    assert err.strip() == "error: --budget must be at least 0"


def test_verify_valid(capsys, example_file, tmp_path):
    sol = tmp_path / "sol.txt"
    sol.write_text("b <- a c\nc <- a\nd <- b c\n")
    code, out, _ = run(capsys, "verify", example_file, str(sol))
    assert code == 0 and out.strip() == "valid score=7"


def test_verify_detects_cycle(capsys, example_file, tmp_path):
    sol = tmp_path / "sol.txt"
    sol.write_text("a <- b\nb <- c\nc <- a\n")
    code, out, _ = run(capsys, "verify", example_file, str(sol))
    assert code == 1 and out.startswith("invalid")


def test_verify_polytree_mode(capsys, example_file, tmp_path):
    sol = tmp_path / "sol.txt"
    sol.write_text("b <- a c\nc <- a\nd <- b c\n")
    code, out, _ = run(capsys, "verify", example_file, str(sol),
                       "--mode", "polytree")
    assert code == 1 and "skeleton" in out


def test_verify_mode_dag_is_bnsl(capsys, example_file, tmp_path):
    # verify takes --mode bnsl|polytree as solve and kernelize do; dag, its
    # old spelling, prints the same, and so does the default
    sol = tmp_path / "sol.txt"
    for text in ("b <- a c\nc <- a\nd <- b c\n", "a <- b\nb <- c\nc <- a\n"):
        sol.write_text(text)
        results = [run(capsys, "verify", example_file, str(sol), *mode)
                   for mode in (("--mode", "bnsl"), ("--mode", "dag"), ())]
        assert results[0] == results[1] == results[2]
    assert results[0][0] == 1 and results[0][1].startswith("invalid: directed cycle")
    with pytest.raises(SystemExit):
        cli.main(["verify", "--help"])
    assert "--mode {bnsl,polytree}" in capsys.readouterr().out


def test_verify_refuses_a_repeated_parent(capsys, tmp_path):
    # a parent named twice on one line is invalid input, not one arc
    inst = tmp_path / "three.scores"
    inst.write_text("3\na 1\n5 1 b\nb 0\nc 0\n")
    sol = tmp_path / "sol.txt"
    sol.write_text("a <- b b\n")
    assert run(capsys, "verify", str(inst), str(sol)) == (
        2, "", "error: line 1: parent 'b' repeated\n")


def test_parser_is_built_once_and_keeps_no_state(capsys, example_file, tmp_path):
    # main reuses one parser per process: each call prints and returns what
    # it would on a freshly built parser, whatever the call before it set
    assert cli.build_parser() is cli.build_parser()
    tree = tmp_path / "tree.txt"
    tree.write_text("a b\nb d\nc d\n")
    calls = [
        ["solve", example_file, "--threads", "2"],  # argparse usage error
        ["solve", example_file],
        ["solve", example_file, "--target", "1"],
        ["solve", example_file],
        ["solve", example_file, "--algo", "lfen", "--tree", str(tree)],
        ["solve", example_file, "--algo", "auto"],
    ]

    def outcome(argv):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = f"SystemExit {e.code}"
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    reused = [outcome(argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == ["SystemExit 2", 0, 0, 0, 0, 0]
    assert reused[2][1] == "max_score=7 answer=YES\n" and reused[3][1] == "max_score=7\n"
    # the supplied tree's value, then auto's kernel and its own tree search
    assert (reused[4][2], reused[5][2]) == ("fen=2 lfen<=2\n", "kernel_n=4 fen=2 lfen<=2 exact\n")


def test_gen_deterministic(capsys):
    code1, out1, _ = run(capsys, "gen", "--n", "8", "--fen", "2", "--seed", "5")
    code2, out2, _ = run(capsys, "gen", "--n", "8", "--fen", "2", "--seed", "5")
    assert code1 == code2 == 0 and out1 == out2
    inst = parse_nonzero(out1)
    assert inst.n == 8


def test_gen_additive(capsys):
    code, out, _ = run(capsys, "gen", "--rep", "additive", "--n", "5",
                       "--fen", "1", "--seed", "3", "--max-parents", "2")
    assert code == 0
    assert out.startswith("additive 5 2")


def test_kernelize_roundtrip(capsys, tmp_path):
    inst_file = tmp_path / "inst.scores"
    code, out, _ = run(capsys, "gen", "--n", "12", "--fen", "2", "--seed", "42",
                       "--subdivide", "7")
    inst_file.write_text(out)
    red_file = tmp_path / "red.scores"
    map_file = tmp_path / "lift.json"
    sol_file = tmp_path / "red.sol"
    for mode in ("bnsl", "polytree"):
        code, _, err = run(capsys, "kernelize", str(inst_file), "--mode", mode,
                           "--out", str(red_file), "--map", str(map_file))
        assert code == 0 and "reduced_n=" in err
        code, _, _ = run(capsys, "solve", str(red_file), "--algo", "oracle",
                         "--mode", mode, "--out", str(sol_file))
        assert code == 0
        code, out, _ = run(capsys, "verify", str(inst_file), str(sol_file),
                           "--mode", mode, "--lift", str(map_file),
                           "--reduced-instance", str(red_file))
        assert code == 0 and out.startswith("valid score=")
        lifted_score = int(out.strip().split("=")[1])
        code, out, _ = run(capsys, "solve", str(inst_file), "--algo", "oracle",
                           "--mode", mode)
        assert int(out.strip().split("=")[1]) == lifted_score


def test_lift_ignores_vertex_map_key(capsys, tmp_path):
    # maps once carried a "vertex_map" field that nothing read; one that
    # still has it lifts as one without it
    inst_file, red_file = str(tmp_path / "inst.scores"), str(tmp_path / "red.scores")
    map_file, sol_file = tmp_path / "lift.json", str(tmp_path / "red.sol")
    assert run(capsys, "gen", "--n", "40", "--fen", "2", "--seed", "3",
               "--subdivide", "25", "--out", inst_file)[0] == 0
    for mode in ("bnsl", "polytree"):
        assert run(capsys, "kernelize", inst_file, "--mode", mode, "--out", red_file,
                   "--map", str(map_file))[0] == 0
        assert run(capsys, "solve", red_file, "--mode", mode, "--out", sol_file)[0] == 0
        written = json.loads(map_file.read_text())
        assert "vertex_map" not in written
        dense = {loose: int(d) for d, loose in written["loose_of_reduced"].items()}
        old = {"original_n": written["original_n"],
               "vertex_map": {str(v): dense.get(v) for v in range(written["original_n"])},
               **written}
        outs = []
        for text in (json.dumps(written, indent=1), json.dumps(old, indent=1)):
            map_file.write_text(text)
            code, out, _ = run(capsys, "verify", inst_file, sol_file, "--mode", mode,
                               "--lift", str(map_file), "--reduced-instance", red_file)
            assert code == 0 and out.startswith("valid score=")
            outs.append(out)
        assert outs[0] == outs[1]


def test_additive_reduced_instance_is_invalid_input(capsys, tmp_path, example_file):
    red_file, map_file = str(tmp_path / "red.scores"), str(tmp_path / "lift.json")
    assert run(capsys, "gen", "--rep", "additive", "--n", "4", "--fen", "1",
               "--seed", "1", "--out", red_file)[0] == 0
    assert run(capsys, "kernelize", example_file, "--out", str(tmp_path / "k.scores"),
               "--map", map_file)[0] == 0
    code, out, err = run(capsys, "verify", example_file, str(tmp_path / "sol.txt"),
                         "--lift", map_file, "--reduced-instance", red_file)
    assert code == 2 and out == ""
    assert err.startswith("error: --reduced-instance")


def _rule2_step(lift_map):
    return next(step for step in lift_map["steps"] if step["rule"] == 2)


@pytest.mark.parametrize("lift_map", [
    "{}",
    "[1]",
    '{"original_n": 3, "vertex_map": {}, "loose_of_reduced": {}, "steps": []}',
    '{"original_n": 4, "vertex_map": {}, "loose_of_reduced": {"0": 0, "1": 1, "2": 2,'
    ' "3": 3}, "steps": [{"rule": 7, "a": 0, "c": 1, "inner": [2], "b": 3, "configs": {}}]}',
    '{"original_n": 4, "vertex_map": {}, "loose_of_reduced": {"0": 0, "1": 1, "2": 2,'
    ' "3": 3}, "steps": [{"rule": 2, "configs": {}}]}',
    lambda m: _rule2_step(m).update(configs={}),
    lambda m: _rule2_step(m).update(inner=[]),
    lambda m: m.update(original_n="x"),
    lambda m: m.update(loose_of_reduced=dict.fromkeys(m["loose_of_reduced"], 10**6)),
    lambda m: _rule2_step(m).update(a=10**6),
], ids=["empty-object", "not-an-object", "reduced-unmapped", "unknown-rule", "missing-field",
        "rule2-configs-empty", "rule2-inner-empty", "original-n-not-int", "loose-not-a-vertex",
        "rule2-anchor-not-a-vertex"])
def test_malformed_lift_map_is_invalid_input(capsys, tmp_path, example_file, lift_map):
    # a map text for the worked example, or an edit of the map `kernelize`
    # writes for an instance whose kernel has a rule-2 step
    inst_file = red_file = example_file
    map_file = tmp_path / "lift.json"
    if callable(lift_map):
        inst_file, red_file = str(tmp_path / "inst.scores"), str(tmp_path / "red.scores")
        assert run(capsys, "gen", "--n", "40", "--fen", "2", "--seed", "3",
                   "--subdivide", "25", "--out", inst_file)[0] == 0
        assert run(capsys, "kernelize", inst_file, "--out", red_file,
                   "--map", str(map_file))[0] == 0
        edited = json.loads(map_file.read_text())
        lift_map(edited)
        lift_map = json.dumps(edited)
    sol_file = tmp_path / "sol.txt"
    assert run(capsys, "solve", red_file, "--out", str(sol_file))[0] == 0
    map_file.write_text(lift_map)
    code, out, err = run(capsys, "verify", inst_file, str(sol_file),
                         "--lift", str(map_file), "--reduced-instance", red_file)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "map" in err


@pytest.mark.parametrize("argv", [
    ["solve", "{inst}", "--target", "5"],
    ["solve", "{inst}", "--mode", "polytree"],
    ["verify", "{inst}", "{sol}"],
    ["verify", "{inst}", "{sol}", "--mode", "polytree"],
], ids=["solve-target", "solve-polytree", "verify", "verify-polytree"])
def test_score_overflow_is_invalid_input(capsys, tmp_path, argv):
    inst = tmp_path / "inst.scores"
    inst.write_text("additive 3\nb a 9223372036854775807\nc b 9223372036854775807\n")
    sol = tmp_path / "sol.txt"
    sol.write_text("b <- a\nc <- b\n")
    code, out, err = run(capsys, *[a.format(inst=inst, sol=sol) for a in argv])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "2^63-1" in err


@pytest.mark.parametrize("argv, flag", [
    (["--n", "6", "--fen", "-1"], "--fen"),
    (["--n", "0"], "--n"),
    (["--n", "-5"], "--n"),
    (["--n", "5", "--subdivide", "-3"], "--subdivide"),
    (["--n", "5", "--subdivide", "4"], "--subdivide"),
    (["--n", "5", "--subdivide", "9"], "--subdivide"),
    (["--n", "5", "--max-score", "0"], "--max-score"),
    (["--n", "5", "--rep", "additive", "--subdivide", "2"], "--subdivide"),
    (["--n", "5", "--rep", "nonzero", "--max-parents", "2"], "--max-parents"),
], ids=["fen-negative", "n-zero", "n-negative", "subdivide-negative", "subdivide-n-minus-1",
        "subdivide-above-n", "max-score-zero", "subdivide-additive", "max-parents-nonzero"])
def test_gen_rejects_arguments_it_cannot_honour(capsys, argv, flag):
    code, out, err = run(capsys, "gen", "--seed", "1", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and flag in err


def test_solve_with_supplied_tree(capsys, example_file, tmp_path):
    tree = tmp_path / "tree.txt"
    tree.write_text("a b\nb d\nc d\n")
    code, out, _ = run(capsys, "solve", example_file, "--algo", "lfen",
                       "--tree", str(tree))
    assert code == 0 and out.strip() == "max_score=7"


def test_supplied_tree_with_cycle_is_usage_error(capsys, tmp_path):
    # every superstructure edge of a 12-vertex fen-2 instance: not a forest
    code, text, _ = run(capsys, "gen", "--n", "12", "--fen", "2", "--seed", "3")
    assert code == 0
    p = tmp_path / "inst.scores"
    p.write_text(text)
    inst = parse_nonzero(text)
    tree = tmp_path / "tree.txt"
    tree.write_text("".join(f"{inst.names[a]} {inst.names[b]}\n"
                            for a, b in sorted(superstructure(inst).edges)))
    code, out, err = run(capsys, "solve", str(p), "--algo", "lfen", "--tree", str(tree))
    assert code == 2 and out == "" and "cycle" in err


def pendant_tree_instance(capsys, tmp_path):
    """gen --n 40 --fen 3 --seed 5 (20 leaves) with its BFS forest."""
    code, text, _ = run(capsys, "gen", "--n", "40", "--fen", "3", "--seed", "5")
    assert code == 0
    p = tmp_path / "p40.scores"
    p.write_text(text)
    inst = parse_nonzero(text)
    g = superstructure(inst)
    return p, inst, g, graphs.feedback_edge_set(g)


def write_tree(path, inst, edges):
    path.write_text("".join(f"{inst.names[a]} {inst.names[b]}\n" for a, b in sorted(edges)))


def test_supplied_tree_with_pendant_trees(capsys, tmp_path):
    # --algo lfen absorbs the 20 leaves and their pendant trees, drops the
    # edges only dominated sets used, and cuts the supplied forest to the
    # vertices and edges it keeps: the score of the record DP over the
    # whole forest of the whole instance, and the info line of the cut
    # forest, completed, on the reduced instance (one of the 3 cycles left)
    p, inst, g, forest = pendant_tree_instance(capsys, tmp_path)
    assert sum(g.degree(v) == 1 for v in range(g.n)) == 20
    tree = tmp_path / "p40.tree"
    write_tree(tree, inst, forest.tree_edges)
    result = kernel.absorb_leaves(inst)
    gr = superstructure(result.reduced)
    dense = {loose: i for i, loose in result.loose_of_reduced.items()}
    kept = {(dense[a], dense[b]) for a, b in forest.tree_edges if a in dense and b in dense}
    cut = graphs.forest_from_edges(gr, graphs.complete_forest(gr, kept & gr.edges))
    info = f"fen={len(cut.feedback_edges)} lfen<={graphs.lfen_of_tree(gr, cut).value}"
    for mode, solve in (("bnsl", lfen_dp.solve_bnsl_lfen), ("polytree", lfen_dp.solve_pl_lfen)):
        sol = tmp_path / f"p40-{mode}.sol"
        code, out, err = run(capsys, "solve", str(p), "--mode", mode, "--algo", "lfen",
                             "--tree", str(tree), "--out", str(sol))
        assert code == 0, err
        assert out.strip() == f"max_score={solve(inst, forest)[0]}" == "max_score=168"
        assert err.strip() == info == "fen=1 lfen<=1"
        net = parse_solution(sol.read_text(), inst)
        assert validate(net, "polytree" if mode == "polytree" else "dag").ok
        assert score_of(inst, net) == 168


def test_supplied_bfs_trees_lose_edges_to_rule_0(capsys, tmp_path):
    # rule 0 may drop an edge of a supplied tree between two vertices that
    # the reduction keeps, and leave the rest short of spanning; the tree is
    # cut to the edges kept and completed to a spanning forest.  Taken as
    # cut, 34 of these 200 BFS forests would be refused (18 with "tree edge
    # (...) not in the graph", 16 as not spanning); each one solves to the
    # optimum that auto (kernel-lfen) finds without it
    refused = 0
    p, tree = tmp_path / "s.scores", tmp_path / "s.tree"
    for seed in range(200):
        inst = generate.random_nonzero(random.Random(seed), 30, 3, subdivisions=10)
        forest = graphs.feedback_edge_set(superstructure(inst))
        result = kernel.absorb_leaves(inst)
        dense = {loose: i for i, loose in result.loose_of_reduced.items()}
        cut = {(dense[a], dense[b]) for a, b in forest.tree_edges if a in dense and b in dense}
        try:
            graphs.forest_from_edges(superstructure(result.reduced), cut)
        except ValueError:
            refused += 1
        p.write_text(write_nonzero(inst))
        write_tree(tree, inst, forest.tree_edges)
        for mode in ("bnsl", "polytree") if seed % 4 == 0 else ("bnsl",):
            code, out, err = run(capsys, "solve", str(p), "--mode", mode, "--algo", "lfen",
                                 "--tree", str(tree))
            assert code == 0, err
            assert out == run(capsys, "solve", str(p), "--mode", mode)[1]
    assert refused == 34


def test_supplied_tree_is_checked_against_the_input(capsys, tmp_path):
    # a forest that leaves a pendant edge out, or takes a non-edge at a
    # leaf, names vertices that rule 1 removes; it is refused all the same,
    # with the message of the whole superstructure's check
    p, inst, g, forest = pendant_tree_instance(capsys, tmp_path)
    leaf = min(v for v in range(g.n) if g.degree(v) == 1)
    stranger = min(v for v in range(g.n) if v != leaf and v not in g.adj[leaf])
    pendant = next(e for e in sorted(forest.tree_edges) if leaf in e)
    bad = (min(leaf, stranger), max(leaf, stranger))
    cases = (
        (forest.tree_edges - {pendant}, "error: edge set does not span every component"),
        (forest.tree_edges | {bad}, f"error: tree edge ({bad[0]},{bad[1]}) not in the graph"),
    )
    tree = tmp_path / "bad.tree"
    for edges, message in cases:
        write_tree(tree, inst, edges)
        for mode in ("bnsl", "polytree"):
            code, out, err = run(capsys, "solve", str(p), "--mode", mode, "--algo", "lfen",
                                 "--tree", str(tree))
            assert (code, out, err.strip()) == (2, "", message)


def test_lfen_on_a_long_near_tree(capsys, tmp_path):
    # 1500 vertices, cycle rank 1: rule 1 absorbs every pendant tree, and
    # the cycle it leaves loses an edge that only dominated sets used, so
    # the rest is absorbed as well (the cycle stayed before rule 0, and its
    # search on the whole graph ran out of stack: RecursionError, exit 3)
    code, text, _ = run(capsys, "gen", "--n", "1500", "--fen", "1", "--seed", "1")
    assert code == 0
    p = tmp_path / "nt.scores"
    p.write_text(text)
    for mode in ("bnsl", "polytree"):
        code, out, err = run(capsys, "solve", str(p), "--mode", mode, "--algo", "lfen")
        assert code == 0, err
        assert out.strip() == "max_score=6955"
        assert err.strip() == "fen=0 lfen<=0 exact"


def test_lfen_on_one_long_cycle(capsys, tmp_path):
    # a 1500-cycle: each of its 1500 spanning trees drops one edge and
    # scores 1, so the search takes the tree without the largest edge.
    # Enumerating them ran out of stack (RecursionError, exit 3)
    # Rule 0 drops an edge of the cycle, so `--algo lfen` searches it only
    # with every set scoring above its subsets (`rising_scores`)
    n = 1500
    g = Superstructure(n, [(v, (v + 1) % n) for v in range(n)])
    inst = generate.scores_for_graph(random.Random(1), g)
    for scores, best, fen in ((inst, 7295, 0), (rising_scores(inst), 18952, 1)):
        p = tmp_path / "cycle.scores"
        p.write_text(write_nonzero(scores))
        assert run(capsys, "params", str(p)) == (0, "fen=1 lfen<=1 exact tw<=2\n", "")
        code, out, err = run(capsys, "solve", str(p))
        assert (code, out) == (0, f"max_score={best}\n"), err
        for mode in ("bnsl", "polytree"):
            code, out, err = run(capsys, "solve", str(p), "--mode", mode, "--algo", "lfen")
            assert (code, out, err) == (0, f"max_score={best}\n", f"fen={fen} lfen<={fen} exact\n")


def test_lfen_on_long_chains(capsys, tmp_path):
    # two cycles of 10 and 1500 edges through vertex 0 ("fig8"), paths of
    # 1000, 10 and 1 edges between vertices 0 and 1 ("theta3"), and an
    # n=1500 near-tree with two extra edges: the exact search branches on
    # each 2-core chain's largest edge only.  Branching on every edge ran
    # out of stack in params on all three (RecursionError, exit 3).  Rule 0
    # cuts the chains `--algo lfen` would search, but those of fig8 and
    # theta3 with every set scoring above its subsets (`rising_scores`)
    # stay whole
    def path(a, b, inner):
        vs = [a, *inner, b]
        return list(zip(vs, vs[1:]))

    fig8 = Superstructure(1509, path(0, 0, range(1, 10)) + path(0, 0, range(10, 1509)))
    theta3 = Superstructure(1010, path(0, 1, range(2, 1001)) + path(0, 1, range(1001, 1010))
                            + [(0, 1)])
    code, near_tree, _ = run(capsys, "gen", "--n", "1500", "--fen", "2", "--seed", "1")
    assert code == 0
    fig8, theta3 = (generate.scores_for_graph(random.Random(1), g) for g in (fig8, theta3))
    # (name, file, best score per mode, fen the lfen solve reports)
    for name, text, best, fen in (
        ("fig8", write_nonzero(fig8), (7365, 7365), 0),
        ("theta3", write_nonzero(theta3), (4936, 4936), 1),
        ("nt2", near_tree, (6852, 6852), 0),
        ("fig8-rising", write_nonzero(rising_scores(fig8)), (19100, 19096), 2),
        ("theta3-rising", write_nonzero(rising_scores(theta3)), (12808, 12800), 2),
    ):
        p = tmp_path / f"{name}.scores"
        p.write_text(text)
        assert run(capsys, "params", str(p)) == (0, "fen=2 lfen<=2 exact tw<=2\n", ""), name
        for mode, score in zip(("bnsl", "polytree"), best):
            code, out, err = run(capsys, "solve", str(p), "--mode", mode, "--algo", "lfen")
            assert (code, out, err) == (0, f"max_score={score}\n",
                                        f"fen={fen} lfen<={fen} exact\n"), name


def test_empty_tree_path_is_invalid_input(capsys, example_file):
    # an empty --tree names no file; it is refused, not taken as absent
    code, out, err = run(capsys, "solve", example_file, "--algo", "lfen", "--tree", "")
    assert code == 2 and out == "" and err.startswith("error:")


def test_empty_td_path_is_invalid_input(capsys, tmp_path):
    p = tmp_path / "a.inst"
    p.write_text("additive 3\nb a 2\nc b 1\n")
    code, out, err = run(capsys, "solve", str(p), "--algo", "twdp", "--td", "")
    assert code == 2 and out == "" and err.startswith("error:")


def test_solve_with_supplied_td(capsys, tmp_path):
    p = tmp_path / "a.inst"
    p.write_text("additive 3\nb a 2\nc b 1\n")
    td = tmp_path / "td.txt"
    td.write_text("b 0 a b\nb 1 b c\ne 0 1\n")
    code, out, _ = run(capsys, "solve", str(p), "--algo", "twdp",
                       "--td", str(td))
    assert code == 0 and out.strip() == "max_score=3"


def test_td_with_empty_bag(capsys, tmp_path):
    # a bag that lists no vertex is a valid bag; as a leaf of the raw tree
    # (under a path's decomposition, and under a triangle's one bag) it
    # covers nothing, and the solve prints the optimum
    p = tmp_path / "a.inst"
    td = tmp_path / "td.txt"
    for inst, text, best in (
        ("additive 3\nx1 x0 2\nx2 x1 1\n",
         "b 0 x0 x1\nb 1 x1 x2\nb 2\ne 0 1\ne 1 2\n", 3),
        ("additive 3\nx1 x0 2\nx2 x1 1\nx0 x2 1\n", "b 0 x0 x1 x2\nb 1\ne 0 1\n", 3),
        ("additive 3\nx1 x0 2\nx2 x1 1\nx0 x2 1\n",
         "b 0 x0 x1 x2\nb 1\nb 2\ne 0 1\ne 1 2\n", 3),
    ):
        p.write_text(inst)
        td.write_text(text)
        code, out, _ = run(capsys, "solve", str(p), "--algo", "twdp", "--td", str(td))
        assert code == 0 and out.strip() == f"max_score={best}"
    # bags that cover no vertex at all are a decomposition of nothing
    td.write_text("b 0\nb 1\ne 0 1\n")
    code, out, err = run(capsys, "solve", str(p), "--algo", "twdp", "--td", str(td))
    assert code == 2 and out == "" and "decomposition" in err


def test_bad_td_rejected(capsys, tmp_path):
    p = tmp_path / "a.inst"
    p.write_text("additive 3\nb a 2\nc b 1\n")
    td = tmp_path / "td.txt"
    for text, reason in (
        ("b 0 a b\nb 1 c\ne 0 1\n", "decomposition"),  # edge bc not covered
        ("b 1 a b\nb 2 b c\ne 1 2\ne 2 1\n", "root"),  # a cycle of tree edges
        ("b 1 a b c\ne 1 1\n", "root"),  # a bag its own parent
        ("b 0 a b\nb 0 b c\nb 2 c\ne 0 2\n", "td file line 2"),  # bag 0 declared twice
        ("b 0 a b\nb 1 b c\nb 2 b\ne 0 1\ne 2 1\n", "td file line 5"),  # two parents
        ("b x a b c\n", "td file line 1"),  # bag id not an integer
    ):
        td.write_text(text)
        code, _, err = run(capsys, "solve", str(p), "--algo", "twdp",
                           "--td", str(td))
        assert code == 2 and reason in err


def test_td_edge_to_undeclared_bag_names_line_and_bag(capsys, tmp_path):
    p = tmp_path / "a.inst"
    p.write_text("additive 3\nb a 2\nc b 1\n")
    td = tmp_path / "td.txt"
    for text, reason in (
        ("b 0 a b\nb 1 a c\ne 0 5\n", "td file line 3: edge references unknown bag 5"),
        ("b 0 a b c\ne 7 0\n", "td file line 2: edge references unknown bag 7"),
    ):
        td.write_text(text)
        code, out, err = run(capsys, "solve", str(p), "--algo", "twdp", "--td", str(td))
        assert code == 2 and out == "" and reason in err


def test_every_algorithm_mode_combination(capsys, tmp_path):
    # every forced (algorithm, mode) pair on explicit and additive input,
    # the additive with no in-degree bound and with q=1 and q=2, either
    # solves like the oracle with a valid witness or is a usage error that
    # names an algorithm solving the same input
    files = []
    for seed in (1, 2):
        # 5 explicit vertices stay within dependent-vertex branching's limit
        for rep, n, q in (("nonzero", 5, None), ("additive", 8, None), ("additive", 8, 1),
                          ("additive", 8, 2)):
            bound = () if q is None else ("--max-parents", str(q))
            code, text, err = run(capsys, "gen", "--rep", rep, "--n", str(n), "--fen", "3",
                                  "--seed", str(seed), *bound)
            assert code == 0, err
            p = tmp_path / f"{rep}{seed}{q}.scores"
            p.write_text(text)
            inst = parse_additive(text) if rep == "additive" else parse_nonzero(text)
            files.append((str(p), inst, q))
    sol = tmp_path / "sol.txt"
    for path, inst, q in files:
        for mode, check_mode in (("bnsl", "dag"), ("polytree", "polytree")):
            _, out, _ = run(capsys, "solve", path, "--mode", mode, "--algo", "oracle")
            best = out.strip()
            solved, refused = set(), {}
            for algo in ("kernel-lfen", "lfen", "twdp", "mst", "matroid", "depset", "oracle"):
                if sol.exists():
                    sol.unlink()
                code, out, err = run(capsys, "solve", path, "--mode", mode, "--algo", algo,
                                     "--out", str(sol))
                if code == 2:
                    assert out == "" and not sol.exists(), (path, mode, algo)
                    refused[algo] = err
                    continue
                assert code == 0 and out.strip() == best, (path, mode, algo, out, err)
                net = parse_solution(sol.read_text(), inst)
                assert validate(net, check_mode, q).ok
                assert f"max_score={score_of(inst, net)}" == best
                solved.add(algo)
            for algo, err in refused.items():
                assert solved & set(re.findall(r"[\w-]+", err)), (path, mode, algo, err)
            if mode == "bnsl" and isinstance(inst, AdditiveInstance):
                assert "twdp" in refused["mst"] and "twdp" in refused["matroid"]


@pytest.mark.parametrize("text", ["0\n", "1\nx 0\n", "additive 0\n", "additive 1 1\n"],
                         ids=["explicit-0", "explicit-1", "additive-0", "additive-1-q1"])
def test_every_solver_on_no_variable_and_on_one(capsys, tmp_path, text):
    # every SOLVERS row, forced: either max_score=0 with an --out network
    # that verify accepts, or a usage error that names exactly the
    # algorithms that solve the file in that mode
    path = tmp_path / "tiny.scores"
    path.write_text(text)
    sol = tmp_path / "sol.txt"
    for mode in ("bnsl", "polytree"):
        solved, refused = [], []
        for algo in [a for a, m in cli.SOLVERS if m == mode]:
            if sol.exists():
                sol.unlink()
            code, out, err = run(capsys, "solve", str(path), "--mode", mode, "--algo", algo,
                                 "--out", str(sol))
            if code == 2:
                assert out == "" and not sol.exists(), (mode, algo)
                refused.append(err)
                continue
            assert (code, out) == (0, "max_score=0\n"), (mode, algo, err)
            code, out, _ = run(capsys, "verify", str(path), str(sol), "--mode", mode)
            assert (code, out) == (0, "valid score=0\n"), (mode, algo)
            solved.append(algo)
        assert solved
        for err in refused:
            assert err.endswith(f"; this input is solved by {', '.join(solved)}\n"), err


def test_negative_max_dependent_is_usage_error(capsys, example_file):
    code, out, err = run(capsys, "solve", example_file, "--algo", "depset",
                         "--max-dependent", "-1")
    assert code == 2 and out == "" and "at least 0" in err


def test_depset_limit_names_the_record_algorithms(capsys, example_file):
    code, out, err = run(capsys, "solve", example_file, "--algo", "depset",
                         "--max-dependent", "1")
    assert code == 2 and out == ""
    assert "exceeds the limit 1 (2^4 vertex subsets)" in err and "--algo kernel-lfen or lfen" in err


def test_depset_polytree_rejected(capsys, example_file):
    code, _, err = run(capsys, "solve", example_file, "--mode", "polytree",
                       "--algo", "depset")
    assert code == 2


def test_cross_algorithm_agreement_on_generated_files(capsys, tmp_path):
    # oracle and the kernel+record pipeline agree on 50 generated files
    for seed in range(50):
        code, out, _ = run(capsys, "gen", "--n", "10", "--fen",
                           str(seed % 4 + 1), "--seed", str(seed),
                           "--subdivide", str(seed % 5))
        assert code == 0
        p = tmp_path / f"g{seed}.scores"
        p.write_text(out)
        results = {}
        for algo in ("oracle", "lfen", "kernel-lfen"):
            code, out, _ = run(capsys, "solve", str(p), "--algo", algo)
            assert code == 0
            results[algo] = out.strip()
        assert len(set(results.values())) == 1, results


def test_solve_deterministic_across_processes(tmp_path):
    import os
    import subprocess
    import sys

    import bnsl

    # The child environment is built by hand: the hash seed must be the
    # test's own, and the child must import the same bnsl as this process.
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(bnsl.__file__)))

    def child_env(hashseed):
        return {"PYTHONHASHSEED": hashseed, "PATH": "/usr/bin:/bin",
                "PYTHONPATH": pkg_root}

    inst = tmp_path / "inst.scores"
    subprocess.run(
        [sys.executable, "-m", "bnsl.cli", "gen", "--n", "11", "--fen", "3",
         "--seed", "77", "--out", str(inst)],
        check=True, env=child_env("0"),
    )
    outs = []
    for i, hashseed in enumerate(("1", "31337")):
        sol = tmp_path / f"sol{i}.txt"
        r = subprocess.run(
            [sys.executable, "-m", "bnsl.cli", "solve", str(inst),
             "--out", str(sol)],
            capture_output=True, text=True, env=child_env(hashseed),
        )
        assert r.returncode == 0, r.stderr
        outs.append((r.stdout, sol.read_text()))
    assert outs[0] == outs[1]


def check_refused(capsys, tmp_path, argv, message, out=True):
    """`argv` exits 2 with `error: <message>` as its one stderr line and
    nothing on stdout; with `out`, it is given an `--out` file and leaves
    none."""
    path = tmp_path / "refused.out"
    if out:
        argv = (*argv, "--out", str(path))
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")
    assert not path.exists()


def test_solve_reads_the_instance_from_stdin(capsys, monkeypatch, tmp_path, example4_text,
                                             example4):
    monkeypatch.setattr(sys, "stdin", io.StringIO(example4_text))
    out = tmp_path / "sol.txt"
    code, stdout, _ = run(capsys, "solve", "-", "--out", str(out))
    assert (code, stdout) == (0, "max_score=7\n")
    assert score_of(example4, parse_solution(out.read_text(), example4)) == 7


def test_instance_refusals(capsys, tmp_path, example_file):
    empty = tmp_path / "empty.scores"
    empty.write_text("# no variables\n\n")
    additive = tmp_path / "a.inst"
    additive.write_text("additive 3\nb a 2\nc b 1\n")
    for argv, message in (
        (("solve", str(empty)), "empty instance file"),
        (("solve", example_file, "--max-parents", "2"),
         "--max-parents applies to the additive representation only"),
        (("kernelize", str(additive)), "kernelization works on the explicit representation"),
    ):
        check_refused(capsys, tmp_path, argv, message)


def test_tree_file_refusals(capsys, tmp_path, example_file):
    tree = tmp_path / "tree.txt"
    for text, message in (
        ("a b\nb c d\n", "tree file line 2: expected '<u> <v>'"),
        ("a b\nb z\n", "unknown vertex in tree file: b z"),
    ):
        tree.write_text(text)
        check_refused(capsys, tmp_path, ("solve", example_file, "--algo", "lfen",
                                         "--tree", str(tree)), message)


def test_td_file_refusals(capsys, tmp_path):
    p = tmp_path / "a.inst"
    p.write_text("additive 3\nb a 2\nc b 1\n")
    td = tmp_path / "td.txt"
    for text, message in (
        ("b 0 a b c\nb\n", "td file line 2: bag id missing"),
        ("b 0 a z\n", "td file line 1: unknown vertex 'z'"),
        ("b 0 a b c\ne 0\n", "td file line 2: expected 'e <parent> <child>'"),
        ("b 0 a b c\nx 0\n", "td file line 2: unknown record 'x'"),
        ("# no bags\n", "td file has no bags"),
    ):
        td.write_text(text)
        check_refused(capsys, tmp_path, ("solve", str(p), "--algo", "twdp", "--td", str(td)),
                      message)


def test_verify_refusals(capsys, tmp_path, example_file):
    # a solution line must read `<child> <- <parents...>` over the
    # instance's variables, each child on one line and never its own
    # parent; --lift reads a reduced instance
    sol = tmp_path / "sol.txt"
    for text, message in (
        ("b <- a\nb a c\n", "line 2: expected '<child> <- <parents...>'"),
        ("z <- a\n", "line 1: unknown variable 'z'"),
        ("b <- a\nc <- a\nb <- c\n", "line 3: variable 'b' listed twice"),
        ("b <- a z\n", "line 1: unknown variable 'z'"),
        ("b <- a b\n", "line 1: variable is its own parent"),
    ):
        sol.write_text(text)
        check_refused(capsys, tmp_path, ("verify", example_file, str(sol)), message, out=False)
    sol.write_text("b <- a\n")
    check_refused(capsys, tmp_path, ("verify", example_file, str(sol), "--lift", "lift.json"),
                  "--lift needs --reduced-instance", out=False)


def test_verify_names_the_vertex_over_the_bound(capsys, tmp_path):
    p = tmp_path / "a.inst"
    p.write_text("additive 3 1\nc a 2\nc b 1\n")
    sol = tmp_path / "sol.txt"
    sol.write_text("c <- a b\n")
    assert run(capsys, "verify", str(p), str(sol)) == (1, "invalid: in-degree exceeds 1 at c\n", "")
    assert run(capsys, "verify", str(p), str(sol), "--max-parents", "2") == (
        0, "valid score=3\n", "")
