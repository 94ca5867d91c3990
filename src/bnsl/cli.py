"""Command-line front end.

Subcommands: solve, kernelize, params, verify, gen.  Results are printed
as a single machine-parseable stdout line; diagnostics (parameter values
of the chosen tree or decomposition) go to stderr.  Exit codes: 0 for
success (or answer YES), 1 for answer NO / failed verification, 2 for
usage errors and invalid inputs (a network score past 2^63-1 included, and
`gen` arguments it cannot honour: `--n` below 1, a negative `--fen`,
`--max-score` below 1, `--subdivide` outside 0..N-2, `--subdivide` without
`--rep nonzero` or `--max-parents` without `--rep additive`), 3 for an
internal error (a solver returned an invalid network or misreported its
score, or raised RuntimeError, RecursionError included, or a command ran
out of memory: MemoryError), each as one `error: internal: ...` line with
no traceback.

`solve` runs one row of the table `SOLVERS`, a row per accepted
(algorithm, mode) pair with the representation and in-degree bound it
accepts; `auto` takes the first row that accepts the input.  Any other
pair is a usage error, and so is a flag (`--tree`, `--td`,
`--max-dependent`) given to another algorithm than its `FLAG_OWNERS`
entry, and a negative `--max-dependent`.  Invalid inputs include an empty
`--tree` or `--td` path, a tree file whose edges are not a spanning
forest of the superstructure, a decomposition file with a bag id declared
twice or not an integer, a bag given two parents, a tree edge to an
undeclared bag or a bag left without a root, a solution line that names
one parent twice, and a `verify --lift` map that `kernelize --map` did
not write for the reduced instance (the README lists each case).

`build_parser` builds the argument parser once per process and hands the
same one to every later call: the parser depends only on the module's
constant tables, `parse_args` returns a fresh namespace each time, and
building it costs 0.6-0.7 ms, a tenth of a small solve, which the
benchmark's worker, the tests and library callers of `main` paid on every
command.

`main` runs a command with the cyclic garbage collector off and restores
the caller's setting after it.  A command leaves few objects in cycles
(building the parser leaves about a hundred, once), but it holds millions
of live score tables, sets and dicts, and every full collection walks all
of them: at 200 000 vertices the collector took half of a solve's time.
Reference counting frees the rest.
"""

from __future__ import annotations

import argparse
import functools
import gc
import sys
from typing import Callable, NamedTuple, Optional

from . import depset, generate, graphs, kernel, lfen_dp, oracle, polytree, tw_dp
from .instances import (
    AdditiveInstance,
    ParseError,
    ScoreOverflowError,
    _content_lines,
    parse_additive,
    parse_nonzero,
    parse_solution,
    score_of,
    superstructure,
    validate,
    write_additive,
    write_nonzero,
    write_solution,
)


class CliError(Exception):
    pass


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as f:
        return f.read()


def _write(path, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)


def _sniff_rep(text: str) -> str:
    for _, tok in _content_lines(text):
        return "additive" if tok[0] == "additive" else "nonzero"
    raise CliError("empty instance file")


def _load_instance(path: str, max_parents=None):
    """Parse an instance file in the representation its header names."""
    text = _read(path)
    if _sniff_rep(text) == "additive":
        inst = parse_additive(text)
        if max_parents is not None:
            inst = AdditiveInstance(inst.n, inst.names, inst.arc_scores, max_parents)
        return inst, "additive"
    if max_parents is not None:
        raise CliError("--max-parents applies to the additive representation only")
    return parse_nonzero(text), "nonzero"


def _load_tree(path, instance):
    """Spanning-forest file: one `<u> <v>` edge per line, by vertex name."""
    index = {name: i for i, name in enumerate(instance.names)}
    edges = set()
    for i, tok in _content_lines(_read(path)):
        if len(tok) != 2:
            raise CliError(f"tree file line {i}: expected '<u> <v>'")
        a, b = tok
        if a not in index or b not in index:
            raise CliError(f"unknown vertex in tree file: {a} {b}")
        edges.add((min(index[a], index[b]), max(index[a], index[b])))
    return frozenset(edges)


def _load_td(path, instance, g):
    """Raw decomposition file: `b <id> <names...>` bag lines, `e <parent>
    <child>` tree lines; converted to nice form and checked against the
    superstructure `g`."""
    index = {name: i for i, name in enumerate(instance.names)}
    bags = {}
    parent = {}
    edge_line = {}  # child bag -> line of its tree edge

    def bag_id(i, tok):
        try:
            return int(tok)
        except ValueError:
            raise CliError(f"td file line {i}: bag id {tok!r} is not an integer") from None

    for i, tok in _content_lines(_read(path)):
        if tok[0] == "b":
            if len(tok) < 2:
                raise CliError(f"td file line {i}: bag id missing")
            b = bag_id(i, tok[1])
            if b in bags:
                raise CliError(f"td file line {i}: bag {b} declared twice")
            try:
                bags[b] = frozenset(index[x] for x in tok[2:])
            except KeyError as e:
                raise CliError(f"td file line {i}: unknown vertex {e}") from None
        elif tok[0] == "e":
            if len(tok) != 3:
                raise CliError(f"td file line {i}: expected 'e <parent> <child>'")
            c = bag_id(i, tok[2])
            if c in parent:
                raise CliError(f"td file line {i}: bag {c} given a second parent")
            parent[c] = bag_id(i, tok[1])
            edge_line[c] = i
        else:
            raise CliError(f"td file line {i}: unknown record {tok[0]!r}")
    if not bags:
        raise CliError("td file has no bags")
    children = {b: [] for b in bags}
    for c, p in parent.items():
        for b in (p, c):
            if b not in bags:
                raise CliError(f"td file line {edge_line[c]}: edge references unknown bag {b}")
        children[p].append(c)
    reached = [b for b in bags if b not in parent]
    for b in reached:  # walks down from the roots, reaching every bag of a forest
        reached.extend(children[b])
    if len(reached) < len(bags):
        raise CliError("td file: tree edges form a cycle, some bags have no root")
    td = graphs.nice_from_raw(bags, parent)
    problems = graphs.check_nice(td, g)
    if problems:
        raise CliError("supplied decomposition invalid: " + "; ".join(problems))
    return td


KERNELIZE = {"bnsl": kernel.kernelize_bnsl, "polytree": kernel.kernelize_pl}


def _run_lfen(inst, mode, args, info, kernelize=False):
    """Reduce the instance (`kernel-lfen`: the mode's kernel; `lfen`: rules
    0 and 1 alone), search or read a witness tree of the reduced instance,
    run the record DP on it and lift the solution back."""
    if kernelize:
        result = KERNELIZE[mode](inst)
        info.append(f"kernel_n={result.reduced.n}")
    else:
        result = kernel.absorb_leaves(inst)
    work = result.reduced
    g = superstructure(work)
    if args.tree is not None:  # only the lfen row reads --tree
        # check the file against the input, then cut it to the kept
        # vertices and edges (rule 0 may drop an edge between two kept
        # vertices) and complete the rest to a spanning forest
        tree = _load_tree(args.tree, inst)
        graphs.forest_from_edges(superstructure(inst), tree)
        dense = {loose: i for i, loose in result.loose_of_reduced.items()}
        kept = {(dense[a], dense[b]) for a, b in tree if a in dense and b in dense}
        witness = graphs.lfen_of_tree(
            g, graphs.forest_from_edges(g, graphs.complete_forest(g, kept & g.edges))
        )
    else:
        witness = graphs.lfen_search(g)
    info.append(
        f"fen={len(witness.forest.feedback_edges)} "
        f"lfen<={witness.value}{' exact' if witness.exact else ''}"
    )
    solve = lfen_dp.solve_pl_lfen if mode == "polytree" else lfen_dp.solve_bnsl_lfen
    score, net = solve(work, witness.forest)
    return score, result.lift(net)


def _run_twdp(inst, mode, args, info):
    if args.td is None and inst.max_in_degree is None and mode == "bnsl":
        split = tw_dp.Condensed(inst)
        info.append(f"width={split.width} core={split.core}")
        return split.solve()
    g = superstructure(inst)
    td = None if args.td is None else _load_td(args.td, inst, g)
    fold, td = tw_dp.fold_core(inst, g, td)
    info.append(f"width={td.width} core={len(fold.core)}")
    return tw_dp.solve_folded(inst, "pl" if mode == "polytree" else "bnsl", fold, td)


def _run_depset(inst, mode, args, info):
    if args.max_dependent is None:
        return depset.solve_bnsl_depset(inst)
    return depset.solve_bnsl_depset(inst, args.max_dependent)


class Solver(NamedTuple):
    rep: Optional[str]  # "nonzero" or "additive"; None takes either
    bound: Optional[bool]  # True needs an in-degree bound, False refuses one
    run: Callable  # (inst, mode, args, info) -> (score, net); info gets the stderr line


_run_kernel_lfen = functools.partial(_run_lfen, kernelize=True)

# One row per (algorithm, mode) pair `solve` accepts.  `--algo auto` takes
# the first row of the mode that accepts the input, so the order is the
# automatic choice.
SOLVERS = {
    ("kernel-lfen", "bnsl"): Solver("nonzero", None, _run_kernel_lfen),
    ("kernel-lfen", "polytree"): Solver("nonzero", None, _run_kernel_lfen),
    ("lfen", "bnsl"): Solver("nonzero", None, _run_lfen),
    ("lfen", "polytree"): Solver("nonzero", None, _run_lfen),
    ("twdp", "bnsl"): Solver("additive", None, _run_twdp),
    ("mst", "polytree"): Solver("additive", False, lambda i, *_: polytree.solve_pl_additive_mst(i)),
    ("matroid", "polytree"): Solver(
        "additive", True, lambda i, *_: polytree.solve_pl_additive_bounded(i)
    ),
    ("twdp", "polytree"): Solver("additive", True, _run_twdp),
    ("depset", "bnsl"): Solver("nonzero", None, _run_depset),
    ("oracle", "bnsl"): Solver(None, None, lambda i, *_: oracle.exact_bnsl(i)),
    ("oracle", "polytree"): Solver(None, None, lambda i, *_: oracle.exact_pl(i)),
}

# Flags only one algorithm reads, never dropped silently by another.
FLAG_OWNERS = {"--tree": "lfen", "--td": "twdp", "--max-dependent": "depset"}


def cmd_solve(args) -> int:
    inst, rep = _load_instance(args.instance, args.max_parents)
    mode = args.mode
    q = inst_q(inst)
    fits = [a for (a, m), s in SOLVERS.items()
            if m == mode and s.rep in (None, rep) and s.bound in (None, q is not None)]
    algo = fits[0] if args.algo == "auto" else args.algo
    if algo not in fits:
        solver = SOLVERS.get((algo, mode))
        if solver is None:
            need = f"does not solve --mode {mode}"
        elif solver.rep != rep:
            need = f"needs the {solver.rep} representation"
        else:
            verb = "needs" if solver.bound else "refuses"
            need = f"{verb} an in-degree bound (--max-parents) in --mode {mode}"
        raise CliError(f"--algo {algo} {need}; this input is solved by {', '.join(fits)}")
    for flag, owner in FLAG_OWNERS.items():
        if getattr(args, flag[2:].replace("-", "_")) is not None and algo != owner:
            raise CliError(f"{flag} is used by --algo {owner} only")

    info = []
    score, net = SOLVERS[algo, mode].run(inst, mode, args, info)

    check = validate(net, "polytree" if mode == "polytree" else "dag", q)
    if not check.ok:
        return _internal_error(f"{algo} returned an invalid network: {check}")
    if score_of(inst, net) != score:
        return _internal_error(
            f"{algo} reported max_score={score}, its network scores {score_of(inst, net)}"
        )

    if info:
        print(" ".join(info), file=sys.stderr)
    if args.out:
        _write(args.out, write_solution(net, inst))
    if args.target is not None:
        answer = "YES" if score >= args.target else "NO"
        print(f"max_score={score} answer={answer}")
        return 0 if answer == "YES" else 1
    print(f"max_score={score}")
    return 0


def _internal_error(message: str) -> int:
    print(f"error: internal: {message}", file=sys.stderr)
    return 3


def inst_q(inst):
    return inst.max_in_degree if isinstance(inst, AdditiveInstance) else None


def cmd_kernelize(args) -> int:
    inst, rep = _load_instance(args.instance)
    if rep != "nonzero":
        raise CliError("kernelization works on the explicit representation")
    result = KERNELIZE[args.mode](inst)
    _write(args.out, write_nonzero(result.reduced))
    if args.map:
        _write(args.map, result.to_json())
    print(
        f"n={inst.n} reduced_n={result.reduced.n} steps={len(result.steps)}",
        file=sys.stderr,
    )
    return 0


def cmd_params(args) -> int:
    if args.budget < 0:
        raise CliError("--budget must be at least 0")
    inst, _ = _load_instance(args.instance)
    g = superstructure(inst)
    witness = graphs.lfen_search(g, budget=args.budget)
    td = graphs.tree_decomposition(g)
    exact = " exact" if witness.exact else ""
    fen = len(witness.forest.feedback_edges)  # |E| - n + #components in any spanning forest
    print(f"fen={fen} lfen<={witness.value}{exact} tw<={td.width}")
    if args.witness:
        for a, b in sorted(witness.forest.tree_edges):
            print(f"{inst.names[a]} {inst.names[b]}")
    return 0


def cmd_verify(args) -> int:
    inst, _ = _load_instance(args.instance, max_parents=args.max_parents)
    if args.lift:
        if not args.reduced_instance:
            raise CliError("--lift needs --reduced-instance")
        red, rep = _load_instance(args.reduced_instance)
        if rep != "nonzero":
            raise CliError("--reduced-instance must be in the explicit representation")
        net = parse_solution(_read(args.solution), red)
        result = kernel.KernelResult.from_json(_read(args.lift), red)
        net = result.lift(net)
    else:
        net = parse_solution(_read(args.solution), inst)
    check = validate(net, "polytree" if args.mode == "polytree" else "dag", inst_q(inst))
    if not check.ok:
        detail = check.reason or "invalid"
        if check.cycle:
            detail += " [" + " ".join(inst.names[v] for v in check.cycle) + "]"
        if check.vertex is not None:
            detail += f" at {inst.names[check.vertex]}"
        print(f"invalid: {detail}")
        return 1
    print(f"valid score={score_of(inst, net)}")
    return 0


def cmd_gen(args) -> int:
    if args.n < 1:
        raise CliError("--n must be at least 1")
    if args.fen < 0:
        raise CliError("--fen must be at least 0")
    if args.max_score < 1:
        raise CliError("--max-score must be at least 1")
    if not 0 <= args.subdivide <= max(0, args.n - 2):
        # the graph it subdivides has --n minus --subdivide vertices and
        # needs an edge
        raise CliError("--subdivide must lie between 0 and --n minus 2")
    if args.rep == "additive" and args.subdivide:
        raise CliError("--subdivide applies to --rep nonzero only")
    if args.rep == "nonzero" and args.max_parents is not None:
        raise CliError("--max-parents applies to --rep additive only")
    if args.rep == "additive":
        inst = generate.random_additive(
            args.seed, args.n, args.fen, args.max_score, args.max_parents
        )
        _write(args.out, write_additive(inst))
    else:
        inst = generate.random_nonzero(
            args.seed, args.n, args.fen, args.max_score,
            subdivisions=args.subdivide,
        )
        _write(args.out, write_nonzero(inst))
    return 0


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bnsl",
        description="Exact structure learning for score-based networks and polytrees",
    )
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="compute the optimal network")
    ps.add_argument("instance")
    ps.add_argument("--mode", choices=["bnsl", "polytree"], default="bnsl",
                    help="learn an acyclic network (bnsl) or a polytree (default %(default)s)")
    ps.add_argument(
        "--algo", choices=["auto", *dict.fromkeys(algo for algo, _ in SOLVERS)], default="auto",
        help="solver; auto, the default, takes the first one that accepts the mode, "
             "representation and in-degree bound",
    )
    ps.add_argument("--max-parents", type=int, metavar="Q",
                    help="in-degree bound, in place of the file's (additive instances only)")
    ps.add_argument("--target", type=int, metavar="L",
                    help="also print answer=YES when the optimum is at least L, "
                         "else answer=NO and exit 1")
    ps.add_argument("--out", metavar="FILE", help="write the witness network")
    ps.add_argument("--tree", metavar="FILE",
                    help=f"spanning tree edge list (--algo {FLAG_OWNERS['--tree']})")
    ps.add_argument("--td", metavar="FILE",
                    help=f"raw tree decomposition (--algo {FLAG_OWNERS['--td']})")
    ps.add_argument("--max-dependent", type=int, metavar="K",
                    help=f"dependent-vertex limit of the subset DP "
                         f"(--algo {FLAG_OWNERS['--max-dependent']})")
    ps.set_defaults(func=cmd_solve)

    pk = sub.add_parser("kernelize", help="apply the reduction rules")
    pk.add_argument("instance")
    pk.add_argument("--mode", choices=KERNELIZE, default="bnsl")
    pk.add_argument("--out", metavar="FILE", default="-")
    pk.add_argument("--map", metavar="FILE", help="write the lift tables")
    pk.set_defaults(func=cmd_kernelize)

    pp = sub.add_parser("params", help="superstructure parameters")
    pp.add_argument("instance")
    pp.add_argument("--witness", action="store_true", help="print the witness tree")
    pp.add_argument(
        "--budget", type=int, default=graphs.DEFAULT_TREE_BUDGET, metavar="TREES",
        help="spanning trees per component that the exact search enumerates "
             "(those that cut each chain of the 2-core at its largest edge): a "
             "component with at most this many is searched exactly, a larger one "
             "by local search (default %(default)s)",
    )
    pp.set_defaults(func=cmd_params)

    pv = sub.add_parser("verify", help="check a solution file")
    pv.add_argument("instance")
    pv.add_argument("solution")
    pv.add_argument("--mode", choices=["bnsl", "polytree", "dag"], default="bnsl",
                    metavar="{bnsl,polytree}", help="dag is the old spelling of bnsl")
    pv.add_argument("--max-parents", type=int, metavar="Q",
                    help="in-degree bound the solution must keep, in place of the file's "
                         "(additive instances only)")
    pv.add_argument("--lift", metavar="MAPFILE", help="lift through kernel tables")
    pv.add_argument("--reduced-instance", metavar="FILE",
                    help="the reduced instance the solution is over (needed by --lift)")
    pv.set_defaults(func=cmd_verify)

    pg = sub.add_parser("gen", help="generate a random instance")
    pg.add_argument("--rep", choices=["nonzero", "additive"], default="nonzero")
    pg.add_argument("--n", type=int, required=True)
    pg.add_argument("--fen", type=int, default=0)
    pg.add_argument("--seed", type=int, required=True)
    pg.add_argument("--max-score", type=int, default=8)
    pg.add_argument("--max-parents", type=int)
    pg.add_argument("--subdivide", type=int, default=0)
    pg.add_argument("--out", metavar="FILE", default="-")
    pg.set_defaults(func=cmd_gen)
    return p


def main(argv=None) -> int:
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (CliError, ParseError, ValueError, ScoreOverflowError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (RuntimeError, MemoryError) as e:  # broken invariants (RecursionError too), no memory
        return _internal_error(f"{type(e).__name__}: {e}")
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
