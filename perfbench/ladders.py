"""Seeded instance ladders, one per workload.

A workload is a list of instance classes ("slots").  One round draws one
instance per slot; a run draws several rounds, so every instance in a run is
distinct and a cache across solves cannot pass for a speed-up.  Each slot
draws from its own `random.Random` seeded with a string built from the
workload, the run seed, the round and the slot, so the same seed gives the
same files on every machine.

Width targets are hit by a min-fill check at n <= 200 only, or by
construction (a tree plus k extra edges has treewidth at most k + 1).
Checking at n = 1500 would put seconds of tree decomposition into set-up.
The check is written here rather than taken from `bnsl.graphs`, whose
decomposition is measured: a change to it must not change the ladders.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from bnsl import generate
from bnsl.instances import (
    AdditiveInstance,
    Superstructure,
    superstructure,
    write_additive,
    write_nonzero,
)

MAX_TRIES = 500


@dataclass(frozen=True)
class Slot:
    label: str
    make: Callable[[random.Random], object]
    mode: str  # bnsl | polytree
    algo: str  # the solver `bnsl solve` is expected to run
    extra_args: tuple[str, ...] = ()


@dataclass
class Case:
    """One generated instance and how the benchmark solves it."""

    id: str
    label: str
    instance: object
    rep: str  # additive | nonzero
    path: Path
    out: Path
    mode: str
    algo: str
    argv: list[str]

    @property
    def q(self) -> Optional[int]:
        return getattr(self.instance, "max_in_degree", None)


def _fill(adj, v) -> int:
    nl = sorted(adj[v])
    return sum(1 for i, a in enumerate(nl) for b in nl[i + 1:] if b not in adj[a])


def min_fill_width(inst) -> int:
    """Width of the min-fill elimination order, ties to the lowest vertex:
    the largest number of neighbours a vertex has when it is eliminated."""
    g = superstructure(inst)
    adj = {v: set(g.adj[v]) for v in range(g.n)}
    width = 0
    while adj:
        v = min(sorted(adj), key=lambda u: _fill(adj, u))
        nbrs = adj.pop(v)
        width = max(width, len(nbrs))
        for a in nbrs:
            adj[a] |= nbrs - {a}
            adj[a].discard(v)
    return width


def explicit(n: int, fen: int, sub: int):
    return lambda rng: generate.random_nonzero(rng, n, fen, subdivisions=sub)


def additive(n: int, fen: int, q: Optional[int] = None):
    return lambda rng: generate.random_additive(rng, n, fen, q=q)


def additive_at_width(n: int, fen: int, width: int, q: Optional[int]):
    def make(rng):
        for _ in range(MAX_TRIES):
            inst = generate.random_additive(rng, n, fen, q=q)
            if min_fill_width(inst) == width:
                return inst
        raise RuntimeError(f"no n={n} fen={fen} instance of width {width}")

    return make


def additive_for_matroid(n: int, fen: int, q: int, arcs: tuple[int, int]):
    """Ground-set size inside `arcs` (matroid time grows like m^3.6) and
    width <= 3, so the polytree bag DP can supply the reference optimum."""

    def make(rng):
        for _ in range(MAX_TRIES):
            inst = generate.random_additive(rng, n, fen, q=q)
            if arcs[0] <= len(inst.arc_scores) <= arcs[1] and min_fill_width(inst) <= 3:
                return inst
        raise RuntimeError(f"no n={n} fen={fen} instance with {arcs} arcs")

    return make


def additive_chain(n: int):
    path = Superstructure(n, [(i, i + 1) for i in range(n - 1)])
    return lambda rng: generate.additive_for_graph(rng, path)


# Seconds of --seconds that one round stands for.
SECONDS_PER_ROUND = 10.0

# Classes and sizes: see perfbench/README.md for why each is there.
WORKLOADS: dict[str, list[Slot]] = {
    "dag-explicit": [
        Slot("explicit n=60 fen=5", explicit(60, 5, 40), "bnsl", "kernel-lfen"),
        Slot("explicit n=200 fen=3", explicit(200, 3, 150), "bnsl", "kernel-lfen"),
        Slot("explicit n=800 fen=1", explicit(800, 1, 700), "bnsl", "kernel-lfen"),
        Slot("explicit near-tree n=1500 fen=1", explicit(1500, 1, 0), "bnsl", "kernel-lfen"),
    ],
    "dag-additive": [
        Slot("additive n=200 w=4", additive_at_width(200, 12, 4, None), "bnsl", "twdp"),
        Slot("additive n=200 w=4", additive_at_width(200, 12, 4, None), "bnsl", "twdp"),
        Slot("additive n=60 w=4", additive_at_width(60, 10, 4, None), "bnsl", "twdp"),
        Slot("additive n=200 w=3 q=2", additive_at_width(200, 7, 3, 2), "bnsl", "twdp"),
        Slot("additive n=200 w=3 q=2", additive_at_width(200, 7, 3, 2), "bnsl", "twdp"),
        Slot("additive n=120 w=3 q=2", additive_at_width(120, 7, 3, 2), "bnsl", "twdp"),
        Slot("additive near-tree n=1500 fen=1", additive(1500, 1), "bnsl", "twdp"),
        Slot("additive near-tree n=1500 fen=2 q=2", additive(1500, 2, 2), "bnsl", "twdp"),
        Slot("additive chain n=1500", additive_chain(1500), "bnsl", "twdp"),
    ],
    "polytree": [
        Slot("matroid m=70-80 q=1", additive_for_matroid(50, 4, 1, (70, 80)),
             "polytree", "matroid"),
        Slot("matroid m=98-102 q=2", additive_for_matroid(62, 5, 2, (98, 102)),
             "polytree", "matroid"),
        Slot("pl bag DP n=40 w=3 q=2", additive_at_width(40, 5, 3, 2),
             "polytree", "twdp", ("--algo", "twdp")),
        Slot("pl bag DP n=40 w=3 q=2", additive_at_width(40, 5, 3, 2),
             "polytree", "twdp", ("--algo", "twdp")),
        Slot("pl bag DP near-tree n=1500 fen=2 q=2", additive(1500, 2, 2),
             "polytree", "twdp", ("--algo", "twdp")),
        Slot("mst n=1500", additive(1500, 3), "polytree", "mst"),
        Slot("explicit pl n=200 fen=1", explicit(200, 1, 150), "polytree", "kernel-lfen"),
        Slot("explicit pl n=800 fen=1", explicit(800, 1, 700), "polytree", "kernel-lfen"),
    ],
}


def rounds_for(workload: str, seconds: float) -> int:
    """Rounds per run.  The count depends on the arguments only, never on
    measured speed, so both sides of a comparison do the same work."""
    return max(1, int(seconds // SECONDS_PER_ROUND))


def make_round(workload: str, seed: int, rnd: int, workdir: Path) -> list[Case]:
    """Generate and write one round of instance files."""
    cases = []
    for k, slot in enumerate(WORKLOADS[workload]):
        cid = f"r{rnd}-{k}"
        rng = random.Random(f"{workload}:{seed}:{rnd}:{k}")
        inst = slot.make(rng)
        rep = "additive" if isinstance(inst, AdditiveInstance) else "nonzero"
        path = workdir / f"{cid}.scores"
        out = workdir / f"{cid}.sol"
        text = write_additive(inst) if rep == "additive" else write_nonzero(inst)
        path.write_text(text, encoding="utf-8")
        argv = ["solve", str(path), "--mode", slot.mode, "--out", str(out),
                *slot.extra_args]
        cases.append(Case(cid, slot.label, inst, rep, path, out, slot.mode, slot.algo, argv))
    return cases
