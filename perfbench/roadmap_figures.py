"""Re-measure the single-instance timings quoted in ROADMAP.md.

    python3 perfbench/roadmap_figures.py

Prints one line per figure: the quoted number and the median of three
seeded instances (one for the matroid figure, which takes about 20 s).
"""

import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bnsl import generate, graphs, kernel, lfen_dp, polytree  # noqa: E402
from bnsl.instances import Superstructure, superstructure  # noqa: E402


def timed(f, *args):
    t0 = time.perf_counter()
    out = f(*args)
    return out, time.perf_counter() - t0


def lfen_share(seed):
    """lfen_search time and whole kernel-lfen solve time, n=200, fen=4."""
    inst = generate.random_nonzero(random.Random(seed), 200, 4, subdivisions=150)
    kr, t_kernel = timed(kernel.kernelize_bnsl, inst)
    witness, t_lfen = timed(graphs.lfen_search, superstructure(kr.reduced))
    (_, net), t_dp = timed(lfen_dp.solve_bnsl_lfen, kr.reduced, witness.forest)
    _, t_lift = timed(kr.lift, net)
    return t_lfen, t_kernel + t_lfen + t_dp + t_lift


def matroid_at(m, seed):
    rng = random.Random(seed)
    while True:
        inst = generate.random_additive(rng, 88, 8, q=2)
        if len(inst.arc_scores) == m:
            return timed(polytree.solve_pl_additive_bounded, inst)[1]


def kernel_at(n, seed):
    """A random tree plus one edge, built directly: `generate.random_graph`
    would hold an O(n^2) pair pool (hundreds of MB at n = 3000)."""
    rng = random.Random(seed)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n:
        a, b = sorted(rng.sample(range(n), 2))
        edges.add((a, b))
    inst = generate.scores_for_graph(rng, Superstructure(n, edges))
    return timed(kernel.kernelize_bnsl, inst)[1]


def main():
    for n, quoted in ((1500, 1.6), (3000, 6.2)):
        t = statistics.median(kernel_at(n, s) for s in range(3))
        print(f"kernelize_bnsl at n={n}: quoted {quoted} s; measured {t:.2f} s")
    runs = [lfen_share(s) for s in range(3)]
    lfen = statistics.median(r[0] for r in runs)
    total = statistics.median(r[1] for r in runs)
    print(f"lfen_search at n=200 fen=4: quoted 2.9 s of ~3 s; "
          f"measured {lfen:.2f} s of {total:.2f} s")
    print(f"matroid intersection at m=144: quoted 18 s; measured {matroid_at(144, 0):.2f} s")


if __name__ == "__main__":
    main()
