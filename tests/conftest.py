import importlib.util
import random
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from bnsl import graphs, kernel
from bnsl.instances import parse_nonzero, superstructure
from reference import rising_scores

# 4-variable worked example: optimum 7 via b <- {a,c}, c <- {a}, d <- {b,c}
EXAMPLE4 = """\
4
a 3
1 1 b
1 1 c
2 2 b c
b 3
1 1 a
1 1 c
3 2 a c
c 2
3 1 a
2 1 b
d 1
1 2 b c
"""


@pytest.fixture
def example4():
    return parse_nonzero(EXAMPLE4)


@pytest.fixture
def example4_text():
    return EXAMPLE4


def benchmark_ladders():
    """perfbench/ladders.py, loaded from the source checkout."""
    name = "perfbench_ladders"
    if name not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "perfbench" / "ladders.py"
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[name]


@lru_cache(maxsize=None)
def benchmark_instance(workload: str, seed: int, rnd: int, k: int):
    """Slot k of `workload`'s benchmark ladder, seed `seed`, round `rnd`, as
    perfbench/ladders.py draws it (drawn once per test run)."""
    slot = benchmark_ladders().WORKLOADS[workload][k]
    return slot.make(random.Random(f"{workload}:{seed}:{rnd}:{k}"))


# The explicit slots of the benchmark ladders that the record-DP tests
# draw: all but the n=1500 near-tree, whose kernel has cycle rank 1
KERNEL_SLOTS = (("dag-explicit", 0), ("dag-explicit", 1), ("dag-explicit", 2),
                ("polytree", 6), ("polytree", 7))


@lru_cache(maxsize=None)
def benchmark_kernel(workload: str, seed: int, rnd: int, k: int, mode: str):
    """The kernel in `mode` ("bnsl" or "pl") of `benchmark_instance(workload,
    seed, rnd, k)` with `rising_scores`, and the witness tree the CLI
    searches on it (built once per test run).  Rule 0 leaves most kernels
    of the benchmark's own draws at 1-6 vertices; the same draws with every
    set scoring above its subsets keep kernels of the size the record-DP
    tests need."""
    kernelize = kernel.kernelize_pl if mode == "pl" else kernel.kernelize_bnsl
    red = kernelize(rising_scores(benchmark_instance(workload, seed, rnd, k))).reduced
    return red, graphs.lfen_search(superstructure(red)).forest
