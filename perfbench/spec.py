"""Workload definitions shared by run.py, the worker and the
reference generator.

Nothing here imports ``repro``: the inputs a workload feeds the program
are a pure function of the seed, so the same seed always produces the
same inputs and the reference outputs can be generated ahead of time.
"""

import math
import random

WORKLOADS = ("sweep-cold", "sweep-nokernel", "explore-full",
             "service-mixed")

#: Hard stop for any measured loop, well inside run.py's per-run limit.
HARD_LIMIT_S = 140.0

# -- sweep-cold / sweep-nokernel --------------------------------------
#
# One benchmark per behavior class, each drawn from a pool whose
# members are close in sweep time both with the C kernel at scale 0.5
# and without it at scale 0.25 (measured per member; see README), so
# the seed changes the inputs without changing the amount of work much.
SWEEP_POOLS = (
    ("regular", ("conv", "fft")),
    ("semiregular", ("djpeg1", "453.povray")),
    ("irregular", ("181.mcf", "429.mcf")),
)
SWEEP_SCALE = {"sweep-cold": 0.5, "sweep-nokernel": 0.25}


def sweep_slice(index):
    """Benchmark slice number *index*: one per class, in class order.

    The index is read as a mixed-radix number over the pool sizes, so
    0..7 enumerate every combination once.  Operation ``i`` of a run
    with seed ``s`` sweeps slice ``s + i``: each run covers several
    combinations, and seed 0 starts with the re-anchor slice.
    """
    names = []
    rest = int(index)
    for _cls, pool in SWEEP_POOLS:
        names.append(pool[rest % len(pool)])
        rest //= len(pool)
    return tuple(names)


def sweep_pool_members():
    return tuple(name for _cls, pool in SWEEP_POOLS for name in pool)


# -- explore-full -------------------------------------------------------
#
# run_explore over the full DesignSpace.  Its payload depends on the
# explore seed, so explore seeds come from a fixed pool whose payloads
# are stored as references; a run walks the pool from its own seed.
EXPLORE_BENCHMARK = "conv"
EXPLORE_SCALE = 0.25
EXPLORE_BUDGET = 8
EXPLORE_SEED_POOL = 16


def explore_seed(seed, op_index):
    """Explore seed of the *op_index*-th run_explore call of a run."""
    return (int(seed) + op_index) % EXPLORE_SEED_POOL


# -- service-mixed --------------------------------------------------------
#
# POST /v1/evaluate at a small scale.  SERVICE_CLIENTS closed-loop
# clients send only HOT keys, which set-up prefilled, so they measure the
# cache-hit path.  A separate cold sender starts one FRESH key (benchmark
# x max_invocations never prefilled) every SERVICE_COLD_INTERVAL_S as a
# pair of concurrent requests: one computes through the pool, the other
# coalesces onto it.  The hit clients never wait on a computation, and
# the number of fresh keys a run sends is set by the clock, not by how
# fast the program is (as long as a pair finishes within the interval).
SERVICE_SCALE = 0.1
SERVICE_HOT = ("conv", "fft", "djpeg1", "181.mcf", "403.gcc", "tpacf")
SERVICE_HOT_INVOCATIONS = 8
SERVICE_FRESH = ("403.gcc", "tpacf")
SERVICE_COLD_INTERVAL_S = 0.25
SERVICE_CLIENTS = 2
SERVICE_POOL_WORKERS = 1

#: Enough fresh keys for one per interval up to HARD_LIMIT_S, so they
#: never run out and the request mix cannot change with speed.
SERVICE_FRESH_INVOCATIONS = tuple(range(9, 9 + math.ceil(
    HARD_LIMIT_S / SERVICE_COLD_INTERVAL_S / len(SERVICE_FRESH))))


def service_keys():
    """Every (benchmark, max_invocations) key a request can name."""
    keys = [(name, SERVICE_HOT_INVOCATIONS) for name in SERVICE_HOT]
    keys += [(name, mi) for mi in SERVICE_FRESH_INVOCATIONS
             for name in SERVICE_FRESH]
    return keys


def service_hits(seed):
    """Endless stream of hot ``(benchmark, max_invocations)`` keys."""
    rng = random.Random(f"perfbench-hits-{int(seed)}")
    while True:
        yield rng.choice(SERVICE_HOT), SERVICE_HOT_INVOCATIONS


def service_fresh(seed):
    """Every fresh key once, alternating between the fresh benchmarks;
    the seed shuffles each benchmark's order of ``max_invocations``."""
    rng = random.Random(int(seed))
    orders = []
    for _name in SERVICE_FRESH:
        order = list(SERVICE_FRESH_INVOCATIONS)
        rng.shuffle(order)
        orders.append(order)
    return [(name, order[i]) for i in range(len(SERVICE_FRESH_INVOCATIONS))
            for name, order in zip(SERVICE_FRESH, orders)]
