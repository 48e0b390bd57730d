"""Monte-Carlo experiment harnesses with a fixed, documented randomness contract.

Every trial draws from its own numpy PCG64 generator seeded with
``seed XOR trial_index``; normal deviates come from ``standard_normal``
(ziggurat).  Trials are independent, so pools of any size produce identical
results; aggregation uses sums and counts only.

Seeds that differ only in low bits share trials: trial i of seed s is trial
i ^ 1 of seed s ^ 1, so those two seeds replay the same trials in a different
order (all of them when the iteration count is even, all but one when it is
odd).  Seeds meant as independent replicates should differ in higher bits.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from itertools import repeat

import numpy as np

RNG_CONTRACT = "numpy PCG64, per-trial seed = seed XOR trial_index, standard_normal"


def trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    return np.random.default_rng(seed ^ trial_index)


def default_threads() -> int:
    return os.cpu_count() or 1


def run_trials(worker, cfg, iterations: int, threads: int = 1) -> list:
    """worker(cfg, trial_index) over 0..iterations-1, in trial order."""
    if threads <= 1:
        return [worker(cfg, i) for i in range(iterations)]
    chunk = max(1, iterations // (threads * 8))
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, repeat(cfg), range(iterations), chunksize=chunk))
