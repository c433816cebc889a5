"""The benchmark's workloads: fixed, ordered lists of rmlab CLI jobs.

A job is its argv (without --output) plus a kind that selects the
exactness check in gate.py.  The seed only draws the inputs the program
receives: the coset representatives of the cosetdist jobs and the
--seed values of the sampled rm1 jobs.  coset-sweep takes no seeded
input; its jobs are the same for every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb

WORKLOADS = ("coset-sweep", "exact-transform", "spectral-sampled")

# jobs whose time counts in verify_s / dist_s
VERIFY = "verify"
DIST = ("weightdist", "cosetdist")


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    kind: str  # "exact", "verdict", "cosetdist" or "rm1-sampled"
    cosets: int = 0  # nontrivial cosets a census-backed job classifies
    tables: int = 0  # sampled tables a sampled rm1 job classifies
    checkpoint: bool = False  # the job takes --checkpoint <tmp>

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def pin_key(self) -> str:
        return " ".join(self.argv)


def _rm_dim(k: int, m: int) -> int:
    return sum(comb(m, j) for j in range(k + 1))


def _full_cosets(k: int, m: int) -> int:
    return (1 << ((1 << m) - _rm_dim(k, m))) - 1


def _next_cosets(k: int, m: int) -> int:
    return (1 << comb(m, k + 1)) - 1


def index_xor(bits: int, n: int) -> int:
    """XOR of the positions set in a packed table (position i sits at bit
    n-1-i).  An even-weight table lies in RM(m-2,m), the dual of
    RM(1,m), exactly when this is 0."""
    acc = 0
    while bits:
        low = bits & -bits
        acc ^= n - low.bit_length()
        bits ^= low
    return acc


def draw_rep(rng: random.Random, m: int, parity: int) -> str:
    """Hex truth table of the given weight parity outside RM(m-2,m)."""
    n = 1 << m
    while True:
        bits = rng.getrandbits(n)
        if bits.bit_count() % 2 != parity:
            bits ^= 1
        if parity or index_xor(bits, n):
            return format(bits, f"0{n // 4}x")


def _coset_sweep(rng: random.Random) -> list[Job]:
    # `verify conjecture -k 3 -m 5` (31 folds of 2^26 words, 8.5-20 s) is
    # left out: memory-bound, it swung twofold with the host's load and
    # no run could take enough samples of it to give a steady median.
    w1 = ("--workers", "1")
    return [
        Job(("verify", "theorem5", "-k", "2", "-m", "4") + w1, "verdict", _full_cosets(2, 4)),
        Job(("verify", "theorem5", "-k", "3", "-m", "4") + w1, "verdict", _full_cosets(3, 4)),
        Job(("verify", "equidist", "-m", "4") + w1, "verdict"),
        Job(("verify", "oddweight", "-m", "4") + w1, "verdict"),
        Job(("verify", "conjecture", "-k", "2", "-m", "5") + w1, "verdict", _next_cosets(2, 5)),
        Job(("weightdist", "-k", "3", "-m", "5", "--method", "brute"), "exact"),
        Job(
            ("census", "-k", "2", "-m", "5", "--scope", "next", "--format", "json") + w1,
            "exact",
            _next_cosets(2, 5),
        ),
        Job(
            ("census", "-k", "0", "-m", "4", "--scope", "full", "--format", "table") + w1,
            "exact",
            _full_cosets(0, 4),
            checkpoint=True,
        ),
    ]


def _exact_transform(rng: random.Random) -> list[Job]:
    ms = (8, 9, 10)
    jobs = [
        Job(("weightdist", "-k", str(m - 2), "-m", str(m), "--method", "macwilliams"), "exact")
        for m in ms
    ]
    for m in ms:
        for parity in (0, 1):
            rep = draw_rep(rng, m, parity)
            argv = ("cosetdist", "-k", str(m - 2), "-m", str(m), "--method", "transform", "--rep", rep)
            jobs.append(Job(argv, "cosetdist"))
    w1 = ("--workers", "1")
    for k in (3, 4):
        argv = ("verify", "theorem5", "-k", str(k), "-m", "5", "--method", "transform") + w1
        jobs.append(Job(argv, "verdict"))
    return jobs


SAMPLES = 10_000


def _spectral_sampled(rng: random.Random) -> list[Job]:
    jobs = []
    for m in (10, 11, 12):
        seed = rng.randrange(1 << 31)
        argv = ("verify", "rm1", "-m", str(m), "--sampled", "--samples", str(SAMPLES), "--seed", str(seed))
        jobs.append(Job(argv, "rm1-sampled", tables=SAMPLES))
    jobs.append(Job(("verify", "rm1", "-m", "4", "--exhaustive"), "verdict"))
    return jobs


_BUILDERS = {
    "coset-sweep": _coset_sweep,
    "exact-transform": _exact_transform,
    "spectral-sampled": _spectral_sampled,
}


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The workload's job list; the same (workload, seed) gives the same jobs."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
