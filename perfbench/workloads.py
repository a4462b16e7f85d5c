"""Seeded workload generators: the ordered list of CLI invocations a run makes.

Every well is an exact-rational pair (B, p) with 0 < p < B whose bound-state
cutoff n_max lies in the workload's band.  n_max depends only on r = B/p:
n_max = N exactly when (2B + 3p)/(4p) lies in (N, N + 1], i.e. r in
(2N - 3/2, 2N + 1/2].  The seed picks p and r inside that interval; the
order in which N values are visited is a fixed low-discrepancy sequence, so
any prefix of a run (runs are cut by time) covers the band evenly and two
seeds give runs of the same shape.  Every operation of a run has a well of its
own: no well repeats within a run, so a cache kept across commands gets no
hits, as for users, who run each command in a process of its own.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

P_CHOICES = tuple(Fraction(s) for s in
                  ("1/2", "1/3", "1/4", "1/5", "2/3", "3/4", "2/5", "3/5", "1", "3/2"))
# r = 2N - 3/2 + 2j/R_STEPS, j = 1..R_STEPS: fine enough to reach wells whose
# top state is barely bound, where the default grid is stretched
R_STEPS = 32


@dataclass(frozen=True)
class Op:
    command: str
    B: Fraction
    p: Fraction
    n_max: int
    fmt: str = "json"
    state: "int | None" = None

    def argv(self) -> list[str]:
        args = [self.command, "--B", str(self.B), "--p", str(self.p), "--format", self.fmt]
        if self.state is not None:
            args += ["-n", str(self.state)]
        return args

    def label(self) -> str:
        extra = "" if self.state is None else f" -n {self.state}"
        return f"{self.command} {self.fmt} B={self.B} p={self.p}{extra}"


def band_order(lo: int, hi: int) -> list[int]:
    """lo..hi in van der Corput (base 2) order: every prefix is spread evenly."""
    width = hi - lo + 1
    seen: list[int] = []
    i = 0
    while len(seen) < width:
        x, f, k = 0.0, 0.5, i
        while k:
            x += f * (k & 1)
            k >>= 1
            f *= 0.5
        n = lo + int(x * width)
        if n not in seen:
            seen.append(n)
        i += 1
    return seen


def draw_well(rng: random.Random, n_max: int) -> tuple[Fraction, Fraction]:
    p = rng.choice(P_CHOICES)
    steps = [j for j in range(1, R_STEPS + 1)
             if 2 * n_max - Fraction(3, 2) + Fraction(2 * j, R_STEPS) > 1]
    r = 2 * n_max - Fraction(3, 2) + Fraction(2 * rng.choice(steps), R_STEPS)
    return r * p, p


def wells(seed: int, order: list[int], per_n: int = 1):
    """Endless stream of distinct (B, p, n_max), n_max cycling through `order`,
    `per_n` consecutive wells at each n_max.  The stream ends if an n_max has
    no unused well left."""
    rng = random.Random(seed)
    used: set[tuple[Fraction, Fraction]] = set()
    for i in itertools.count():
        n_max = order[i // per_n % len(order)]
        for _ in range(1000):
            B, p = draw_well(rng, n_max)
            if (B, p) not in used:
                break
        else:
            return
        used.add((B, p))
        yield B, p, n_max


def _validate_ops(seed: int, lo: int, hi: int):
    for B, p, n_max in wells(seed, band_order(lo, hi)):
        yield Op("validate", B, p, n_max)


# the tables mix, in order; the ten commands of one pass share an n_max.  The
# two eigenfunction commands of a format take k at the fractions u and u + 1/2
# of 0..n_max, u drawn once per pass: a state's cost grows with k, and the
# paired draw keeps every run's share of cheap and dear states even, and with
# it the run's median latency
TABLE_SLOTS = tuple((command, fmt, shift) for fmt in ("json", "csv") for command, shift in
                    (("spectrum", None), ("minimum", None), ("eigenfunction", 0.0),
                     ("eigenfunction", 0.5), ("figure", None)))


def _table_ops(seed: int):
    rng = random.Random(seed ^ 0x5EED)
    # the band top down, so the pass at n_max = 40, whose figure is the run's
    # largest output and sets the worker's peak RSS, is in every run, however
    # few passes a slow machine gets through
    stream = wells(seed, [41 - n for n in band_order(1, 40)], per_n=len(TABLE_SLOTS))
    for i, ((command, fmt, shift), (B, p, n_max)) in enumerate(
            zip(itertools.cycle(TABLE_SLOTS), stream)):
        if i % len(TABLE_SLOTS) == 0:
            u = rng.random()
        state = None if shift is None else int((u + shift) % 1.0 * (n_max + 1))
        yield Op(command, B, p, n_max, fmt, state)


@dataclass(frozen=True)
class Workload:
    ops: "Callable[[int], Iterator[Op]]"  # seed -> the run's operations, in order
    min_ops: int  # a timed run completes at least this many, so its latency has samples
    traced_ops: int  # a traced run runs exactly this prefix, so its counts repeat
    batch: int = 1  # a timed run stops only after a whole number of batches


WORKLOADS = {
    # the eigensolver dominates; the first well has n_max = 1, where every check must pass
    "validate-moderate": Workload(lambda seed: _validate_ops(seed, 1, 8), 3, 2),
    # exact recursion, evaluation and serialisation; never calls the eigensolver
    # a run stops only after whole cycles of four passes: each cycle takes one
    # n_max from each quarter of the band (40, 20, 30, 10, then 35, 15, 25, 5,
    # ...), so every run holds the same mix whatever the machine's speed; cut
    # after any pass, a faster run would also hold cheaper passes
    "tables": Workload(_table_ops, 1, 60, batch=4 * len(TABLE_SLOTS)),
    # many exact forms on 200001 points; shows the float64 node-count defect
    "validate-deep": Workload(lambda seed: _validate_ops(seed, 16, 24), 2, 1),
}
