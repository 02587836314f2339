"""The benchmark workloads: endless, seed-determined cycles of smplab calls.

A workload is a function from (seed, cycle index) to a list of steps.  A step
is one `harness.run` call, or one `harness.sweep` call followed by
`harness.persist`.  The mix of protocols, sizes and trial counts is the same
in every cycle and for every seed; the seed picks only instance seeds and
adversary parameters that do not change a trial's cost, so the timing
statistics of whole cycles do not depend on the seed.

Timed runs use even config seeds and warm-up runs odd ones, so no instance
drawn in set-up is drawn again in a timed run.  Every config pins
`workers=1`: the timed loop is one client in one process, each call issued
when the previous one returns.

Trial counts are chosen so that runs of one size cost about the same today
(on the reference host of hostspeed.py, about 0.045 s at n=64 and 0.35 s at
n=1024 in grid-mc), which keeps the run-latency percentiles away from the
edges between kinds of run.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from smplab.classical import NeRrrParams
from smplab.codes import CodeSpec
from smplab.harness import ExperimentConfig

STEPS_PER_CYCLE_MAX = 1000  # spacing of config seeds between cycles


@dataclass(frozen=True)
class Step:
    template: ExperimentConfig
    points: tuple[dict, ...] = ()  # empty: one harness.run; else one sweep

    @property
    def runs(self) -> int:
        return len(self.points) or 1


@dataclass(frozen=True)
class Workload:
    build: Callable[[np.random.Generator, Callable[[int], int]], list[Step]]
    min_cycles: int  # enough runs for ten beyond p90, and the digested prefix

    def cycle(self, seed: int, index: int) -> list[Step]:
        base = _seed_base(seed) + index * STEPS_PER_CYCLE_MAX
        return self.build(np.random.default_rng([seed, index]), lambda i: 2 * (base + i))

    def warmups(self, seed: int, pass_index: int) -> list[Step]:
        """One one-trial run per distinct (protocol, n) of the cycle, on odd
        seeds that no timed run uses."""
        base = _seed_base(seed) + pass_index * STEPS_PER_CYCLE_MAX
        seen, steps = set(), []
        for step in self.cycle(seed, 0):
            key = (step.template.protocol, step.template.n)
            if key in seen:
                continue
            seen.add(key)
            template = dataclasses.replace(
                step.template, trials=1, seed=2 * (base + len(steps)) + 1
            )
            steps.append(Step(template, step.points[:1]))
        return steps


def _seed_base(seed: int) -> int:
    return int(np.random.default_rng(seed).integers(1 << 40))


def _config(protocol: str, n: int, trials: int, seed: int, **fields) -> ExperimentConfig:
    return ExperimentConfig(protocol=protocol, n=n, trials=trials, seed=seed, workers=1, **fields)


# ---------------------------------------------------------------------------
# grid-mc

NE_HONEST = {"variant": "NeHonest"}

GRID_N64 = (
    ("eq-rr", 40, {"instance": "eq_pair"}),
    ("one-of-two", 28, {}),
    ("ne-rrr", 20, {"instance": "ne_pair", "adversary": NE_HONEST}),
    ("ne-rrr", 27, {"instance": "eq_pair",
                    "adversary": {"variant": "NeTamper", "u": 16, "v": 0}}),
    ("eq-qq", 460, {"instance": "ne_pair"}),
)
GRID_N1024 = (
    ("eq-rr", 3, {"instance": "eq_pair"}),
    ("one-of-two", 2, {}),
    ("ne-rrr", 1, {"instance": "ne_pair", "adversary": NE_HONEST}),
)


def _grid_mc(rng, seed_of) -> list[Step]:
    shapes = []
    for big in GRID_N1024:
        shapes += [(64, *small) for small in GRID_N64] + [(1024, *big)]
    return [
        Step(_config(protocol, n, trials, seed_of(i), **fields))
        for i, (n, protocol, trials, fields) in enumerate(shapes)
    ]


# ---------------------------------------------------------------------------
# transfer-mc

TRANSFER = {"eps": 0.5, "delta": 0.25}
DESK_SCALE = 1.0 / 3200.0
_FDIM16 = 2 * CodeSpec.create(16).block_len  # fingerprint dimension at n=16


def _transfer_mc(rng, seed_of) -> list[Step]:
    uqst = {"scale": DESK_SCALE, "options": {"a": 4, **TRANSFER}}
    return [
        Step(_config("uqst", 16, 60, seed_of(0), adversary={"variant": "UqstHonest"}, **uqst)),
        Step(_config("uqst", 16, 60, seed_of(1),
                     adversary={"variant": "UqstFarProduct", "gamma": 0.9,
                                "seed": int(rng.integers(1 << 20))}, **uqst)),
        Step(_config("qrq-eq", 16, 4, seed_of(2), scale=DESK_SCALE,
                     options={"a": max(2, _FDIM16 // 4), **TRANSFER})),
        Step(_config("rrq-eq", 16, 20, seed_of(3),
                     options={"a": max(2, min(_FDIM16 // 4, 16)), "m_copies": 32})),
    ]


# ---------------------------------------------------------------------------
# sweep-exact

DISJ_SCALE = 0.0232  # the acceptance battery's desk scale: 41 draws per player
NE_SWEEP_POINTS = 5


def _ne_sweep(rng, n: int, trials: int, seed: int) -> Step:
    """NeTamper (u, v) points with u + v around the distance threshold, on
    the one equal pair the template seed draws."""
    threshold = NeRrrParams.create(n).distance_threshold
    points = []
    for _ in range(NE_SWEEP_POINTS):
        u = int(rng.integers(0, threshold + 1))
        v = max(0, threshold - u + int(rng.integers(-1, 3)))
        points.append({"adversary": {"variant": "NeTamper", "u": u, "v": v}})
    template = _config("ne-rrr", n, trials, seed, mode="both", instance="eq_pair")
    return Step(template, tuple(points))


def _disj_sweep(rng, n: int, alpha: float, trials: int, seed: int) -> Step:
    wrong = [int(s) for s in rng.integers(1 << 20, size=2)]
    points = [{"adversary": {"variant": "DisjHonest"}, "instance": "disj_pair"}] + [
        {"adversary": {"variant": "DisjWrongPoly", "seed": s}, "instance": "intersect_pair"}
        for s in wrong
    ]
    template = _config("disj-rrr", n, trials, seed, mode="both", scale=DISJ_SCALE,
                       options={"alpha": alpha})
    return Step(template, tuple(points))


def _sweep_exact(rng, seed_of) -> list[Step]:
    return [
        _ne_sweep(rng, 64, 24, seed_of(0)),
        _ne_sweep(rng, 256, 5, seed_of(1)),
        _disj_sweep(rng, 64, 2.0 / 3.0, 12, seed_of(2)),
        _disj_sweep(rng, 256, 0.5, 12, seed_of(3)),
    ]


# Why each workload exists, and the layer it bypasses, is recorded in
# BENCHMARK.json beside its name.
WORKLOADS = {
    "grid-mc": Workload(_grid_mc, min_cycles=6),
    "transfer-mc": Workload(_transfer_mc, min_cycles=25),
    "sweep-exact": Workload(_sweep_exact, min_cycles=7),
}
