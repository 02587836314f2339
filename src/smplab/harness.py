"""Experiment runner: seeded trial execution, exact-vs-sampled
cross-validation, Hoeffding confidence intervals, and persistence.

A run fixes one instance (drawn from the master seed), executes T independent
trials on per-trial derived streams, and aggregates acceptance counts.
Aggregation is a commutative sum, so worker count never changes the result;
reports serialize to one deterministic JSON line plus a CSV summary row.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from . import adversaries as adv
from .classical import (
    DisjClaim,
    DisjInstance,
    DisjParams,
    NeRrrParams,
    OneOutOfTwoInstance,
    OneOutOfTwoParams,
    disj_rrr_run,
    disj_rrr_soundness_exact,
    eq_rr_exact,
    eq_rr_lengths,
    eq_rr_run,
    ne_rrr_exact,
    ne_rrr_run,
    one_out_of_two_exact,
    one_out_of_two_run,
)
from .codes import CodeSpec, grid_of
from .core import ConfigError, InstanceKind, OneOutOfTwoVerdict, RandomSource, Verdict, sample_instance
from .qsim import fingerprint, random_state, trace_distance_pure
from .quantum import (
    REFEREE_MODES,
    RrqParams,
    UqstParams,
    eq_qq_lengths,
    eq_qq_round_prob,
    eq_qq_run,
    qrq_eq_lengths,
    qrq_eq_run,
    rrq_eq_run,
    uqst_run,
)

_INSTANCE_STREAM = 0xBEEF
_TRIAL_STREAM = 1


# The config fields that only some protocols read; every protocol reads the rest.
OPTIONAL_FIELDS = ("instance", "repetitions", "scale")


@dataclass(frozen=True)
class ExperimentConfig:
    """One run's config.  An option, or a non-default optional field, that the
    protocol's `PROTOCOLS` entry does not declare is a ConfigError."""

    protocol: str
    n: int = 16
    trials: int = 1000
    seed: int = 0
    adversary: dict | None = None
    scale: float | None = None
    mode: str = "monte_carlo"  # monte_carlo | exact | both
    instance: str | None = None  # override the protocol's default instance kind
    repetitions: int = 1
    confidence_beta: float = 0.01
    workers: int | None = None
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.protocol not in PROTOCOL_IDS:
            raise ConfigError(f"unknown protocol {self.protocol!r}")
        if self.trials < 1 or self.repetitions < 1:
            raise ConfigError("trials and repetitions must be >= 1")
        if self.mode not in ("monte_carlo", "exact", "both"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if not 0 < self.confidence_beta < 1:
            raise ConfigError("confidence_beta must lie in (0, 1)")
        if self.instance is not None:
            try:
                InstanceKind(self.instance)
            except ValueError as exc:
                raise ConfigError(f"unknown instance kind {self.instance!r}") from exc
        if not isinstance(self.options, dict):
            raise ConfigError(f"options {self.options!r} are not a JSON object")
        entry = PROTOCOLS[self.protocol]
        unread = [f.name for f in dataclasses.fields(self) if f.name in OPTIONAL_FIELDS
                  and f.name not in entry.fields and getattr(self, f.name) != f.default]
        if unread:
            raise ConfigError(f"{self.protocol} does not read {', '.join(unread)}; of "
                              f"{', '.join(OPTIONAL_FIELDS)} it reads {', '.join(entry.fields)}")
        unknown = sorted(set(self.options) - set(entry.options))
        if unknown:
            raise ConfigError(f"{self.protocol} reads no option {', '.join(unknown)}; "
                              f"its options are {', '.join(entry.options) or 'none'}")

    def to_json(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_json(data: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(ExperimentConfig)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return ExperimentConfig(**data)


def hoeffding_half_width(trials: int, beta: float) -> float:
    """Distribution-free CI half width sqrt(ln(2/beta) / (2 T))."""
    return math.sqrt(math.log(2.0 / beta) / (2.0 * trials))


@dataclass(frozen=True)
class TrialReport:
    config: ExperimentConfig
    p_hat: float | None
    exact: Fraction | None
    ci_half_width: float
    within_ci: bool | None
    lengths: dict[str, int]
    protocol_type: str
    instance_echo: str
    extras: dict[str, float]
    wall_time_s: float

    def record(self) -> dict:
        """Deterministic JSON record (volatile timing excluded)."""
        return {
            "config": self.config.to_json(),
            "p_hat": self.p_hat,
            "exact": None if self.exact is None else str(self.exact),
            "exact_float": None if self.exact is None else float(self.exact),
            "ci_half_width": self.ci_half_width,
            "within_ci": self.within_ci,
            "lengths": self.lengths,
            "protocol_type": self.protocol_type,
            "instance": self.instance_echo,
            "extras": self.extras,
        }

    def json_line(self) -> str:
        return json.dumps(self.record(), sort_keys=True, separators=(",", ":"))

    def csv_row(self) -> dict:
        cfg = self.config
        return {
            "protocol": cfg.protocol,
            "n": cfg.n,
            "trials": cfg.trials,
            "seed": cfg.seed,
            "mode": cfg.mode,
            "p_hat": "" if self.p_hat is None else f"{self.p_hat:.6f}",
            "exact": "" if self.exact is None else f"{float(self.exact):.6f}",
            "ci_half_width": f"{self.ci_half_width:.6f}",
            "within_ci": "" if self.within_ci is None else str(self.within_ci).lower(),
            "alice_len": self.lengths.get("alice", ""),
            "bob_len": self.lengths.get("bob", ""),
            "merlin_len": self.lengths.get("merlin", ""),
            "protocol_type": self.protocol_type,
            "wall_time_s": f"{self.wall_time_s:.3f}",
        }


CSV_COLUMNS = (
    "protocol,n,trials,seed,mode,p_hat,exact,ci_half_width,within_ci,"
    "alice_len,bob_len,merlin_len,protocol_type,wall_time_s"
)


# ---------------------------------------------------------------------------
# Protocol adapters
#
# A plan draws the run's instance and computes once everything it fixes
# (codeword grids, Alice's row, the prover's deterministic message, closed
# forms, fingerprints); its closures hand those to the runners, so no trial
# re-encodes the instance.  Anything cached lives in the plan and goes with it.


@dataclass(frozen=True)
class RunPlan:
    trial: Callable[[RandomSource], tuple[bool, dict[str, float]]]
    exact: Callable[[], Fraction | None]
    lengths: Callable[[], dict[str, int]]  # the protocol's closed form
    instance_echo: str


def _instance_kind(config: ExperimentConfig, default: InstanceKind) -> InstanceKind:
    return default if config.instance is None else InstanceKind(config.instance)


def _echo(*parts) -> str:
    return " ".join(str(p) for p in parts)


def _plan_eq_rr(config: ExperimentConfig, strategy) -> RunPlan:
    spec = CodeSpec.create(config.n)
    kind = _instance_kind(config, InstanceKind.EQ_PAIR)
    x, y = sample_instance(kind, config.n, RandomSource(config.seed, _INSTANCE_STREAM))
    gx, gy = grid_of(spec, x), grid_of(spec, y)

    def trial(rng):
        verdict, _ = eq_rr_run(gx, gy, rng)
        return verdict is Verdict.ACCEPT, {}

    return RunPlan(trial, lambda: eq_rr_exact(gx, gy), lambda: eq_rr_lengths(spec), _echo(x, y))


def _plan_one_of_two(config: ExperimentConfig, strategy) -> RunPlan:
    params = OneOutOfTwoParams.create(config.n)
    kind = _instance_kind(config, InstanceKind.ONE_OUT_OF_TWO_TRIPLE)
    if kind is not InstanceKind.ONE_OUT_OF_TWO_TRIPLE:
        raise ConfigError("one-of-two needs a promise triple instance")
    x1, x2, y = sample_instance(kind, config.n, RandomSource(config.seed, _INSTANCE_STREAM))
    truth = OneOutOfTwoVerdict.FIRST_EQUAL if x1 == y else OneOutOfTwoVerdict.SECOND_EQUAL
    inst = OneOutOfTwoInstance.encode(x1, x2, y, params)

    def trial(rng):
        verdict, _ = one_out_of_two_run(inst, params, rng)
        return verdict is truth, {}

    return RunPlan(
        trial, lambda: one_out_of_two_exact(inst, params), params.expected_lengths,
        _echo(x1, x2, y),
    )


def _plan_ne_rrr(config: ExperimentConfig, strategy) -> RunPlan:
    params = NeRrrParams.create(
        config.n,
        repetitions=config.repetitions,
        rows=config.options.get("rows"),
        cols=config.options.get("cols"),
    )
    strategy = strategy or adv.NeHonest()
    default_kind = (
        InstanceKind.NE_PAIR
        if isinstance(strategy, adv.NeHonest)
        else InstanceKind.EQ_PAIR
    )
    kind = _instance_kind(config, default_kind)
    x, y = sample_instance(kind, config.n, RandomSource(config.seed, _INSTANCE_STREAM))
    gx, gy = grid_of(params.spec, x), grid_of(params.spec, y)
    # ne strategies are deterministic, so one message serves every trial.
    msg = strategy.message(x, y, params, RandomSource(config.seed, 7))

    def trial(rng):
        verdict, _ = ne_rrr_run(gx, gy, msg, params, rng)
        return verdict is Verdict.ACCEPT, {}

    def exact():
        return ne_rrr_exact(gx, gy, msg, params) ** params.repetitions

    return RunPlan(trial, exact, params.expected_lengths, _echo(x, y))


def _plan_eq_qq(config: ExperimentConfig, strategy) -> RunPlan:
    spec = CodeSpec.create(config.n)
    kind = _instance_kind(config, InstanceKind.EQ_PAIR)
    x, y = sample_instance(kind, config.n, RandomSource(config.seed, _INSTANCE_STREAM))
    reps = config.repetitions
    p = eq_qq_round_prob(x, y, spec)

    def trial(rng):
        verdict, _ = eq_qq_run(x, y, p, spec, reps, rng)
        return verdict is Verdict.ACCEPT, {}

    return RunPlan(trial, lambda: p**reps, lambda: eq_qq_lengths(spec), _echo(x, y))


def _uqst_params(config: ExperimentConfig, n: int, default_a: int) -> UqstParams:
    opts = config.options
    return UqstParams(
        n=n,
        a=int(opts.get("a", default_a)),
        eps=float(opts.get("eps", 0.5)),
        delta=float(opts.get("delta", 0.25)),
        scale=config.scale if config.scale is not None else 1.0 / 3200.0,
    )


def _plan_uqst(config: ExperimentConfig, strategy) -> RunPlan:
    params = _uqst_params(config, config.n, max(1, config.n // 4))
    mode = config.options.get("referee_mode", "swap")
    if mode not in REFEREE_MODES:
        raise ConfigError(f"unknown referee_mode {mode!r}; uqst accepts {', '.join(REFEREE_MODES)}")
    strategy = strategy or adv.UqstHonest()
    phi = random_state(config.n, RandomSource(config.seed, _INSTANCE_STREAM).generator())

    def trial(rng):
        outcome = uqst_run(phi, params, strategy, rng, referee_mode=mode)
        extras = {}
        if outcome.accepted:
            far = trace_distance_pure(outcome.output_state, phi) > params.eps
            extras["accept_and_far"] = 1.0 if far else 0.0
        return outcome.accepted, extras

    return RunPlan(trial, lambda: None, params.expected_lengths, _echo("haar-state", config.n))


def _plan_qrq(config: ExperimentConfig, strategy) -> RunPlan:
    spec = CodeSpec.create(config.n)
    fdim = 2 * spec.block_len
    params = _uqst_params(config, fdim, max(2, fdim // 4))
    kind = _instance_kind(config, InstanceKind.EQ_PAIR)
    x, y = sample_instance(kind, config.n, RandomSource(config.seed, _INSTANCE_STREAM))
    f_x, f_y = fingerprint(spec, x), fingerprint(spec, y)
    strategy = strategy or adv.UqstHonest()
    if isinstance(strategy, adv.QrqCrossFingerprint):
        strategy = adv.ProductCopies(f_x)
    reps = config.repetitions

    def trial(rng):
        verdict, _ = qrq_eq_run(x, y, f_x, f_y, params, strategy, rng, reps)
        return verdict is Verdict.ACCEPT, {}

    return RunPlan(trial, lambda: None, lambda: qrq_eq_lengths(params), _echo(x, y))


def _plan_rrq(config: ExperimentConfig, strategy) -> RunPlan:
    spec = CodeSpec.create(config.n)
    fdim = 2 * spec.block_len
    params = RrqParams(
        n=fdim,
        a=int(config.options.get("a", max(2, min(fdim // 4, 16)))),
        m_copies=int(config.options.get("m_copies", 32)),
    )
    kind = _instance_kind(config, InstanceKind.EQ_PAIR)
    x, y = sample_instance(kind, config.n, RandomSource(config.seed, _INSTANCE_STREAM))
    f_x, f_y = fingerprint(spec, x), fingerprint(spec, y)
    strategy = strategy or adv.UqstHonest()

    def trial(rng):
        verdict, _ = rrq_eq_run(x, y, f_x, f_y, params, strategy, rng)
        return verdict is Verdict.ACCEPT, {}

    return RunPlan(trial, lambda: None, params.expected_lengths, _echo(x, y))


def _plan_disj(config: ExperimentConfig, strategy) -> RunPlan:
    params = DisjParams.create(
        config.n,
        alpha=float(config.options.get("alpha", 2.0 / 3.0)),
        sample_scale=config.scale if config.scale is not None else 1.0,
    )
    strategy = strategy or adv.DisjHonest()
    default_kind = (
        InstanceKind.DISJ_PAIR
        if isinstance(strategy, adv.DisjHonest)
        else InstanceKind.INTERSECT_PAIR
    )
    kind = _instance_kind(config, default_kind)
    x, y = sample_instance(kind, config.n, RandomSource(config.seed, _INSTANCE_STREAM))
    inst = DisjInstance.encode(x, y, params)
    # disj strategies are deterministic, so one polynomial serves every trial.
    claim = DisjClaim.of(strategy.polynomial(inst, params, RandomSource(config.seed, 7)), params)

    def trial(rng):
        verdict, _ = disj_rrr_run(inst, claim, params, rng)
        return verdict is Verdict.ACCEPT, {}

    return RunPlan(
        trial,
        lambda: disj_rrr_soundness_exact(inst, claim, params),
        params.expected_lengths,
        _echo(x, y),
    )


@dataclass(frozen=True)
class Protocol:
    """One protocol id's entry: its planner, its letter type, and what it
    reads of the config beyond the common fields: its OPTIONAL_FIELDS and
    its option names.  Defaults that depend on n stay in the planner."""

    plan: Callable[[ExperimentConfig, object], RunPlan]
    protocol_type: str
    fields: tuple[str, ...] = ()
    options: tuple[str, ...] = ()


_TRANSFER_OPTIONS = ("a", "eps", "delta")

PROTOCOLS = {
    "eq-rr": Protocol(_plan_eq_rr, "RR", ("instance",)),
    "one-of-two": Protocol(_plan_one_of_two, "RR", ("instance",)),
    "ne-rrr": Protocol(_plan_ne_rrr, "RRR", ("instance", "repetitions"), ("rows", "cols")),
    "eq-qq": Protocol(_plan_eq_qq, "QQ", ("instance", "repetitions")),
    "uqst": Protocol(_plan_uqst, "RQ", ("scale",), (*_TRANSFER_OPTIONS, "referee_mode")),
    "qrq-eq": Protocol(_plan_qrq, "QRQ", ("instance", "repetitions", "scale"), _TRANSFER_OPTIONS),
    "rrq-eq": Protocol(_plan_rrq, "RRQ", ("instance",), ("a", "m_copies")),
    "disj-rrr": Protocol(_plan_disj, "RRR", ("instance", "scale"), ("alpha",)),
}
PROTOCOL_IDS = tuple(PROTOCOLS)


def build_plan(config: ExperimentConfig) -> RunPlan:
    """The run's plan; each planner gets the spec's strategy, or None."""
    try:
        strategy = adv.parse_strategy(config.adversary, config.protocol)
        return PROTOCOLS[config.protocol].plan(config, strategy)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Execution


def _run_range(config_json: dict, start: int, stop: int) -> tuple[int, dict[str, float]]:
    """Pool worker entry: build the plan from the config, run trials [start, stop)."""
    config = ExperimentConfig.from_json(config_json)
    return _run_trials(build_plan(config), config.seed, start, stop)


def _run_trials(
    plan: RunPlan, seed: int, start: int, stop: int
) -> tuple[int, dict[str, float]]:
    accepts = 0
    extras: dict[str, float] = {}
    base = RandomSource(seed)
    for t in range(start, stop):
        ok, extra = plan.trial(base.derive(_TRIAL_STREAM, t))
        accepts += ok
        for k, v in extra.items():
            extras[k] = extras.get(k, 0.0) + v
    return accepts, extras


def default_workers() -> int:
    return max(1, int(os.environ.get("SMPLAB_WORKERS", "1")))


def run(config: ExperimentConfig) -> TrialReport:
    """Execute one experiment; deterministic given (config, seed)."""
    t0 = time.perf_counter()
    plan = build_plan(config)  # validates before any trial
    workers = config.workers if config.workers is not None else default_workers()

    p_hat = None
    extras: dict[str, float] = {}
    if config.mode in ("monte_carlo", "both"):
        T = config.trials
        if workers <= 1 or T < 2 * workers:
            accepts, extras = _run_trials(plan, config.seed, 0, T)
        else:
            bounds = [(T * w) // workers for w in range(workers + 1)]
            accepts = 0
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [
                    pool.submit(_run_range, config.to_json(), lo, hi)
                    for lo, hi in zip(bounds, bounds[1:])
                    if lo < hi
                ]
                for fut in futures:
                    acc, extra = fut.result()
                    accepts += acc
                    for k, v in extra.items():
                        extras[k] = extras.get(k, 0.0) + v
        p_hat = accepts / config.trials
        extras = {k: v / config.trials for k, v in extras.items()}

    exact = plan.exact() if config.mode in ("exact", "both") else None
    ci = hoeffding_half_width(config.trials, config.confidence_beta)
    within = None
    if p_hat is not None and exact is not None:
        within = abs(p_hat - float(exact)) <= ci
    return TrialReport(
        config=config,
        p_hat=p_hat,
        exact=exact,
        ci_half_width=ci,
        within_ci=within,
        lengths=plan.lengths(),
        protocol_type=PROTOCOLS[config.protocol].protocol_type,
        instance_echo=plan.instance_echo,
        extras=extras,
        wall_time_s=time.perf_counter() - t0,
    )


def sweep(template: ExperimentConfig, points: list[dict]) -> list[TrialReport]:
    """One report per grid point; each point overrides template fields.  Every
    point's config and adversary are checked before the first point runs."""
    if not isinstance(points, list) or not points:
        raise ConfigError("sweep needs a nonempty list of grid points")
    configs = []
    for point in points:
        if not isinstance(point, dict):
            raise ConfigError(f"sweep point {point!r} is not a JSON object")
        if not isinstance(point.get("options", {}), dict):
            raise ConfigError(f"sweep point options {point['options']!r} are not a JSON object")
        data = template.to_json()
        for key, value in point.items():
            if key == "options":
                data["options"] = {**data.get("options", {}), **value}
            else:
                data[key] = value
        config = ExperimentConfig.from_json(data)
        adv.parse_strategy(config.adversary, config.protocol)
        configs.append(config)
    return [run(config) for config in configs]


def persist(reports: list[TrialReport], out: str) -> tuple[str, str]:
    """Write <out>.jsonl (deterministic records) and <out>.csv (summary)."""
    jsonl_path, csv_path = out + ".jsonl", out + ".csv"
    with open(jsonl_path, "w") as fh:
        for report in reports:
            fh.write(report.json_line() + "\n")
    with open(csv_path, "w") as fh:
        fh.write(CSV_COLUMNS + "\n")
        for report in reports:
            row = report.csv_row()
            fh.write(",".join(str(row[c]) for c in CSV_COLUMNS.split(",")) + "\n")
    return jsonl_path, csv_path
