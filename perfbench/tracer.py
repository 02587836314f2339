"""Per-layer tracing for the traced benchmark run.

The tracer replaces each layer function with a wrapper at every name its
callers look up: `from .codes import grid_of` copies the binding into
`smplab.classical` and `smplab.adversaries`, so wrapping only
`smplab.codes.grid_of` would miss those calls.  Methods are wrapped on their
class.  The `RunPlan` closures are reached through `smplab.harness.build_plan`.

Each call opens a span (name, start, parent) on a stack; when the span ends,
its duration is added to its parent's child time and aggregated per name as
calls, total time and self time (duration minus child spans).  Calls made
inside a `harness.trial` span are also counted per protocol and divided by
the trials the traced runs asked for, so per-trial ratios are measured where
the work happens.  Nothing is kept per span once it closes, so memory stays
flat however long the traced pass runs.

A listed function or plan field that the program no longer has is skipped
and its metrics read 0, so a refactor of smplab cannot break the traced run.
"""

from __future__ import annotations

import dataclasses
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Layer functions by defining module and qualified name.  The span name is
# the module's short name plus the qualified name, e.g. "codes.grid_of".
FUNCTIONS = (
    "core:RandomSource.generator",
    "core:RandomSource.derive",
    "core:BitString.__post_init__",
    "core:BitString.from_array",
    "core:sample_instance",
    "codes:encode_array",
    "codes:encode",
    "codes:grid_of",
    "codes:row",
    "codes:column",
    "codes:best_row",
    "codes:row_distances",
    "field:lde_eval_block",
    "field:s_polynomial",
    "field:interpolate",
    "field:poly_eval",
    "field:poly_eval_many",
    "qsim:haar_subspace",
    "qsim:project",
    "qsim:fingerprint",
    "qsim:quantize",
    "qsim:dequantize",
    "qsim:fidelity",
    "classical:eq_rr_run",
    "classical:one_out_of_two_run",
    "classical:ne_rrr_run",
    "classical:disj_rrr_run",
    "classical:eq_rr_exact",
    "classical:one_out_of_two_exact",
    "classical:ne_rrr_exact",
    "classical:disj_rrr_soundness_exact",
    "quantum:eq_qq_run",
    "quantum:uqst_run",
    "quantum:qrq_eq_run",
    "quantum:rrq_eq_run",
    "harness:run",
    "harness:persist",
)

STRATEGY_METHODS = ("message", "polynomial", "blocks")
GRID_PROTOCOLS = ("eq-rr", "one-of-two", "ne-rrr")
TRIAL_SPAN = "harness.trial"
# RunPlan fields by span name; "trials" is the batched form of "trial".
PLAN_SPANS = {
    "trial": TRIAL_SPAN,
    "trials": TRIAL_SPAN,
    "exact": "harness.exact",
    "lengths": "harness.lengths",
}


class Tracer:
    """Installs span wrappers into the loaded smplab modules and aggregates
    them per function.  `install` and `uninstall` bracket the traced pass."""

    def __init__(self):
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.trial_calls: Counter = Counter()  # (span name, protocol) -> calls in a trial
        self.trials: Counter = Counter()  # protocol -> Monte Carlo trials requested
        self.projected: set[int] = set()  # distinct (block, subspace) inputs to project
        self.protocol: str | None = None
        self._stack: list[list] = []  # open spans: [child_s, name, in_trial, parent]
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, before=None):
        stack, stats, trial_calls = self._stack, self.stats, self.trial_calls

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            parent = stack[-1] if stack else None
            in_trial = name == TRIAL_SPAN or (parent is not None and parent[2])
            span = [0.0, name, in_trial, parent]
            stack.append(span)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                if parent is not None:
                    parent[0] += duration
                agg = stats[name]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - span[0]
                if in_trial:
                    trial_calls[name, self.protocol] += 1

        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import smplab.adversaries
        import smplab.harness

        modules = [m for k, m in sys.modules.items() if k.startswith("smplab.") and m]
        hooks = {
            "harness.run": self._enter_run,
            "qsim.project": self._note_projection,
        }
        for target in FUNCTIONS:
            short, qualname = target.split(":")
            owner = sys.modules[f"smplab.{short}"]
            *cls_path, attr = qualname.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            if not hasattr(owner, attr):
                continue
            name = f"{short}.{qualname}"
            if cls_path:
                self._patch_class(owner, attr, name)
            else:
                self._patch_everywhere(modules, getattr(owner, attr), name, hooks.get(name))

        for cls in vars(smplab.adversaries).values():
            if isinstance(cls, type) and cls.__module__ == "smplab.adversaries":
                for method in STRATEGY_METHODS:
                    if method in vars(cls):
                        self._patch_class(cls, method, f"adversaries.{cls.__name__}.{method}")

        build_plan = smplab.harness.build_plan
        traced_build = self.wrap("harness.build_plan", build_plan)
        wrap = self.wrap

        def build_traced_plan(config):
            plan = traced_build(config)
            return dataclasses.replace(plan, **{
                f.name: wrap(PLAN_SPANS[f.name], getattr(plan, f.name))
                for f in dataclasses.fields(plan) if f.name in PLAN_SPANS
            })

        self._patch_everywhere(modules, build_plan, None, replacement=build_traced_plan)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch_everywhere(self, modules, original, name, before=None, replacement=None):
        wrapper = replacement or self.wrap(name, original, before)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _patch_class(self, cls, attr, name):
        raw = vars(cls)[attr]
        if isinstance(raw, staticmethod):
            replacement = staticmethod(self.wrap(name, raw.__func__))
        else:
            replacement = self.wrap(name, raw)
        self._undo.append((cls, attr, raw))
        setattr(cls, attr, replacement)

    def _enter_run(self, args) -> None:
        config = args[0]
        self.protocol = config.protocol
        if config.mode != "exact":
            self.trials[config.protocol] += config.trials

    def _note_projection(self, args) -> None:
        block, subspace = args[0], args[1]
        self.projected.add(hash((block.amplitudes.tobytes(), subspace.basis.tobytes())))

    # -- aggregation ------------------------------------------------------

    def calls(self, *names: str) -> int:
        return sum(self.stats[n][0] for n in names if n in self.stats)

    def total_s(self, *names: str) -> float:
        return sum(self.stats[n][1] for n in names if n in self.stats)

    def self_s(self, *names: str) -> float:
        return sum(self.stats[n][2] for n in names if n in self.stats)

    def per_trial(self, names, protocols=None) -> float:
        """Calls of `names` made inside trial spans, per trial, over the trials
        of `protocols` (all protocols when None)."""
        def keep(proto):
            return protocols is None or proto in protocols

        trials = sum(c for p, c in self.trials.items() if keep(p))
        hits = sum(c for (n, p), c in self.trial_calls.items() if n in names and keep(p))
        return hits / trials if trials else 0.0

    def strategy_names(self) -> list[str]:
        return [n for n in self.stats if n.startswith("adversaries.")]

    def table(self) -> list[dict]:
        """Per-function aggregates, slowest self time first."""
        rows = [
            {"span": n, "calls": a[0], "total_s": a[1], "self_s": a[2]}
            for n, a in self.stats.items()
        ]
        return sorted(rows, key=lambda r: -r["self_s"])


def layer_metrics(tr: Tracer, store_entries: int, overhead_frac: float,
                  pool_dispatch_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit).  Layer
    times are self times, so layers do not double count one another; the
    harness phase times are inclusive wall times of each phase."""
    projects = tr.calls("qsim.project")
    runs = tr.calls("harness.run")
    strategies = tr.strategy_names()
    return {
        "core.rng_streams_per_trial": (
            tr.per_trial(("core.RandomSource.generator",)), "1/trial"),
        "core.rng_setup_s": (
            tr.self_s("core.RandomSource.generator", "core.RandomSource.derive"), "s"),
        "core.bitstring_calls": (
            tr.calls("core.BitString.__post_init__", "core.BitString.from_array"), "count"),
        "core.bitstring_s": (
            tr.self_s("core.BitString.__post_init__", "core.BitString.from_array"), "s"),
        "core.sample_instance_s": (tr.self_s("core.sample_instance"), "s"),
        "codes.grid_of_per_trial": (
            tr.per_trial(("codes.grid_of",), GRID_PROTOCOLS), "1/trial"),
        "codes.encode_s": (
            tr.self_s("codes.encode_array", "codes.encode", "codes.grid_of"), "s"),
        "codes.view_s": (
            tr.self_s("codes.row", "codes.column", "codes.best_row", "codes.row_distances"),
            "s"),
        "field.lde_eval_block_calls": (tr.calls("field.lde_eval_block"), "count"),
        "field.lde_eval_block_s": (tr.self_s("field.lde_eval_block"), "s"),
        "field.s_polynomial_per_trial": (tr.per_trial(("field.s_polynomial",)), "1/trial"),
        "field.s_polynomial_s": (tr.self_s("field.s_polynomial"), "s"),
        "field.interpolate_s": (tr.self_s("field.interpolate"), "s"),
        "field.poly_eval_s": (tr.self_s("field.poly_eval", "field.poly_eval_many"), "s"),
        "qsim.haar_subspace_calls": (tr.calls("qsim.haar_subspace"), "count"),
        "qsim.haar_subspace_s": (tr.self_s("qsim.haar_subspace"), "s"),
        "qsim.project_calls": (projects, "count"),
        "qsim.project_s": (tr.self_s("qsim.project"), "s"),
        "qsim.project_unique_frac": (
            len(tr.projected) / projects if projects else 0.0, "ratio"),
        "qsim.fingerprint_s": (tr.self_s("qsim.fingerprint"), "s"),
        "qsim.quantize_s": (tr.self_s("qsim.quantize", "qsim.dequantize"), "s"),
        "qsim.fidelity_s": (tr.self_s("qsim.fidelity"), "s"),
        "qsim.store_entries": (store_entries, "count"),
        "classical.run_self_s": (
            tr.self_s("classical.eq_rr_run", "classical.one_out_of_two_run",
                      "classical.ne_rrr_run", "classical.disj_rrr_run"), "s"),
        "classical.exact_s": (
            tr.self_s("classical.eq_rr_exact", "classical.one_out_of_two_exact",
                      "classical.ne_rrr_exact", "classical.disj_rrr_soundness_exact"), "s"),
        "quantum.run_self_s": (
            tr.self_s("quantum.eq_qq_run", "quantum.uqst_run", "quantum.qrq_eq_run",
                      "quantum.rrq_eq_run"), "s"),
        "adversaries.strategy_calls_per_trial": (tr.per_trial(strategies), "1/trial"),
        "adversaries.strategy_s": (tr.self_s(*strategies), "s"),
        "harness.build_plan_per_run": (
            tr.calls("harness.build_plan") / runs if runs else 0.0, "1/run"),
        "harness.build_plan_s": (tr.total_s("harness.build_plan"), "s"),
        "harness.trial_s": (tr.total_s(TRIAL_SPAN), "s"),
        "harness.exact_s": (tr.total_s("harness.exact"), "s"),
        "harness.lengths_s": (tr.total_s("harness.lengths"), "s"),
        "harness.persist_s": (tr.total_s("harness.persist"), "s"),
        "harness.pool_dispatch_s": (pool_dispatch_s, "s"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
    }
