"""Correctness gate for benchmark runs.

A run passes when
- its message lengths equal the declared shape of its protocol parameters;
- where an exact acceptance value exists, |p_hat - exact| is within the
  Hoeffding half width at level 1e-3 / R, with R the number of runs the
  workload gated (Bonferroni: a correct program fails a workload with
  probability at most 1e-3, whatever p_hat values the RNG contract draws);
- for uqst, Pr[accept and far] stays within delta plus that half width, the
  (eps, delta) contract of the acceptance battery's criterion 9.
A run that raises is counted as failed by the caller.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

from smplab import harness
from smplab.classical import DisjParams, NeRrrParams, OneOutOfTwoParams
from smplab.codes import CodeSpec
from smplab.quantum import RrqParams, UqstParams

FAMILY_LEVEL = 1e-3
EXACT_PROTOCOLS = ("eq-rr", "one-of-two", "ne-rrr", "eq-qq", "disj-rrr")


def _index_bits(k: int) -> int:
    return max(1, (k - 1).bit_length())


def _qubits(dim: int) -> int:
    return max(1, (dim - 1).bit_length())


def declared_lengths(config: harness.ExperimentConfig) -> dict[str, int]:
    """Per-player message lengths implied by the config's protocol parameters."""
    protocol, n, opts = config.protocol, config.n, config.options
    if protocol == "one-of-two":
        return OneOutOfTwoParams.create(n).expected_lengths()
    if protocol == "ne-rrr":
        return NeRrrParams.create(
            n, repetitions=config.repetitions, rows=opts.get("rows"), cols=opts.get("cols")
        ).expected_lengths()
    if protocol == "disj-rrr":
        return DisjParams.create(
            n, alpha=opts["alpha"], sample_scale=config.scale
        ).expected_lengths()
    if protocol == "uqst":
        return _uqst_params(config, n).expected_lengths()
    spec = CodeSpec.create(n)
    if protocol == "eq-rr":
        return {
            "alice": _index_bits(spec.rows) + spec.cols,
            "bob": _index_bits(spec.cols) + spec.rows,
        }
    fdim = 2 * spec.block_len
    if protocol == "eq-qq":
        return {"alice": _qubits(fdim), "bob": _qubits(fdim)}
    if protocol == "qrq-eq":
        transfer = _uqst_params(config, fdim).expected_lengths()
        return {"alice": _qubits(fdim), "bob": transfer["alice"], "merlin": transfer["merlin"]}
    if protocol == "rrq-eq":
        return RrqParams(n=fdim, a=opts["a"], m_copies=opts["m_copies"]).expected_lengths()
    raise ValueError(f"no declared lengths for {protocol}")


def _uqst_params(config: harness.ExperimentConfig, dim: int) -> UqstParams:
    opts = config.options
    return UqstParams(n=dim, a=opts["a"], eps=opts["eps"], delta=opts["delta"],
                      scale=config.scale)


def half_width(trials: int, runs_gated: int) -> float:
    return harness.hoeffding_half_width(trials, FAMILY_LEVEL / runs_gated)


def reference_exact(report: harness.TrialReport, runs_gated: int) -> Fraction | None:
    """The exact acceptance a Monte Carlo record is checked against: its own
    `exact`, else an exact-mode run of the same config.  None when the
    protocol has no exact evaluator or the half width makes the check vacuous."""
    if report.exact is not None or report.p_hat is None:
        return report.exact
    config = report.config
    if config.protocol not in EXACT_PROTOCOLS or half_width(config.trials, runs_gated) >= 1:
        return None
    return harness.run(dataclasses.replace(config, mode="exact")).exact


def problems(report: harness.TrialReport, runs_gated: int,
             exact: Fraction | None = None) -> list[str]:
    """Reasons the report fails the gate; empty when it passes.  `exact`
    stands in for the report's own exact value when that is missing."""
    config = report.config
    found = []
    declared = declared_lengths(config)
    if report.lengths != declared:
        found.append(f"lengths {report.lengths} != declared {declared}")
    exact = report.exact if report.exact is not None else exact
    width = half_width(config.trials, runs_gated)
    if exact is not None and report.p_hat is not None:
        gap = abs(report.p_hat - float(exact))
        if gap > width:
            found.append(f"|p_hat - exact| = {gap:.4f} > {width:.4f}")
    if config.protocol == "uqst" and report.p_hat is not None:
        far = report.extras.get("accept_and_far", 0.0)
        limit = config.options["delta"] + width
        if far > limit:
            found.append(f"accept_and_far {far:.4f} > delta + half width {limit:.4f}")
    return found
