"""Quantum-side protocols: fingerprint equality, untrusted state transfer
(a trusted classical sender plus an untrusted quantum prover deliver an
approximate state copy to the referee), and the two compositions that
de-quantize one or both fingerprint messages through that transfer.

The sender and the referee derive the verification subspace, including its
fixed basis, from a shared seeded stream, which stands in for their shared
randomness; the prover's stream is independent of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

from .codes import CodeSpec, encode_array
from .core import BitString, Message, RandomSource, Transcript, Verdict
from .qsim import (
    MixedEnsemble,
    ProductState,
    StateVec,
    Subspace,
    bits_for_target,
    dequantize,
    fidelity,
    haar_subspace,
    project,
    quantize,
    swap_test_prob,
)

_STREAM_SHARED_A = 0
_STREAM_SHARED_B = 1
_STREAM_MERLIN = 2
_STREAM_REFEREE = 3

REFEREE_MODES = ("swap", "project_psi")


def _qubits(dim: int) -> int:
    return max(1, (dim - 1).bit_length())


# ---------------------------------------------------------------------------
# Fingerprint equality (both players quantum, no prover)


def eq_qq_round_prob(x: BitString, y: BitString, spec: CodeSpec) -> Fraction:
    """Exact per-round swap-test acceptance 1/2 + <h_x|h_y>^2 / 2."""
    if x.n != y.n:
        raise ValueError("input length mismatch")
    d = int((encode_array(spec, x) != encode_array(spec, y)).sum())
    N = spec.block_len
    return Fraction(1, 2) + Fraction((N - d) ** 2, 2 * N * N)


def eq_qq_lengths(spec: CodeSpec) -> dict[str, int]:
    """Closed-form eq-qq message lengths: each player's fingerprint qubits."""
    qubits = _qubits(2 * spec.block_len)
    return {"alice": qubits, "bob": qubits}


def eq_qq_run(
    x: BitString,
    y: BitString,
    round_prob: Fraction,
    spec: CodeSpec,
    repetitions: int,
    rng: RandomSource,
) -> tuple[Verdict, Transcript]:
    """A sampled decision over `repetitions` independent swap tests, each
    accepting with the instance's closed-form `round_prob`
    (eq_qq_round_prob); accept iff all rounds accept."""
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    p = float(round_prob)
    g = rng.generator()
    accept = all(g.random() < p for _ in range(repetitions))
    qubits = _qubits(2 * spec.block_len)
    transcript = Transcript(
        alice=Message("quantum", qubits, ("fingerprint", x)),
        bob=Message("quantum", qubits, ("fingerprint", y)),
        merlin=None,
        protocol_type="QQ",
    )
    return (Verdict.ACCEPT if accept else Verdict.REJECT), transcript


# ---------------------------------------------------------------------------
# Untrusted quantum state transfer


@dataclass(frozen=True)
class UqstParams:
    """Transfer parameters.

    With scale = 1 the copy and survivor counts follow the design constants
    m = 200 n / (a eps^2 delta^3) and k = 100 / (delta^3 eps^2); those are far
    beyond desk scale, so experiments shrink both through `scale` and record
    it.  The classical description is quantized to trace-distance target
    eps^2 delta^4 / 100 regardless of scale.
    """

    n: int
    a: int
    eps: float
    delta: float
    scale: float = 1.0

    def __post_init__(self):
        if not 1 <= self.a <= self.n:
            raise ValueError("need 1 <= a <= n")
        if not (0 < self.eps < 1 and 0 < self.delta < 1):
            raise ValueError("eps and delta must lie in (0, 1)")
        if self.a > self.eps * self.n:
            raise ValueError(
                "a <= eps*n is required; beyond that the sender could ship "
                "the full description and the prover would be pointless"
            )
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    @property
    def m_copies(self) -> int:
        return math.ceil(self.scale * 200 * self.n / (self.a * self.eps**2 * self.delta**3))

    @property
    def k_surv(self) -> int:
        return math.ceil(self.scale * 100 / (self.delta**3 * self.eps**2))

    @property
    def quant_target(self) -> float:
        return self.eps**2 * self.delta**4 / 100

    @property
    def bits(self) -> int:
        return bits_for_target(self.a, self.quant_target)

    def expected_lengths(self) -> dict[str, int]:
        return {
            "alice": 2 * self.a * self.bits,
            "merlin": self.m_copies * _qubits(self.n),
        }

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "a": self.a,
            "eps": self.eps,
            "delta": self.delta,
            "scale": self.scale,
            "m_copies": self.m_copies,
            "k_surv": self.k_surv,
            "bits": self.bits,
        }


@dataclass(frozen=True)
class UqstOutcome:
    accepted: bool
    output_state: StateVec | None
    survivors: int
    diagnostics: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.accepted != (self.output_state is not None):
            raise ValueError("output state present iff accepted")

    def to_json(self) -> dict:
        out = {
            "accepted": self.accepted,
            "survivors": self.survivors,
            "diagnostics": self.diagnostics,
        }
        if self.output_state is not None:
            out["output_state"] = self.output_state.to_json()
        return out


def _reject(survivors: int, diagnostics: dict) -> UqstOutcome:
    return UqstOutcome(False, None, survivors, diagnostics)


def _verify_blocks(
    blocks: tuple[StateVec, ...], indices: list[int], v: Subspace, gen, sent
) -> tuple[list[float], list[tuple[int, StateVec]]]:
    """Measure the indexed blocks with {V, I-V}: each index's survival
    probability and the surviving (index, coords) pairs, in index order.
    Equal blocks are projected once, and blocks equal to the sender's state
    not at all: `sent` is that (state, projection onto V) pair.  One batched
    draw takes the coins of the non-flagged blocks, the same stream values
    as one draw per block."""
    state, proj = sent
    seen = {state.amplitudes.tobytes(): proj}
    projs = []
    for j in indices:
        key = blocks[j].amplitudes.tobytes()
        if key not in seen:
            seen[key] = project(blocks[j], v)
        projs.append(seen[key])
    live = [(j, proj) for j, proj in zip(indices, projs) if not proj.flagged]
    coins = gen.random(len(live))
    survivors = [(j, proj.coords) for (j, proj), c in zip(live, coins) if c < proj.survival_prob]
    return [proj.survival_prob for proj in projs], survivors


def uqst_run(
    phi: StateVec,
    params: UqstParams,
    merlin,
    rng: RandomSource,
    referee_mode: str = "swap",
) -> UqstOutcome:
    """One transfer run.

    1. sender and referee derive the shared subspace V and its basis;
    2. the sender's message is the quantized projection of phi onto V;
    3. the referee reserves a uniformly random block, untouched;
    4. every other block is measured with {V, I-V};
    5. fewer survivors than k -> reject, else keep the first k in block order;
    6. each kept (projected, renormalized) block is swap-tested against the
       dequantized description, any failure -> reject;
    7. else accept and output the reserved block.

    referee_mode "project_psi" replaces step 6's swap test by the two-outcome
    observable projecting onto the described state (optional sharper mode).
    """
    if referee_mode not in REFEREE_MODES:
        raise ValueError(f"unknown referee mode {referee_mode!r}")
    if phi.dim != params.n:
        raise ValueError("state dimension does not match params")
    v = haar_subspace(params.n, params.a, rng.derive(_STREAM_SHARED_A))
    sender_proj = project(phi, v)
    diagnostics: dict[str, Any] = {"params": params.to_json(), "referee_mode": referee_mode}
    if sender_proj.flagged:
        diagnostics["note"] = "sender projection vanished"
        return _reject(0, diagnostics)
    described = quantize(sender_proj.coords, params.bits)
    psi = dequantize(described)
    diagnostics["sender_survival_prob"] = sender_proj.survival_prob
    diagnostics["alice_bits"] = described.bit_length

    message = merlin.blocks(phi, params, rng.derive(_STREAM_MERLIN))
    if isinstance(message, MixedEnsemble):
        message = message.sample(rng.derive(_STREAM_MERLIN, 1).generator())
    if isinstance(message, ProductState):
        dim = message.uniform_block_dim()
        diagnostics["merlin_qubits"] = (message.m_copies * _qubits(dim) if dim is not None
                                        else sum(_qubits(b.dim) for b in message.blocks))
    if not isinstance(message, ProductState) or message.m_copies != params.m_copies:
        diagnostics["note"] = "wrong block count"
        return _reject(0, diagnostics)
    if dim != params.n:
        diagnostics["note"] = "wrong block dimension"
        return _reject(0, diagnostics)

    gen = rng.derive(_STREAM_REFEREE).generator()
    reserved = int(gen.integers(0, params.m_copies))
    diagnostics["reserved_block"] = reserved

    checked = [j for j in range(params.m_copies) if j != reserved]
    survivals, survivors = _verify_blocks(message.blocks, checked, v, gen, (phi, sender_proj))
    survivals.insert(reserved, None)
    diagnostics["block_survival_probs"] = survivals
    diagnostics["survivor_blocks"] = [j for j, _ in survivors]
    if len(survivors) < params.k_surv:
        diagnostics["note"] = "too few survivors"
        return _reject(len(survivors), diagnostics)

    kept = survivors[: params.k_surv]
    tests = []
    for (j, coords), coin in zip(kept, gen.random(len(kept))):
        # both states live in V, so the fidelity equals the coordinate overlap
        p = swap_test_prob(psi, coords) if referee_mode == "swap" else fidelity(psi, coords) ** 2
        tests.append({"block": j, "accept_prob": p, "passed": bool(coin < p)})
    diagnostics["swap_tests"] = tests
    if not all(test["passed"] for test in tests):
        diagnostics["note"] = "verification test failed"
        return _reject(len(survivors), diagnostics)
    return UqstOutcome(True, message.blocks[reserved], len(survivors), diagnostics)


# ---------------------------------------------------------------------------
# Equality with quantum Alice, classical Bob, quantum prover


def qrq_eq_lengths(params: UqstParams) -> dict[str, int]:
    """Closed-form qrq-eq message lengths: Alice's fingerprint qubits, then
    Bob's transfer description and the prover's blocks."""
    transfer = params.expected_lengths()
    return {"alice": _qubits(params.n), "bob": transfer["alice"], "merlin": transfer["merlin"]}


def qrq_eq_run(
    x: BitString,
    y: BitString,
    f_x: StateVec,
    f_y: StateVec,
    params: UqstParams,
    merlin,
    rng: RandomSource,
    repetitions: int = 1,
) -> tuple[Verdict, Transcript]:
    """Alice sends her fingerprint f_x as a quantum message; Bob plays the
    classical sender of the state transfer for his fingerprint f_y; the
    referee recovers a copy and swap-tests it against Alice's.  Accept means
    x = y.  The fingerprints are fixed by the instance, so they are arguments."""
    if params.n != f_x.dim:
        raise ValueError("transfer params must match the fingerprint dimension")
    qubits = _qubits(f_x.dim)
    transcript = None
    for rep in range(repetitions):
        sub = rng.derive(10 + rep)
        outcome = uqst_run(f_y, params, merlin, sub)
        if transcript is None:
            transcript = Transcript(
                alice=Message("quantum", qubits, ("fingerprint", x)),
                bob=Message("classical", outcome.diagnostics.get("alice_bits", 0), None),
                merlin=Message("quantum", params.m_copies * qubits, ("blocks", y)),
                protocol_type="QRQ",
            )
        # a reject is final and each repetition has its own stream: stop here
        if not (outcome.accepted and sub.derive(99).generator().random()
                < swap_test_prob(f_x, outcome.output_state)):
            return Verdict.REJECT, transcript
    return Verdict.ACCEPT, transcript


# ---------------------------------------------------------------------------
# Equality with classical players and a quantum prover


@dataclass(frozen=True)
class RrqParams:
    """Both fingerprints are de-quantized through shared subspaces; the
    prover ships copies of the (claimed common) fingerprint."""

    n: int  # fingerprint dimension
    a: int
    m_copies: int
    eps: float = 0.5
    delta: float = 0.25

    def __post_init__(self):
        if not 1 <= self.a <= self.n:
            raise ValueError("need 1 <= a <= n")
        if self.m_copies < 2 or self.m_copies % 2:
            raise ValueError("need an even number of blocks >= 2")

    @property
    def bits(self) -> int:
        return bits_for_target(self.a, self.eps**2 * self.delta**4 / 100)

    def expected_lengths(self) -> dict[str, int]:
        side = 2 * self.a * self.bits
        return {
            "alice": side,
            "bob": side,
            "merlin": self.m_copies * _qubits(self.n),
        }


def rrq_eq_run(
    x: BitString,
    y: BitString,
    f_x: StateVec,
    f_y: StateVec,
    params: RrqParams,
    merlin,
    rng: RandomSource,
) -> tuple[Verdict, Transcript]:
    """Split the prover's blocks by a uniform balanced partition, verify one
    half against Alice's transmitted projection of f_x and the other against
    Bob's of f_y; reject on any failed test or an empty survivor set on
    either half."""
    if params.n != f_x.dim:
        raise ValueError("params must match the fingerprint dimension")
    v_a = haar_subspace(params.n, params.a, rng.derive(_STREAM_SHARED_A))
    v_b = haar_subspace(params.n, params.a, rng.derive(_STREAM_SHARED_B))
    proj_a, proj_b = project(f_x, v_a), project(f_y, v_b)

    qubits = _qubits(params.n)
    described_a = quantize(proj_a.coords, params.bits) if not proj_a.flagged else None
    described_b = quantize(proj_b.coords, params.bits) if not proj_b.flagged else None
    transcript = Transcript(
        alice=Message(
            "classical", described_a.bit_length if described_a else 0, described_a
        ),
        bob=Message(
            "classical", described_b.bit_length if described_b else 0, described_b
        ),
        merlin=Message("quantum", params.m_copies * qubits, ("blocks", x)),
        protocol_type="RRQ",
    )
    if described_a is None or described_b is None:
        return Verdict.REJECT, transcript

    message = merlin.blocks(f_x, params, rng.derive(_STREAM_MERLIN))
    if isinstance(message, MixedEnsemble):
        message = message.sample(rng.derive(_STREAM_MERLIN, 1).generator())
    if (
        not isinstance(message, ProductState)
        or message.m_copies != params.m_copies
        or message.uniform_block_dim() != params.n
    ):
        return Verdict.REJECT, transcript

    gen = rng.derive(_STREAM_REFEREE).generator()
    perm = gen.permutation(params.m_copies)
    half = params.m_copies // 2
    for idx, v, described, sent in ((perm[:half], v_a, described_a, (f_x, proj_a)),
                                    (perm[half:], v_b, described_b, (f_y, proj_b))):
        _, survivors = _verify_blocks(message.blocks, sorted(idx.tolist()), v, gen, sent)
        if not survivors:
            return Verdict.REJECT, transcript
        psi, coins = dequantize(described), gen.random(len(survivors))
        if not all(c < swap_test_prob(psi, coords) for (_, coords), c in zip(survivors, coins)):
            return Verdict.REJECT, transcript
    return Verdict.ACCEPT, transcript
