"""Prover strategies, honest and cheating, for every prover-bearing protocol.

Strategies are pure message factories: the not-equal family produces a row
claim, the disjointness family a candidate polynomial, and the state-transfer
family a block message (product state or classical mixture of product
states).  Cheating strategies are deterministic given their parameters so
exact evaluators can reproduce them; this is the soundness test surface.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .classical import DisjInstance, DisjParams, NeMessage, NeRrrParams, honest_ne_message
from .codes import grid_of, row
from .core import BitString, ConfigError, RandomSource
from .field import UniPoly, interpolate
from .qsim import MixedEnsemble, ProductState, StateVec, dephase_across_blocks, random_state


# ---------------------------------------------------------------------------
# Not-equal prover


def ne_tamper_message(
    x: BitString, y: BitString, u: int, v: int, params: NeRrrParams, row_choice: int = 1
) -> NeMessage:
    """Honest row of C(x) twice, then u flips in the first copy and v in the
    second at the lowest disjoint positions, so the rows end up at Hamming
    distance exactly u + v."""
    m = params.m_cols
    if u < 0 or v < 0 or u + v > m:
        raise ValueError("need u, v >= 0 and u + v <= m")
    base = row(grid_of(params.spec, x), row_choice).array
    r_bits, s_bits = base.copy(), base.copy()
    r_bits[:u] ^= 1
    s_bits[u : u + v] ^= 1
    return NeMessage(row_choice, BitString(r_bits), BitString(s_bits))


@dataclass(frozen=True)
class NeHonest:
    def message(self, x, y, params, rng) -> NeMessage:
        return honest_ne_message(x, y, params)


@dataclass(frozen=True)
class NeTamper:
    u: int
    v: int
    row_choice: int = 1

    def message(self, x, y, params, rng) -> NeMessage:
        return ne_tamper_message(x, y, self.u, self.v, params, self.row_choice)


@dataclass(frozen=True)
class NeArbitrary:
    explicit: NeMessage

    def message(self, x, y, params, rng) -> NeMessage:
        return self.explicit


def random_ne_message(params: NeRrrParams, rng: RandomSource) -> NeMessage:
    g = rng.generator()
    k = int(g.integers(1, params.a_rows + 1))
    r = BitString(g.integers(0, 2, size=params.m_cols))
    s = BitString(g.integers(0, 2, size=params.m_cols))
    return NeMessage(k, r, s)


# ---------------------------------------------------------------------------
# Disjointness prover


def disj_wrong_poly(s: UniPoly, params: DisjParams, rng: RandomSource) -> UniPoly:
    """A wrong candidate s' = s + delta for the honest polynomial s, with a
    passing block sum: delta is a random nonzero polynomial whose values over
    the row nodes sum to minus the true intersection count, so
    sum_i s'(i) = 0 mod q."""
    q = params.field.q
    target = (-params.block_sum(s)) % q
    node_power_sums = params.node_power_sums
    g = rng.generator()
    inv_rows = pow(params.rows, q - 2, q)
    while True:
        tail = [int(c) for c in g.integers(0, q, size=params.degree_bound)]
        head = (
            (target - sum(c * p for c, p in zip(tail, node_power_sums[1:])))
            * inv_rows
        ) % q
        delta = UniPoly(tuple([head] + tail), params.field)
        if delta.degree >= 0:  # nonzero, hence s' != s
            break
    coeffs_s = list(s.coeffs) + [0] * (params.degree_bound + 1 - len(s.coeffs))
    coeffs_d = list(delta.coeffs) + [0] * (params.degree_bound + 1 - len(delta.coeffs))
    return UniPoly(tuple((a + b) % q for a, b in zip(coeffs_s, coeffs_d)), params.field)


def _true_polynomial(inst: DisjInstance, params: DisjParams) -> UniPoly:
    """s itself, interpolated from the encoding's true values at the first
    2*rows - 1 points of S; the same nodes and values as s_polynomial."""
    npts = 2 * params.rows - 1
    return interpolate(
        params.eval_set[:npts].tolist(), inst.s_values[:npts].tolist(), params.field
    )


@dataclass(frozen=True)
class DisjHonest:
    def polynomial(self, inst: DisjInstance, params, rng) -> UniPoly:
        return _true_polynomial(inst, params)


@dataclass(frozen=True)
class DisjWrongPoly:
    """Wrong-polynomial prover with its own seed, so the candidate is fixed
    across trials and exact evaluators see the same polynomial."""

    seed: int = 0

    def polynomial(self, inst: DisjInstance, params, rng) -> UniPoly:
        s = _true_polynomial(inst, params)
        return disj_wrong_poly(s, params, RandomSource(self.seed, 0x0D15))


# ---------------------------------------------------------------------------
# State-transfer prover


def _check_gamma(gamma: float) -> None:
    if not 0 <= gamma <= 1:
        raise ValueError(f"gamma {gamma} must lie in [0, 1]")


def uqst_far_product(
    phi: StateVec, gamma: float, m_copies: int, rng: RandomSource
) -> ProductState:
    """m copies of one fixed state at trace distance exactly gamma from phi,
    built by rotating phi toward a random orthogonal direction."""
    _check_gamma(gamma)
    if gamma == 0:
        far = phi
    else:
        g = rng.generator()
        raw = random_state(phi.dim, g).amplitudes
        raw = raw - np.vdot(phi.amplitudes, raw) * phi.amplitudes
        w = StateVec.normalized(raw)
        theta = math.asin(gamma)
        far = StateVec.normalized(
            math.cos(theta) * phi.amplitudes + math.sin(theta) * w.amplitudes
        )
    return ProductState((far,) * m_copies)


@dataclass(frozen=True)
class UqstHonest:
    def blocks(self, phi: StateVec, params, rng) -> ProductState:
        return ProductState((phi,) * params.m_copies)


@dataclass(frozen=True)
class UqstFarProduct:
    gamma: float
    seed: int = 0

    def __post_init__(self):
        _check_gamma(self.gamma)

    def blocks(self, phi: StateVec, params, rng) -> ProductState:
        return uqst_far_product(phi, self.gamma, params.m_copies, RandomSource(self.seed, 0xFA5))


@dataclass(frozen=True)
class UqstMixed:
    """Classical mixture of far-product components: ((weight, gamma), ...)."""

    components: tuple[tuple[float, float], ...]
    seed: int = 0

    def __post_init__(self):
        if not self.components:
            raise ValueError("need at least one component")
        weights = [w for w, _ in self.components]
        if any(w < 0 for w in weights) or abs(sum(weights) - 1.0) > 1e-12:
            raise ValueError(f"weights {weights} must be nonnegative and sum to 1")
        for _, gamma in self.components:
            _check_gamma(gamma)

    def blocks(self, phi: StateVec, params, rng) -> MixedEnsemble:
        states = tuple(
            uqst_far_product(phi, gamma, params.m_copies, RandomSource(self.seed, 0xE25 + k))
            for k, (_, gamma) in enumerate(self.components)
        )
        return MixedEnsemble(tuple(w for w, _ in self.components), states)


@dataclass(frozen=True)
class UqstWrongCount:
    count: int

    def blocks(self, phi: StateVec, params, rng) -> ProductState:
        return ProductState((phi,) * self.count)


@dataclass(frozen=True)
class ProductCopies:
    """Copies of an explicit state (e.g. the fingerprint of the wrong input)."""

    state: StateVec

    def blocks(self, phi: StateVec, params, rng) -> ProductState:
        return ProductState((self.state,) * params.m_copies)


@dataclass(frozen=True)
class QrqCrossFingerprint:
    """Copies of Alice's fingerprint f_x where f_y belongs; the qrq-eq plan
    runs it as ProductCopies(f_x), since only the plan knows f_x."""


def uqst_entangled_pair(d1: int, d2: int) -> tuple[StateVec, MixedEnsemble]:
    """Maximally entangled two-block state plus its dephased ensemble; used
    only to validate that block-local measurement statistics coincide."""
    if d1 * d2 > 16:
        raise ValueError("entangled-pair check limited to joint dimension <= 16")
    d = min(d1, d2)
    amps = np.zeros(d1 * d2, dtype=np.complex128)
    for i in range(d):
        amps[i * d2 + i] = 1.0 / math.sqrt(d)
    joint = StateVec(amps)
    return joint, dephase_across_blocks(joint, d1, d2)


# ---------------------------------------------------------------------------
# JSON strategy specs (harness configuration)

_TRANSFER = ("uqst", "qrq-eq", "rrq-eq")


@dataclass(frozen=True)
class Variant:
    """One JSON strategy variant: its constructor, whose parameters are the
    spec's fields (a parameter with a default is an optional field), and the
    protocols whose plans can run what it builds."""

    build: Callable[..., object]
    protocols: tuple[str, ...]


def _ne_arbitrary(k_row, r_row, s_row) -> NeArbitrary:
    return NeArbitrary(
        NeMessage(int(k_row), BitString.from_text(r_row), BitString.from_text(s_row))
    )


def _uqst_mixed(components, seed=0) -> UqstMixed:
    comps = tuple((float(c["weight"]), float(c["gamma"])) for c in components)
    return UqstMixed(comps, int(seed))


# Protocols that no variant lists (eq-rr, one-of-two, eq-qq) take no adversary.
VARIANTS = {
    "NeHonest": Variant(NeHonest, ("ne-rrr",)),
    "NeTamper": Variant(
        lambda u, v, row_choice=1: NeTamper(int(u), int(v), int(row_choice)), ("ne-rrr",)
    ),
    "NeArbitrary": Variant(_ne_arbitrary, ("ne-rrr",)),
    "DisjHonest": Variant(DisjHonest, ("disj-rrr",)),
    "DisjWrongPoly": Variant(lambda seed=0: DisjWrongPoly(int(seed)), ("disj-rrr",)),
    "UqstHonest": Variant(UqstHonest, _TRANSFER),
    "UqstFarProduct": Variant(
        lambda gamma, seed=0: UqstFarProduct(float(gamma), int(seed)), _TRANSFER
    ),
    "UqstMixed": Variant(_uqst_mixed, _TRANSFER),
    "UqstWrongCount": Variant(lambda count: UqstWrongCount(int(count)), _TRANSFER),
    "QrqCrossFingerprint": Variant(QrqCrossFingerprint, ("qrq-eq",)),
    "RrqOrthogonalJunk": Variant(lambda: UqstFarProduct(1.0), ("rrq-eq",)),
}


def parse_strategy(spec: dict | None, protocol: str):
    """The strategy that the JSON spec {"variant": name, ...fields} builds for
    a run of `protocol`; no spec gives None.  A spec the protocol cannot run
    raises ConfigError naming the protocol and the variants it accepts."""
    if spec is None:
        return None
    accepted = [name for name, variant in VARIANTS.items() if protocol in variant.protocols]
    if not accepted:
        raise ConfigError(f"{protocol} takes no adversary")
    valid = f"{protocol} accepts {', '.join(accepted)}"
    if not isinstance(spec, dict):
        raise ConfigError(f"adversary spec {spec!r} is not a JSON object; {valid}")
    fields = dict(spec)
    name = fields.pop("variant", None)
    if name not in accepted:
        raise ConfigError(f"adversary {name!r} is not a {protocol} variant; {valid}")
    build = VARIANTS[name].build
    try:
        inspect.signature(build).bind(**fields)
        return build(**fields)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad {name} spec {spec}: {exc}; {valid}") from exc
