"""Prover strategies, honest and cheating, for every prover-bearing protocol.

Strategies are pure message factories: the not-equal family produces a row
claim, the disjointness family a candidate polynomial, and the state-transfer
family a block message (product state or classical mixture of product
states).  Cheating strategies are deterministic given their parameters so
exact evaluators can reproduce them; this is the soundness test surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import DisjParams, NeMessage, NeRrrParams, honest_ne_message
from .codes import grid_of, row
from .core import BitString, RandomSource
from .field import UniPoly, s_polynomial
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


@dataclass(frozen=True)
class DisjHonest:
    def polynomial(self, x, y, params, rng) -> UniPoly:
        return s_polynomial(*params.tables(x, y))


@dataclass(frozen=True)
class DisjWrongPoly:
    """Wrong-polynomial prover with its own seed, so the candidate is fixed
    across trials and exact evaluators see the same polynomial."""

    seed: int = 0

    def polynomial(self, x, y, params, rng) -> UniPoly:
        s = s_polynomial(*params.tables(x, y))
        return disj_wrong_poly(s, params, RandomSource(self.seed, 0x0D15))


# ---------------------------------------------------------------------------
# State-transfer prover


def uqst_far_product(
    phi: StateVec, gamma: float, m_copies: int, rng: RandomSource
) -> ProductState:
    """m copies of one fixed state at trace distance exactly gamma from phi,
    built by rotating phi toward a random orthogonal direction."""
    if not 0 <= gamma <= 1:
        raise ValueError("gamma must lie in [0, 1]")
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

    def blocks(self, phi: StateVec, params, rng) -> ProductState:
        return uqst_far_product(phi, self.gamma, params.m_copies, RandomSource(self.seed, 0xFA5))


@dataclass(frozen=True)
class UqstMixed:
    """Classical mixture of far-product components: ((weight, gamma), ...)."""

    components: tuple[tuple[float, float], ...]
    seed: int = 0

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


@dataclass(frozen=True)
class UqstEntangledPair:
    """Entangled two-block probe for the dephasing claim.  Deliberately not a
    run adversary (density-matrix cost); it only exposes the pair."""

    d1: int = 2
    d2: int = 2

    def pair(self) -> tuple[StateVec, MixedEnsemble]:
        return uqst_entangled_pair(self.d1, self.d2)


# ---------------------------------------------------------------------------
# JSON strategy specs (harness configuration)

_MARKER_VARIANTS = ("QrqCrossFingerprint", "RrqOrthogonalJunk")


@dataclass(frozen=True)
class ProtocolResolved:
    """Marker for variants the protocol adapter must translate (they need
    protocol context such as the other player's input)."""

    variant: str


def parse_strategy(spec: dict | None):
    """Build a strategy from a JSON dict {"variant": name, ...params}."""
    if spec is None:
        return None
    kind = spec.get("variant")
    if kind == "NeHonest":
        return NeHonest()
    if kind == "NeTamper":
        return NeTamper(int(spec["u"]), int(spec["v"]), int(spec.get("row_choice", 1)))
    if kind == "NeArbitrary":
        return NeArbitrary(
            NeMessage(
                int(spec["k_row"]),
                BitString.from_text(spec["r_row"]),
                BitString.from_text(spec["s_row"]),
            )
        )
    if kind == "DisjHonest":
        return DisjHonest()
    if kind == "DisjWrongPoly":
        return DisjWrongPoly(int(spec.get("seed", 0)))
    if kind == "UqstHonest":
        return UqstHonest()
    if kind == "UqstFarProduct":
        return UqstFarProduct(float(spec["gamma"]), int(spec.get("seed", 0)))
    if kind == "UqstMixed":
        comps = tuple((float(c["weight"]), float(c["gamma"])) for c in spec["components"])
        return UqstMixed(comps, int(spec.get("seed", 0)))
    if kind == "UqstWrongCount":
        return UqstWrongCount(int(spec["count"]))
    if kind == "UqstEntangledPair":
        return UqstEntangledPair(int(spec.get("d1", 2)), int(spec.get("d2", 2)))
    if kind in _MARKER_VARIANTS:
        return ProtocolResolved(kind)
    raise ValueError(f"unknown strategy variant {kind!r}")
