"""Desk-scale pure-state simulation.

Covers exactly the primitives the protocols invoke: fingerprint states over
codewords, swap tests (closed form and explicit circuit), Haar-random
subspaces with a shared-seed fixed basis and projections onto them,
fixed-point quantized classical state descriptions, and block dephasing of
small joint states.  Mixed states appear only as classical ensembles of pure
product states, which keeps the simulator at vector cost.

Trace distance is normalized to [0, 1] (half the trace norm) throughout, so
for pure states it equals sqrt(1 - F^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .codes import CodeSpec, encode_array
from .core import BitString, RandomSource

_NORM_TOL = 1e-12
_GRAM_TOL = 1e-10
_RANK_TOL = 1e-6
# Largest spread of a frame's Cholesky diagonal whose coordinates go through
# L: over 30k Gaussian frames with n <= 64, those within it agreed with the QR
# basis's coordinates to 2e-14.  A Gaussian frame with a <= n/2 and n >= 16
# is almost never beyond it.
_CHOL_SPREAD = 4.0


@dataclass(frozen=True)
class StateVec:
    """Unit-norm complex amplitude vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        object.__setattr__(self, "amplitudes", amps)
        if amps.ndim != 1 or amps.size == 0:
            raise ValueError("amplitudes must be a nonempty vector")
        if abs(np.linalg.norm(amps) - 1.0) > _NORM_TOL:
            raise ValueError("state is not unit-norm")
        amps.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @staticmethod
    def normalized(raw) -> "StateVec":
        raw = np.asarray(raw, dtype=np.complex128)
        norm = np.linalg.norm(raw)
        if norm < 1e-300:
            raise ValueError("cannot normalize the zero vector")
        return StateVec(raw / norm)

    @staticmethod
    def basis(dim: int, index: int) -> "StateVec":
        v = np.zeros(dim, dtype=np.complex128)
        v[index] = 1.0
        return StateVec(v)

    def to_json(self) -> list[list[float]]:
        return [[float(a.real), float(a.imag)] for a in self.amplitudes]

    @staticmethod
    def from_json(data: list[list[float]]) -> "StateVec":
        return StateVec(np.array([complex(re, im) for re, im in data]))


def random_state(dim: int, g: np.random.Generator) -> StateVec:
    z = g.standard_normal(dim) + 1j * g.standard_normal(dim)
    return StateVec.normalized(z)


def overlap(a: StateVec, b: StateVec) -> complex:
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def fidelity(a: StateVec, b: StateVec) -> float:
    """F = |<a|b>| for pure states."""
    return abs(overlap(a, b))


def trace_distance_pure(a: StateVec, b: StateVec) -> float:
    """Normalized trace distance sqrt(1 - F^2) between pure states."""
    f2 = min(1.0, fidelity(a, b) ** 2)
    return float(np.sqrt(max(0.0, 1.0 - f2)))


@dataclass(frozen=True)
class ProductState:
    """Tensor product of pure blocks, stored blockwise."""

    blocks: tuple[StateVec, ...]

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("need at least one block")

    @property
    def m_copies(self) -> int:
        return len(self.blocks)

    def uniform_block_dim(self) -> int | None:
        """Common block dimension, or None when the blocks disagree."""
        d = self.blocks[0].dim
        return d if all(b.dim == d for b in self.blocks) else None


@dataclass(frozen=True)
class MixedEnsemble:
    """Classical mixture of pure product states."""

    weights: tuple[float, ...]
    states: tuple[ProductState, ...]

    def __post_init__(self):
        if len(self.weights) != len(self.states) or not self.states:
            raise ValueError("weights and states must align and be nonempty")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be nonnegative")
        if abs(sum(self.weights) - 1.0) > _NORM_TOL:
            raise ValueError("weights must sum to 1")

    def sample(self, g: np.random.Generator) -> ProductState:
        i = int(g.choice(len(self.weights), p=np.array(self.weights)))
        return self.states[i]

    def block_marginal(self, j: int) -> list[tuple[float, StateVec]]:
        """Weighted pure decomposition of block j's marginal (0-based)."""
        return [(w, ps.blocks[j]) for w, ps in zip(self.weights, self.states)]


# ---------------------------------------------------------------------------
# Fingerprints and swap tests


def fingerprint(spec: CodeSpec, x: BitString) -> StateVec:
    """(1/sqrt(N)) sum_i |i>|C(x)_i>, dimension 2N (index tensor bit)."""
    cw = encode_array(spec, x)
    N = cw.size
    amps = np.zeros(2 * N, dtype=np.complex128)
    amps[2 * np.arange(N) + cw] = 1.0 / np.sqrt(N)
    return StateVec(amps)


def swap_test_prob(phi: StateVec, rho) -> float:
    """Exact swap-test acceptance 1/2 + F^2/2 of pure phi against rho.

    rho may be a StateVec or a weighted pure decomposition
    [(w, StateVec), ...] (e.g. an ensemble block marginal); then
    F^2(phi, rho) = <phi|rho|phi> = sum_l w_l |<phi|psi_l>|^2.
    """
    if isinstance(rho, StateVec):
        f2 = fidelity(phi, rho) ** 2
    else:
        f2 = 0.0
        for w, psi in rho:
            if psi.dim != phi.dim:
                raise ValueError("dimension mismatch")
            f2 += w * fidelity(phi, psi) ** 2
    return 0.5 + f2 / 2.0


def swap_test_circuit(phi: StateVec, psi: StateVec) -> float:
    """Swap-test acceptance by explicit simulation of the 2*d^2 joint state:
    Hadamard on the ancilla, controlled SWAP, Hadamard, measure ancilla."""
    if phi.dim != psi.dim:
        raise ValueError("dimension mismatch")
    d = phi.dim
    if d > 64:
        raise ValueError("explicit circuit limited to dimension <= 64")
    joint = np.zeros((2, d, d), dtype=np.complex128)
    pair = np.outer(phi.amplitudes, psi.amplitudes)
    joint[0] = pair / np.sqrt(2.0)  # ancilla |0> branch after first Hadamard
    joint[1] = pair / np.sqrt(2.0)  # ancilla |1> branch
    joint[1] = joint[1].T.copy()  # controlled SWAP exchanges the registers
    out0 = (joint[0] + joint[1]) / np.sqrt(2.0)  # second Hadamard
    return float(np.linalg.norm(out0) ** 2)


# ---------------------------------------------------------------------------
# Subspaces


@dataclass(frozen=True)
class Subspace:
    """a-dimensional subspace of C^n, kept as an n x a frame F that spans it
    and L, the lower Cholesky factor of F^H F (None when F is itself
    orthonormal, L = I).

    Its fixed orthonormal basis is the phase-corrected QR factor Q of F, whose
    R factor is L^H; so the coordinates Q^H phi = L^-1 F^H phi need no QR.
    `basis` forms Q, once, only when something reads it.
    """

    frame: np.ndarray  # (n, a), full column rank
    chol: np.ndarray | None = None  # (a, a) lower Cholesky factor of F^H F

    def __post_init__(self):
        f = np.asarray(self.frame, dtype=np.complex128)
        object.__setattr__(self, "frame", f)
        if f.ndim != 2:
            raise ValueError("frame must be an n x a matrix")
        if self.chol is None:
            gram = f.conj().T @ f
            if not np.allclose(gram, np.eye(f.shape[1]), atol=_GRAM_TOL):
                raise ValueError("basis columns are not orthonormal")
        else:
            self.chol.flags.writeable = False
        f.flags.writeable = False

    @property
    def ambient_dim(self) -> int:
        return self.frame.shape[0]

    @property
    def dim(self) -> int:
        return self.frame.shape[1]

    @cached_property
    def basis(self) -> np.ndarray:
        """(n, a) orthonormal basis: the frame's phase-corrected QR factor."""
        return self.frame if self.chol is None else _phase_corrected_q(self.frame)

    @staticmethod
    def spanned_by(frame: np.ndarray) -> "Subspace":
        """The span of the frame's columns, basis its phase-corrected QR factor.

        Raises ValueError when the frame is rank-deficient: the Cholesky of
        F^H F fails or its diagonal (the distance of each column from the span
        of those before it) spreads beyond 1e6.  Coordinates through L drift
        from Q's as cond(F)^2 times the rounding unit, so a frame whose
        diagonal spreads beyond _CHOL_SPREAD keeps Q itself instead.
        """
        try:
            chol = np.linalg.cholesky(frame.conj().T @ frame)
        except np.linalg.LinAlgError as exc:
            raise ValueError("frame is rank-deficient") from exc
        diag = np.diagonal(chol).real
        if diag.min() <= _RANK_TOL * diag.max():
            raise ValueError("frame is rank-deficient")
        if diag.min() * _CHOL_SPREAD < diag.max():
            return Subspace(_phase_corrected_q(frame))
        return Subspace(frame, chol)


def _phase_corrected_q(frame: np.ndarray) -> np.ndarray:
    """Q of frame = QR with R's diagonal made positive (Mezzadri 2007)."""
    q, r = np.linalg.qr(frame)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))[None, :]
    q.flags.writeable = False
    return q


def haar_subspace(n: int, a: int, rng: RandomSource | np.random.Generator) -> Subspace:
    """Haar-random a-dimensional subspace of C^n with its fixed basis.

    The subspace is the span of an n x a complex Gaussian frame, and its basis
    the frame's phase-corrected QR factor, a Haar basis; anyone holding the
    same seed derives the identical basis, which realizes the shared-randomness
    agreement between sender and referee.
    """
    if not 1 <= a <= n:
        raise ValueError("need 1 <= a <= n")
    g = rng.generator() if isinstance(rng, RandomSource) else rng
    z = (g.standard_normal((n, a)) + 1j * g.standard_normal((n, a))) / np.sqrt(2.0)
    return Subspace.spanned_by(z)


@dataclass(frozen=True)
class Projection:
    """Result of projecting a state onto a subspace."""

    survival_prob: float  # squared norm of the projection
    coords: StateVec | None  # renormalized projection in the subspace basis
    flagged: bool  # True when the projection was numerically zero


def project(phi: StateVec, v: Subspace) -> Projection:
    if phi.dim != v.ambient_dim:
        raise ValueError("dimension mismatch")
    c = v.frame.conj().T @ phi.amplitudes
    if v.chol is not None:
        c = np.linalg.solve(v.chol, c)  # Q^H phi = L^-1 F^H phi
    L = float(np.linalg.norm(c) ** 2)
    if L < 1e-15:
        return Projection(survival_prob=L, coords=None, flagged=True)
    return Projection(survival_prob=min(L, 1.0), coords=StateVec(c / np.sqrt(L)), flagged=False)


# ---------------------------------------------------------------------------
# Quantized classical descriptions


@dataclass(frozen=True)
class QuantizedState:
    """Fixed-point description of an a-dimensional unit vector.

    Each real/imaginary part is one signed B-bit code: sign plus fraction,
    value = code / (2^(B-1) - 1).
    """

    a: int
    bits: int
    codes: tuple[int, ...]  # 2a ints: re, im per amplitude

    def __post_init__(self):
        if self.bits < 4:
            raise ValueError("need at least 4 bits per component")
        if len(self.codes) != 2 * self.a:
            raise ValueError("expected 2a codes")
        top = 1 << (self.bits - 1)
        if any(not -top < c < top for c in self.codes):
            raise ValueError("code out of range")

    @property
    def bit_length(self) -> int:
        return 2 * self.a * self.bits

    def to_json(self) -> dict:
        offset = (1 << (self.bits - 1)) - 1
        packed = 0
        for c in self.codes:
            packed = (packed << self.bits) | (c + offset)
        width = (self.bit_length + 3) // 4
        return {"a": self.a, "B": self.bits, "words": f"{packed:0{width}x}"}

    @staticmethod
    def from_json(data: dict) -> "QuantizedState":
        a, bits = int(data["a"]), int(data["B"])
        packed = int(data["words"], 16)
        offset = (1 << (bits - 1)) - 1
        mask = (1 << bits) - 1
        codes = []
        for k in range(2 * a):
            shift = (2 * a - 1 - k) * bits
            codes.append(((packed >> shift) & mask) - offset)
        return QuantizedState(a, bits, tuple(codes))


def bits_for_target(a: int, tau: float) -> int:
    """Per-component bit count so the round trip stays within trace distance
    tau: B = ceil(log2(8a / tau))."""
    if tau <= 0:
        raise ValueError("target must be positive")
    return max(4, int(np.ceil(np.log2(8 * a / tau))))


def quantize(coords: StateVec, bits: int) -> QuantizedState:
    if bits < 4:
        raise ValueError("need at least 4 bits per component")
    scale = (1 << (bits - 1)) - 1
    amps = coords.amplitudes
    parts = np.stack((amps.real, amps.imag), axis=1).ravel()  # re, im per amplitude
    # np.rint rounds half to even, as Python's round does
    codes = np.clip(np.rint(parts * scale), -scale, scale).astype(np.int64)
    return QuantizedState(coords.dim, bits, tuple(codes.tolist()))


def dequantize(qs: QuantizedState) -> StateVec:
    scale = (1 << (qs.bits - 1)) - 1
    vals = np.array(qs.codes, dtype=np.float64) / scale
    return StateVec.normalized(vals[0::2] + 1j * vals[1::2])


def quantization_bound(a: int, bits: int) -> float:
    """Asserted round-trip trace-distance bound: 4a * 2^(-B)."""
    return 4.0 * a * 2.0 ** (-bits)


# ---------------------------------------------------------------------------
# Dephasing across blocks


def _density(joint: StateVec) -> np.ndarray:
    return np.outer(joint.amplitudes, joint.amplitudes.conj())


def dephase_across_blocks(
    joint: StateVec,
    d1: int,
    d2: int,
    basis_1: np.ndarray | None = None,
    basis_2: np.ndarray | None = None,
) -> MixedEnsemble:
    """Unentangled ensemble matching the joint state's statistics blockwise.

    With explicit product bases (unitary columns), the density matrix is
    dephased in that product basis — all entries off its diagonal are zeroed —
    so any projective measurement whose projectors are sums of that basis's
    rank-1 projectors (in particular the measurement the bases were taken
    from) has identical outcome statistics on input and output.

    Without bases, the Schmidt bases are used, which leaves a product input
    untouched and turns a Bell-type state into the uniform mixture of its
    Schmidt terms.
    """
    if d1 * d2 != joint.dim:
        raise ValueError("block dimensions do not factor the joint state")
    if d1 * d2 > 64:
        raise ValueError("dephasing is limited to joint dimension <= 64")
    coeff = joint.amplitudes.reshape(d1, d2)
    if basis_1 is None and basis_2 is None:
        u, s, vh = np.linalg.svd(coeff)
        weights, states = [], []
        for i, sv in enumerate(s):
            w = float(sv**2)
            if w < 1e-15:
                continue
            weights.append(w)
            states.append(ProductState((StateVec(u[:, i]), StateVec(vh[i, :]))))
        total = sum(weights)
        return MixedEnsemble(tuple(w / total for w in weights), tuple(states))
    if basis_1 is None or basis_2 is None:
        raise ValueError("give both bases or neither")
    b1 = np.asarray(basis_1, dtype=np.complex128)
    b2 = np.asarray(basis_2, dtype=np.complex128)
    amps = b1.conj().T @ coeff @ b2.conj()  # <u_a v_b | joint>
    probs = np.abs(amps) ** 2
    weights, states = [], []
    for a_i in range(d1):
        for b_i in range(d2):
            w = float(probs[a_i, b_i])
            if w < 1e-15:
                continue
            weights.append(w)
            states.append(
                ProductState((StateVec.normalized(b1[:, a_i]), StateVec.normalized(b2[:, b_i])))
            )
    total = sum(weights)
    return MixedEnsemble(tuple(w / total for w in weights), tuple(states))


def ensemble_density(ens: MixedEnsemble) -> np.ndarray:
    """Joint density matrix of a (two-block) product-state ensemble."""
    first = ens.states[0]
    dim = int(np.prod([b.dim for b in first.blocks]))
    rho = np.zeros((dim, dim), dtype=np.complex128)
    for w, ps in zip(ens.weights, ens.states):
        vec = ps.blocks[0].amplitudes
        for blk in ps.blocks[1:]:
            vec = np.kron(vec, blk.amplitudes)
        rho += w * np.outer(vec, vec.conj())
    return rho


def product_measurement_stats(
    state_or_ensemble, projectors_1: Iterable[np.ndarray], projectors_2: Iterable[np.ndarray]
) -> np.ndarray:
    """Outcome distribution of a product projective measurement.

    projectors_1/2 are complete sets of orthogonal projectors on each block;
    entry (a, b) is Pr[outcome a on block 1, outcome b on block 2].
    """
    if isinstance(state_or_ensemble, StateVec):
        rho = _density(state_or_ensemble)
    else:
        rho = ensemble_density(state_or_ensemble)
    p1 = list(projectors_1)
    p2 = list(projectors_2)
    out = np.empty((len(p1), len(p2)))
    for i, pa in enumerate(p1):
        for j, pb in enumerate(p2):
            out[i, j] = float(np.real(np.trace(np.kron(pa, pb) @ rho)))
    return out
