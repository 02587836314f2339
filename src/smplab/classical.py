"""Classical SMP protocols: the "one out of two" grid protocol, the
prover-assisted not-equal protocol, the prover-assisted disjointness
protocol, and a plain row/column equality baseline.

Every protocol ships both a sampled runner (drawing the players' coins from
seeded streams) and an exact evaluator that enumerates or sums over those
coins, so Monte Carlo estimates can be cross-checked against closed values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .codes import CodeSpec, GridCodeword, best_row, column, grid_of, row, row_distances
from .core import (
    BitString,
    Message,
    OneOutOfTwoVerdict,
    RandomSource,
    Transcript,
    Verdict,
    hamming_distance,
)
from .field import (
    EvalTable,
    PrimeField,
    UniPoly,
    find_prime,
    lde_eval_points,
    next_prime_above,
    poly_eval_many,
)


def _index_bits(k: int) -> int:
    return max(1, (k - 1).bit_length())


# ---------------------------------------------------------------------------
# "One out of two"


@dataclass(frozen=True)
class OneOutOfTwoParams:
    n: int
    spec: CodeSpec

    def __post_init__(self):
        if self.spec.rows != self.spec.cols:
            raise ValueError("one-out-of-two needs a square grid")
        if self.spec.n != self.n:
            raise ValueError("spec does not match n")

    @staticmethod
    def create(n: int) -> "OneOutOfTwoParams":
        return OneOutOfTwoParams(n, CodeSpec.create(n))

    @property
    def k(self) -> int:
        return self.spec.rows

    def expected_lengths(self) -> dict[str, int]:
        k = self.k
        return {"alice": _index_bits(k) + 2 * k, "bob": _index_bits(k) + k}


def _check_promise(x1: BitString, x2: BitString, y: BitString) -> int:
    """Return 1 or 2 for the true answer; raise if the promise fails."""
    first, second = x1 == y, x2 == y
    if first == second:
        raise ValueError("promise violated: exactly one of x1, x2 must equal y")
    return 1 if first else 2


@dataclass(frozen=True)
class OneOutOfTwoInstance:
    """A promise triple encoded once: the three codeword grids and Alice's
    deterministic row, none of which depend on the players' coins."""

    g1: GridCodeword
    g2: GridCodeword
    gy: GridCodeword
    j: int  # Alice's row: the first qualifying row of g1 against g2

    @staticmethod
    def encode(
        x1: BitString, x2: BitString, y: BitString, params: OneOutOfTwoParams
    ) -> "OneOutOfTwoInstance":
        _check_promise(x1, x2, y)
        g1, g2 = grid_of(params.spec, x1), grid_of(params.spec, x2)
        return OneOutOfTwoInstance(g1, g2, grid_of(params.spec, y), best_row(g1, g2))


def one_out_of_two_run(
    inst: OneOutOfTwoInstance,
    params: OneOutOfTwoParams,
    rng: RandomSource,
) -> tuple[OneOutOfTwoVerdict, Transcript]:
    k = params.k
    gen = rng.generator()

    i = int(gen.integers(1, k + 1))  # Bob's uniform column
    b_i = column(inst.gy, i)
    j = inst.j
    a1, a2 = row(inst.g1, j), row(inst.g2, j)

    transcript = Transcript(
        alice=Message("classical", _index_bits(k) + 2 * k, (j, a1, a2)),
        bob=Message("classical", _index_bits(k) + k, (i, b_i)),
        merlin=None,
        protocol_type="RR",
    )
    e1, e2 = a1.array[i - 1], a2.array[i - 1]
    if e1 != e2:
        t = 1 if b_i.array[j - 1] == e1 else 2
    else:
        t = 1 if gen.integers(0, 2) == 0 else 2
    verdict = (
        OneOutOfTwoVerdict.FIRST_EQUAL if t == 1 else OneOutOfTwoVerdict.SECOND_EQUAL
    )
    return verdict, transcript


def one_out_of_two_exact(inst: OneOutOfTwoInstance, params: OneOutOfTwoParams) -> Fraction:
    """Exact success probability, enumerating Bob's column choice.

    On columns where Alice's rows differ the referee is always right; on the
    rest he flips a coin, giving (k + d_j) / 2k for row distance d_j.
    """
    d_j = int(row_distances(inst.g1, inst.g2)[inst.j - 1])
    k = params.k
    return Fraction(k + d_j, 2 * k)


# ---------------------------------------------------------------------------
# Not-equal with an untrusted prover (all-classical)


@dataclass(frozen=True)
class NeRrrParams:
    n: int
    spec: CodeSpec
    repetitions: int = 1

    def __post_init__(self):
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.spec.n != self.n:
            raise ValueError("spec does not match n")

    @staticmethod
    def create(
        n: int, repetitions: int = 1, rows: int | None = None, cols: int | None = None
    ) -> "NeRrrParams":
        return NeRrrParams(n, CodeSpec.create(n, rows=rows, cols=cols), repetitions)

    @property
    def a_rows(self) -> int:
        return self.spec.rows

    @property
    def m_cols(self) -> int:
        return self.spec.cols

    @property
    def distance_threshold(self) -> int:
        return math.ceil(self.m_cols / 3)

    def expected_lengths(self) -> dict[str, int]:
        """Per-round message bits: (a, a, m) shape."""
        return {
            "alice": _index_bits(self.m_cols) + self.a_rows,
            "bob": _index_bits(self.m_cols) + self.a_rows,
            "merlin": _index_bits(self.a_rows) + 2 * self.m_cols,
        }


@dataclass(frozen=True)
class NeMessage:
    """Merlin's claim: a row index plus that row of both encodings."""

    k_row: int
    r_row: BitString
    s_row: BitString


def honest_ne_message(x: BitString, y: BitString, params: NeRrrParams) -> NeMessage:
    """True rows at the best differing row (row 1 when x = y, where no
    qualifying row exists and honesty cannot win anyway)."""
    gx, gy = grid_of(params.spec, x), grid_of(params.spec, y)
    k = best_row(gx, gy) if x != y else 1
    return NeMessage(k, row(gx, k), row(gy, k))


def _ne_message_valid(msg: NeMessage, params: NeRrrParams) -> bool:
    return (
        1 <= msg.k_row <= params.a_rows
        and msg.r_row.n == params.m_cols
        and msg.s_row.n == params.m_cols
    )


def ne_rrr_run(
    gx: GridCodeword,
    gy: GridCodeword,
    msg: NeMessage,
    params: NeRrrParams,
    rng: RandomSource,
) -> tuple[Verdict, Transcript]:
    """Run all repetitions with fresh player coins on the encoded pair; accept
    iff every round accepts.  The prover's message is fixed by the instance
    (strategies are deterministic), so it is an argument.  A malformed prover
    message rejects immediately, never errors."""
    m = params.m_cols
    gen = rng.derive(1).generator()

    transcript = None
    verdict = Verdict.ACCEPT
    if not _ne_message_valid(msg, params):
        verdict = Verdict.REJECT
        merlin_msg = Message("classical", 0, msg)
    else:
        merlin_msg = Message(
            "classical", _index_bits(params.a_rows) + 2 * m, (msg.k_row, msg.r_row, msg.s_row)
        )
        # rows too close to prove x != y fail every round; no coins involved
        if hamming_distance(msg.r_row, msg.s_row) < params.distance_threshold:
            verdict = Verdict.REJECT
    for _ in range(params.repetitions):
        i = int(gen.integers(1, m + 1))
        j = int(gen.integers(1, m + 1))
        col_x, col_y = column(gx, i), column(gy, j)
        if transcript is None:
            transcript = Transcript(
                alice=Message("classical", _index_bits(m) + params.a_rows, (i, col_x)),
                bob=Message("classical", _index_bits(m) + params.a_rows, (j, col_y)),
                merlin=merlin_msg,
                protocol_type="RRR",
            )
        if verdict is Verdict.REJECT:
            continue
        if col_x.array[msg.k_row - 1] != msg.r_row.array[i - 1]:
            verdict = Verdict.REJECT
        elif col_y.array[msg.k_row - 1] != msg.s_row.array[j - 1]:
            verdict = Verdict.REJECT
    return verdict, transcript


def ne_rrr_exact(
    gx: GridCodeword, gy: GridCodeword, msg: NeMessage, params: NeRrrParams
) -> Fraction:
    """Exact single-round acceptance of a fixed prover message over both
    players' independent uniform column choices: the fraction of columns i
    where the claimed row of C(x) is true, times that of columns j for C(y).
    Raise to params.repetitions for the all-rounds probability."""
    if not _ne_message_valid(msg, params):
        return Fraction(0)
    if hamming_distance(msg.r_row, msg.s_row) < params.distance_threshold:
        return Fraction(0)
    k = msg.k_row - 1
    agree_x = int(np.count_nonzero(msg.r_row.array == gx.cells[k]))
    agree_y = int(np.count_nonzero(msg.s_row.array == gy.cells[k]))
    m = params.m_cols
    return Fraction(agree_x * agree_y, m * m)


# ---------------------------------------------------------------------------
# Plain equality baseline (no prover): random row vs random column


def eq_rr_run(
    gx: GridCodeword, gy: GridCodeword, rng: RandomSource
) -> tuple[Verdict, Transcript]:
    """One round on the encoded pair: Alice's random row of C(x) against
    Bob's random column of C(y), compared where they cross."""
    rows, cols = gx.rows, gx.cols
    gen = rng.generator()
    j = int(gen.integers(1, rows + 1))
    i = int(gen.integers(1, cols + 1))
    row_x, col_y = row(gx, j), column(gy, i)
    transcript = Transcript(
        alice=Message("classical", _index_bits(rows) + cols, (j, row_x)),
        bob=Message("classical", _index_bits(cols) + rows, (i, col_y)),
        merlin=None,
        protocol_type="RR",
    )
    same = row_x.array[i - 1] == col_y.array[j - 1]
    return (Verdict.ACCEPT if same else Verdict.REJECT), transcript


def eq_rr_lengths(spec: CodeSpec) -> dict[str, int]:
    """Closed-form eq-rr message lengths: an index and a row of C(x), then an
    index and a column of C(y)."""
    return {
        "alice": _index_bits(spec.rows) + spec.cols,
        "bob": _index_bits(spec.cols) + spec.rows,
    }


def eq_rr_exact(gx: GridCodeword, gy: GridCodeword) -> Fraction:
    """Exact acceptance: the fraction of grid cells where the encodings agree."""
    cells = gx.cells.size
    d = int((gx.cells != gy.cells).sum())
    return Fraction(cells - d, cells)


# ---------------------------------------------------------------------------
# Disjointness with an untrusted prover


@dataclass(frozen=True)
class DisjParams:
    """Grid split n = rows * cols with rows = n^alpha, plus the field and the
    Schwartz-Zippel evaluation set S = {1..10*deg(s)}.

    The field starts as the smallest prime in (n, 2n]; when that cannot host
    S (small n), it is enlarged to the smallest prime above 10*deg(s) and the
    deviation is recorded.
    """

    n: int
    alpha: float
    rows: int
    cols: int
    field: PrimeField
    sample_scale: float = 1.0
    q_enlarged: bool = False

    def __post_init__(self):
        if self.rows * self.cols != self.n:
            raise ValueError("rows * cols must equal n")
        if self.field.q <= len(self.eval_set):
            raise ValueError("field cannot host the evaluation set")
        if self.samples_per_player < 1:
            raise ValueError("sample scale too small")

    @staticmethod
    def create(n: int, alpha: float = 2.0 / 3.0, sample_scale: float = 1.0) -> "DisjParams":
        rows = round(n**alpha)
        cols = round(n ** (1.0 - alpha))
        if rows * cols != n or abs(rows - n**alpha) > 1e-6 * rows:
            raise ValueError(f"n={n} is not a perfect power for alpha={alpha}")
        deg = 2 * (rows - 1)
        field = find_prime(n)
        enlarged = False
        if field.q <= 10 * deg:
            field = next_prime_above(10 * deg)
            enlarged = True
        return DisjParams(n, alpha, rows, cols, field, sample_scale, enlarged)

    @property
    def degree_bound(self) -> int:
        return 2 * (self.rows - 1)

    @cached_property
    def eval_set(self) -> np.ndarray:
        s = np.arange(1, 10 * self.degree_bound + 1, dtype=np.int64)
        s.flags.writeable = False
        return s

    @property
    def samples_per_player(self) -> int:
        return math.ceil(self.sample_scale * 100 * math.sqrt(len(self.eval_set)))

    @property
    def field_bits(self) -> int:
        return _index_bits(self.field.q)

    def expected_lengths(self) -> dict[str, int]:
        per_sample = (1 + self.cols) * self.field_bits
        return {
            "alice": self.samples_per_player * per_sample,
            "bob": self.samples_per_player * per_sample,
            "merlin": (self.degree_bound + 1) * self.field_bits,
        }

    def tables(self, x: BitString, y: BitString) -> tuple[EvalTable, EvalTable]:
        return (
            EvalTable.from_bits(x, self.rows, self.cols, self.field),
            EvalTable.from_bits(y, self.rows, self.cols, self.field),
        )

    @cached_property
    def node_power_sums(self) -> tuple[int, ...]:
        """P_k = sum_{i=1..rows} i^k mod q for k = 0..degree_bound."""
        q = self.field.q
        nodes = np.arange(1, self.rows + 1, dtype=np.int64)
        powers = np.ones(self.rows, dtype=np.int64)
        sums = []
        for _ in range(self.degree_bound + 1):
            sums.append(int(powers.sum() % q))
            powers = powers * nodes % q
        return tuple(sums)

    def block_sum(self, p: UniPoly) -> int:
        """sum_{i=1..rows} p(i) mod q, as sum_k c_k P_k over p's coefficients."""
        if p.degree > self.degree_bound:
            raise ValueError("polynomial exceeds the degree bound")
        return sum(c * s for c, s in zip(p.coeffs, self.node_power_sums)) % self.field.q


@dataclass(frozen=True)
class DisjInstance:
    """A disjointness pair encoded once: both players' column-extension
    blocks at every point of the evaluation set S (row k is the block at
    S[k]) and the true inner products s(r) = <a~(r, .), b~(r, .)> on S.
    None of it depends on the players' coins or on the prover."""

    blocks_a: np.ndarray  # (|S|, cols)
    blocks_b: np.ndarray  # (|S|, cols)
    s_values: np.ndarray  # (|S|,)

    @staticmethod
    def encode(x: BitString, y: BitString, params: DisjParams) -> "DisjInstance":
        ta, tb = params.tables(x, y)
        a = lde_eval_points(ta, params.eval_set)
        b = lde_eval_points(tb, params.eval_set)
        s = (a * b).sum(axis=1) % params.field.q
        for arr in (a, b, s):
            arr.flags.writeable = False
        return DisjInstance(a, b, s)


@dataclass(frozen=True)
class DisjClaim:
    """The prover's candidate s' with what the referee derives from it
    alone, once per run: its values on the evaluation set, and whether it
    meets the degree bound and passes the block sum sum_i s'(i) = 0."""

    poly: UniPoly
    values: np.ndarray  # s'(r) for r in S
    passes: bool

    @staticmethod
    def of(poly: UniPoly, params: DisjParams) -> "DisjClaim":
        values = poly_eval_many(poly, params.eval_set)
        values.flags.writeable = False
        passes = poly.degree <= params.degree_bound and params.block_sum(poly) == 0
        return DisjClaim(poly, values, passes)


def disj_rrr_run(
    inst: DisjInstance,
    claim: DisjClaim,
    params: DisjParams,
    rng: RandomSource,
) -> tuple[Verdict, Transcript]:
    """One run on the encoded pair against the prover's claim (disj
    strategies are deterministic, so the caller builds it once).  Each
    player draws samples_per_player points of S with replacement and sends
    its blocks there, sorted by point; the referee accepts iff the claim
    passes, the players drew a common point, and s' equals the true inner
    product at every common point."""
    c = params.samples_per_player
    size = len(params.eval_set)
    ia = np.sort(rng.derive(1).generator().choice(size, size=c, replace=True))
    ib = np.sort(rng.derive(2).generator().choice(size, size=c, replace=True))

    per_sample = (1 + params.cols) * params.field_bits
    transcript = Transcript(
        alice=Message("classical", c * per_sample, (params.eval_set[ia], inst.blocks_a[ia])),
        bob=Message("classical", c * per_sample, (params.eval_set[ib], inst.blocks_b[ib])),
        merlin=Message(
            "classical", (params.degree_bound + 1) * params.field_bits, claim.poly.to_json()
        ),
        protocol_type="RRR",
    )

    if not claim.passes:
        return Verdict.REJECT, transcript
    drawn_a = np.zeros(size, dtype=bool)
    drawn_a[ia] = True
    common = ib[drawn_a[ib]]
    if common.size == 0 or (claim.values[common] != inst.s_values[common]).any():
        return Verdict.REJECT, transcript
    return Verdict.ACCEPT, transcript


def _prob_no_common_hit(c: int, hit_size: int, set_size: int) -> Fraction:
    """Pr[two players' c iid uniform draws from a size-`set_size` set share
    no element of a fixed size-`hit_size` subset].

    counts[d] is the number of one player's draw sequences touching exactly
    d distinct subset elements; the other player misses those d with
    probability ((set_size - d) / set_size)^c.  Everything is an integer
    count over set_size^(2c) until the one Fraction at the end.
    """
    counts = [1]
    for _ in range(c):
        nxt = [0] * min(len(counts) + 1, hit_size + 1)
        for d, k in enumerate(counts):
            nxt[d] += k * (set_size - hit_size + d)
            if d < hit_size:
                nxt[d + 1] += k * (hit_size - d)
        counts = nxt
    num = sum(k * (set_size - d) ** c for d, k in enumerate(counts))
    return Fraction(num, set_size ** (2 * c))


def disj_rrr_soundness_exact(
    inst: DisjInstance, claim: DisjClaim, params: DisjParams
) -> Fraction:
    """Exact acceptance for a fixed candidate polynomial, summing over both
    players' independent uniform draws.

    Acceptance needs a nonempty collision set lying inside the agreement set
    A = {r in S : s'(r) = s(r)} plus a passing claim, so it equals
    [claim passes] * (Pr[no collision outside A] - Pr[no collision at all]).
    """
    if not claim.passes:
        return Fraction(0)
    agree = int((claim.values == inst.s_values).sum())
    size = len(params.eval_set)
    c = params.samples_per_player
    p_outside_ok = _prob_no_common_hit(c, size - agree, size)
    p_no_collision = _prob_no_common_hit(c, size, size)
    return p_outside_ok - p_no_collision
