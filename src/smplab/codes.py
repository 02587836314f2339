"""Binary error-correcting codes with relative distance >= 1/3, plus grid views.

The code is a Reed-Solomon outer code over GF(2^s) at rate 1/3 concatenated
with the inner Hadamard code (relative distance exactly 1/2 between distinct
symbols), so any two codewords of distinct inputs differ on at least
(2/3)*(1/2) = 1/3 of the positions.  Codewords are viewed as rows x cols
Boolean grids after zero-padding; identical padding cannot reduce distance.

The whole encoder is GF(2)-linear: symbol chunking, RS evaluation and the
Hadamard map all commute with XOR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .core import BitString

# Primitive polynomials over GF(2), degree s, bitmask includes the x^s term.
# x is a generator of the multiplicative group for each of these, which lets
# the log/exp tables below cover every nonzero element.
_PRIMITIVE_POLY = {
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10000011,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
}


def _gf_tables(s: int) -> tuple[np.ndarray, np.ndarray]:
    """exp/log tables for GF(2^s) with x as generator."""
    poly = _PRIMITIVE_POLY[s]
    order = (1 << s) - 1
    exp = np.zeros(2 * order, dtype=np.int64)
    log = np.full(1 << s, -1, dtype=np.int64)
    v = 1
    for k in range(order):
        exp[k] = v
        if log[v] != -1:
            raise AssertionError(f"polynomial for s={s} is not primitive")
        log[v] = k
        v <<= 1
        if v >> s:
            v ^= poly
    if v != 1:
        raise AssertionError(f"polynomial for s={s} is not primitive")
    exp[order : 2 * order] = exp[:order]
    return exp, log


def _hadamard_table(s: int) -> np.ndarray:
    """Row v = Hadamard codeword of the s-bit message v: bit a = <a, v> mod 2.
    Built by Sylvester doubling: each step adds a new top bit to a and v,
    which flips <a, v> exactly where both top bits are 1."""
    h = np.zeros((1, 1), dtype=np.uint8)
    for _ in range(s):
        n = len(h)
        doubled = np.empty((2 * n, 2 * n), dtype=np.uint8)
        doubled[:n, :n] = doubled[:n, n:] = doubled[n:, :n] = h
        doubled[n:, n:] = h ^ 1
        h = doubled
    return h


def hadamard_codeword(value: int, s: int) -> BitString:
    """Inner Hadamard encoding of one s-bit symbol (length 2^s)."""
    if not 0 <= value < (1 << s):
        raise ValueError("symbol out of range")
    return BitString(_hadamard_table(s)[value])


@dataclass(frozen=True)
class CodeSpec:
    """Concatenated-code parameters plus the grid shape used by protocols.

    n        input bits
    s        inner Hadamard dimension (outer field is GF(2^s))
    n_sym    outer message symbols, ceil(n / s)
    n_rs     outer codeword symbols (= 3 * n_sym, rate 1/3)
    rows/cols grid shape with rows * cols >= N = n_rs * 2^s
    """

    n: int
    s: int
    n_sym: int
    n_rs: int
    rows: int
    cols: int

    @property
    def block_len(self) -> int:
        return self.n_rs << self.s

    @property
    def padded_len(self) -> int:
        return self.rows * self.cols

    @property
    def distance_bound(self) -> Fraction:
        """Guaranteed relative distance: outer (n_rs-n_sym+1)/n_rs times 1/2."""
        return Fraction(self.n_rs - self.n_sym + 1, 2 * self.n_rs)

    @property
    def min_distance(self) -> int:
        return math.ceil(self.distance_bound * self.block_len)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.s not in _PRIMITIVE_POLY:
            raise ValueError(f"unsupported field dimension s={self.s}")
        if self.n_sym * self.s < self.n:
            raise ValueError("symbols do not cover the input")
        if self.n_rs > (1 << self.s):
            raise ValueError("outer code needs n_rs distinct field elements")
        if self.rows * self.cols < self.block_len:
            raise ValueError("grid smaller than codeword")
        # A row with >= ceil(cols/3) differing entries must exist for every
        # distinct pair; if every row had fewer, the total would be at most
        # rows*(ceil(cols/3)-1), so the guaranteed distance must beat that.
        if self.min_distance <= self.rows * (math.ceil(self.cols / 3) - 1):
            raise ValueError(
                "grid shape breaks the guaranteed-row property; "
                "choose a less skewed grid"
            )

    @staticmethod
    def create(n: int, rows: int | None = None, cols: int | None = None) -> "CodeSpec":
        """Standard rate-1/3 spec for n input bits; square grid by default."""
        if n < 1:
            raise ValueError("n must be positive")
        for s in sorted(_PRIMITIVE_POLY):
            n_sym = math.ceil(n / s)
            if 3 * n_sym <= (1 << s):
                break
        else:
            raise ValueError(f"n={n} too large for the supported field sizes")
        n_rs = 3 * n_sym
        block = n_rs << s
        if rows is None and cols is None:
            rows = cols = math.isqrt(block - 1) + 1
        elif rows is None:
            rows = math.ceil(block / cols)
        elif cols is None:
            cols = math.ceil(block / rows)
        return CodeSpec(n=n, s=s, n_sym=n_sym, n_rs=n_rs, rows=rows, cols=cols)

    @cached_property
    def _tables(self):
        exp, log = _gf_tables(self.s)
        # Vandermonde of evaluation points 0..n_rs-1 raised to symbol powers,
        # stored as logs (-1 marks zero) for vectorised field multiplication.
        order = (1 << self.s) - 1
        t = np.arange(self.n_sym, dtype=np.int64)
        pow_log = (log[: self.n_rs, None] * t[None, :]) % order
        pow_log[0, 1:] = -1  # 0^t = 0 for t >= 1
        pow_log[:, 0] = 0  # alpha^0 = 1, including 0^0
        had = _hadamard_table(self.s)
        return exp, log, pow_log, had

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "N": self.block_len,
            "s_outer": 1 << self.s,
            "rate": f"{self.n_sym}/{self.n_rs}",
            "padded_rows": self.rows,
            "padded_cols": self.cols,
        }


def _symbols(spec: CodeSpec, x: BitString) -> np.ndarray:
    bits = np.zeros(spec.n_sym * spec.s, dtype=np.uint8)
    bits[: x.n] = x.array
    weights = 1 << np.arange(spec.s - 1, -1, -1)
    return (bits.reshape(spec.n_sym, spec.s) * weights).sum(axis=1).astype(np.int64)


def encode(spec: CodeSpec, x: BitString) -> BitString:
    """Deterministic codeword of x, length spec.block_len."""
    return BitString.from_array(encode_array(spec, x))


def encode_array(spec: CodeSpec, x: BitString) -> np.ndarray:
    if x.n != spec.n:
        raise ValueError(f"input length {x.n} != spec n {spec.n}")
    exp, log, pow_log, had = spec._tables
    msg = _symbols(spec, x)
    order = (1 << spec.s) - 1
    msg_log = log[msg]  # -1 where the symbol is zero
    zero = (pow_log < 0) | (msg_log[None, :] < 0)
    terms = np.where(zero, 0, exp[(pow_log + msg_log[None, :]) % order])
    rs = np.bitwise_xor.reduce(terms.astype(np.int64), axis=1)
    return had[rs].reshape(-1)


def encode_all(spec: CodeSpec) -> np.ndarray:
    """All 2^n codewords as a (2^n, N) uint8 matrix (exhaustive tests only)."""
    if spec.n > 16:
        raise ValueError("exhaustive encoding is limited to n <= 16")
    out = np.empty((1 << spec.n, spec.block_len), dtype=np.uint8)
    shifts = np.arange(spec.n - 1, -1, -1)
    for v in range(1 << spec.n):
        out[v] = encode_array(spec, BitString((v >> shifts) & 1))
    return out


@dataclass(frozen=True)
class GridCodeword:
    """Row-major rows x cols view of a zero-padded codeword."""

    cells: np.ndarray
    spec: CodeSpec | None = None

    def __post_init__(self):
        if self.cells.ndim != 2:
            raise ValueError("cells must be a 2-d array")
        self.cells.flags.writeable = False

    @property
    def rows(self) -> int:
        return self.cells.shape[0]

    @property
    def cols(self) -> int:
        return self.cells.shape[1]

    def __eq__(self, other) -> bool:
        return isinstance(other, GridCodeword) and np.array_equal(
            self.cells, other.cells
        )


def grid(codeword: BitString, rows: int, cols: int, spec: CodeSpec | None = None) -> GridCodeword:
    """Pad the codeword with zeros to rows*cols and reshape row-major."""
    return _padded_grid(codeword.array, rows, cols, spec)


def _padded_grid(bits: np.ndarray, rows: int, cols: int, spec: CodeSpec | None) -> GridCodeword:
    if rows * cols < bits.size:
        raise ValueError("grid smaller than the codeword")
    flat = np.zeros(rows * cols, dtype=np.uint8)
    flat[: bits.size] = bits
    return GridCodeword(flat.reshape(rows, cols), spec)


def grid_of(spec: CodeSpec, x: BitString) -> GridCodeword:
    return _padded_grid(encode_array(spec, x), spec.rows, spec.cols, spec)


def row(g: GridCodeword, k: int) -> BitString:
    """Row k (1-based), a view of the read-only grid."""
    if not 1 <= k <= g.rows:
        raise IndexError(f"row {k} out of range 1..{g.rows}")
    return BitString(g.cells[k - 1])


def column(g: GridCodeword, i: int) -> BitString:
    """Column i (1-based), a view of the read-only grid."""
    if not 1 <= i <= g.cols:
        raise IndexError(f"column {i} out of range 1..{g.cols}")
    return BitString(g.cells[:, i - 1])


def row_distances(g_x: GridCodeword, g_y: GridCodeword) -> np.ndarray:
    if g_x.cells.shape != g_y.cells.shape:
        raise ValueError("grid shapes differ")
    return (g_x.cells != g_y.cells).sum(axis=1)


def best_row(g_x: GridCodeword, g_y: GridCodeword) -> int:
    """Smallest 1-based row index where the grids differ on >= ceil(cols/3)
    positions; guaranteed to exist for distinct codewords of a valid spec."""
    dists = row_distances(g_x, g_y)
    if not dists.any():
        raise ValueError("grids are identical; inputs must differ")
    threshold = math.ceil(g_x.cols / 3)
    qualifying = np.nonzero(dists >= threshold)[0]
    if qualifying.size == 0:
        raise ValueError("no row meets the distance threshold (bad code/grid)")
    return int(qualifying[0]) + 1
