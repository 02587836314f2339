"""Prime-field arithmetic, low-degree extensions and polynomial tools.

Everything here backs the finite-field set-disjointness protocol: inputs
become value tables on an r x c grid, each column is extended to the unique
low-degree univariate polynomial through the nodes 1..r, and the prover's
candidate polynomial is checked by Schwartz-Zippel agreement counting.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import BitString

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(q: int) -> bool:
    """Deterministic Miller-Rabin, valid for q < 2^64."""
    if q < 2:
        return False
    for p in _MR_WITNESSES:
        if q == p:
            return True
        if q % p == 0:
            return False
    d, r = q - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, q)
        if x in (1, q - 1):
            continue
        for _ in range(r - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    """F_q for a verified prime q."""

    q: int

    def __post_init__(self):
        if not is_prime(self.q):
            raise ValueError(f"{self.q} is not prime")


def find_prime(n: int) -> PrimeField:
    """Smallest prime q with n < q <= 2n (exists by Bertrand's postulate)."""
    if n < 2:
        raise ValueError("n must be at least 2")
    for q in range(n + 1, 2 * n + 1):
        if is_prime(q):
            return PrimeField(q)
    raise AssertionError("Bertrand's postulate violated?!")


def next_prime_above(b: int) -> PrimeField:
    q = b + 1
    while not is_prime(q):
        q += 1
    return PrimeField(q)


_INT64_LIMIT = 1 << 63
# Bound on the entries of each (points x rows) temporary in lde_eval_points.
_CHUNK_ENTRIES = 1 << 16


def _inv_mod(a: np.ndarray, q: int) -> np.ndarray:
    """Elementwise a^(q-2) mod q by square-and-multiply: the inverse of each
    entry, all of which must be nonzero mod q.  Needs (q - 1)^2 < 2^63."""
    result = np.ones_like(a)
    base = a % q
    e = q - 2
    while e:
        if e & 1:
            result = result * base % q
        base = base * base % q
        e >>= 1
    return result


@dataclass(frozen=True)
class EvalTable:
    """Values a(i, j) in F_q on the grid [rows] x [cols] (1-based nodes)."""

    values: np.ndarray  # shape (rows, cols), int64 already reduced mod q
    field: PrimeField

    def __post_init__(self):
        if self.values.ndim != 2:
            raise ValueError("values must be 2-d")
        q = self.field.q
        if self.rows >= q:
            raise ValueError(f"{self.rows} rows need nodes 1..rows distinct mod q={q}")
        if max(self.rows, self.cols) * (q - 1) ** 2 >= _INT64_LIMIT:
            raise ValueError(f"q={q} is too large for int64 arithmetic on this grid")
        if ((self.values < 0) | (self.values >= q)).any():
            raise ValueError("entries must be reduced mod q")
        self.values.flags.writeable = False

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    @staticmethod
    def from_bits(x: BitString, rows: int, cols: int, field: PrimeField) -> "EvalTable":
        """a(i, j) = x[cols*(i-1) + j] with 1-based (i, j), row-major."""
        if x.n != rows * cols:
            raise ValueError("bit string does not fill the grid")
        return EvalTable(x.array.astype(np.int64).reshape(rows, cols), field)

    @cached_property
    def _bary_weights(self) -> np.ndarray:
        """Barycentric weights w_i = prod_{k != i} (i - k)^(-1) for the nodes
        1..rows, where the product is (-1)^(rows-i) (i-1)! (rows-i)!."""
        q = self.field.q
        t = self.rows
        fact = np.ones(t, dtype=np.int64)  # fact[m] = m! mod q, nonzero as t < q
        for m in range(1, t):
            fact[m] = fact[m - 1] * m % q
        prod = fact * fact[::-1] % q  # (i-1)! (t-i)! at index i-1
        odd = (t - np.arange(1, t + 1)) % 2 == 1
        prod[odd] = q - prod[odd]
        return _inv_mod(prod, q)


def lde_eval(table: EvalTable, r: int, j: int) -> int:
    """Evaluate column j's low-degree extension at r (j is 1-based)."""
    return int(lde_eval_block(table, r)[j - 1])


def lde_eval_block(table: EvalTable, r: int) -> np.ndarray:
    """All column extensions at one point r: the vector (a~(r, j))_j."""
    return lde_eval_points(table, [r])[0]


def lde_eval_points(table: EvalTable, rs) -> np.ndarray:
    """All column extensions at every point of rs: row k is (a~(rs[k], j))_j.

    Barycentric form over the nodes 1..rows, a point on a node reading its
    table row.  Points are taken in chunks so the (points x rows)
    temporaries stay bounded however many points are asked for.
    """
    q = table.field.q
    t = table.rows
    pts = np.asarray(rs, dtype=np.int64).reshape(-1) % q
    nodes = np.arange(1, t + 1, dtype=np.int64)
    out = np.empty((len(pts), table.cols), dtype=np.int64)
    step = max(1, _CHUNK_ENTRIES // max(t, 1))
    for lo in range(0, len(pts), step):
        r = pts[lo : lo + step]
        on_node = (r >= 1) & (r <= t)
        diff = (r[:, None] - nodes) % q
        diff[on_node] = 1  # placeholder; node rows are copied below
        coeff = table._bary_weights * _inv_mod(diff, q) % q
        block = coeff @ table.values % q
        block = block * _inv_mod(coeff.sum(axis=1) % q, q)[:, None] % q
        block[on_node] = table.values[r[on_node] - 1]
        out[lo : lo + step] = block
    return out


@dataclass(frozen=True)
class UniPoly:
    """Dense univariate polynomial over F_q, constant term first."""

    coeffs: tuple[int, ...]
    field: PrimeField

    def __post_init__(self):
        if any(not 0 <= c < self.field.q for c in self.coeffs):
            raise ValueError("coefficients must be reduced mod q")
        # canonical form: no leading zeros (the zero polynomial is ())
        if self.coeffs and self.coeffs[-1] == 0:
            trimmed = len(self.coeffs)
            while trimmed and self.coeffs[trimmed - 1] == 0:
                trimmed -= 1
            object.__setattr__(self, "coeffs", self.coeffs[:trimmed])

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        if other.field != self.field:
            raise ValueError("mixed fields")
        q = self.field.q
        m = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (m - len(self.coeffs))
        b = list(other.coeffs) + [0] * (m - len(other.coeffs))
        return UniPoly(tuple((x - y) % q for x, y in zip(a, b)), self.field)

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    @staticmethod
    def from_json(data: list[str], field: PrimeField) -> "UniPoly":
        return UniPoly(tuple(int(c) % field.q for c in data), field)


def poly_eval(p: UniPoly, r: int) -> int:
    """Horner evaluation of p at r."""
    q = p.field.q
    acc = 0
    for c in reversed(p.coeffs):
        acc = (acc * r + c) % q
    return acc


def poly_eval_many(p: UniPoly, rs: np.ndarray) -> np.ndarray:
    q = p.field.q
    acc = np.zeros(len(rs), dtype=np.int64)
    for c in reversed(p.coeffs):
        acc = (acc * rs + c) % q
    return acc


def agreement_count(p1: UniPoly, p2: UniPoly, points: np.ndarray) -> int:
    """|{r in points : p1(r) = p2(r)}|; at most deg(p1 - p2) when p1 != p2."""
    if len(points) < 1:
        raise ValueError("need at least one evaluation point")
    pts = np.asarray(points, dtype=np.int64)
    return int((poly_eval_many(p1, pts) == poly_eval_many(p2, pts)).sum())


def interpolate(xs: list[int], ys: list[int], field: PrimeField) -> UniPoly:
    """Newton divided-difference interpolation through (xs, ys)."""
    q = field.q
    t = len(xs)
    if len(set(x % q for x in xs)) != t:
        raise ValueError("interpolation nodes must be distinct mod q")
    coef = [y % q for y in ys]  # divided differences, built in place
    for level in range(1, t):
        for i in range(t - 1, level - 1, -1):
            num = (coef[i] - coef[i - 1]) % q
            den = (xs[i] - xs[i - level]) % q
            coef[i] = num * pow(den, q - 2, q) % q
    # expand Newton form sum_k coef[k] * prod_{j<k}(x - xs[j])
    poly = [0] * t
    basis = [1] + [0] * (t - 1)
    for k in range(t):
        for d in range(k + 1):
            poly[d] = (poly[d] + coef[k] * basis[d]) % q
        if k + 1 < t:
            new = [0] * t
            for d in range(k + 1):
                new[d + 1] = (new[d + 1] + basis[d]) % q
                new[d] = (new[d] - xs[k] * basis[d]) % q
            basis = new
    return UniPoly(tuple(poly), field)


def s_polynomial(a: EvalTable, b: EvalTable) -> UniPoly:
    """The inner-product polynomial s(i) = sum_j a~(i,j) * b~(i,j) mod q,
    recovered by interpolating at 2*rows - 1 points."""
    if a.rows != b.rows or a.cols != b.cols or a.field != b.field:
        raise ValueError("tables must share grid and field")
    q = a.field.q
    npts = 2 * a.rows - 1
    if npts > q:
        raise ValueError("field too small to host the interpolation nodes")
    xs = list(range(1, npts + 1))
    ys = (lde_eval_points(a, xs) * lde_eval_points(b, xs)).sum(axis=1) % q
    return interpolate(xs, [int(v) for v in ys], a.field)
