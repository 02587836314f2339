import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from smplab.core import InstanceKind, RandomSource, sample_instance
from smplab.field import (
    EvalTable,
    PrimeField,
    UniPoly,
    agreement_count,
    find_prime,
    interpolate,
    is_prime,
    lde_eval,
    lde_eval_block,
    lde_eval_points,
    next_prime_above,
    poly_eval,
    s_polynomial,
)

F17 = PrimeField(17)


def sieve(limit):
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return {int(i) for i in np.nonzero(flags)[0]}


class TestPrimes:
    def test_find_prime_64_against_sieve(self):
        primes = sieve(128)
        expected = min(q for q in primes if 64 < q <= 128)
        assert find_prime(64).q == expected == 67

    def test_find_prime_trivia(self):
        assert find_prime(2).q == 3
        assert find_prime(100).q == 101

    def test_miller_rabin_against_sieve(self):
        primes = sieve(3000)
        for q in range(2, 3000):
            assert is_prime(q) == (q in primes)

    def test_prime_field_rejects_composites(self):
        with pytest.raises(ValueError):
            PrimeField(91)


def naive_lagrange(table, r, j):
    q = table.field.q
    total = 0
    for i in range(1, table.rows + 1):
        term = int(table.values[i - 1, j - 1])
        for k in range(1, table.rows + 1):
            if k != i:
                term = term * ((r - k) % q) % q
                term = term * pow((i - k) % q, q - 2, q) % q
        total = (total + term) % q
    return total


class TestLowDegreeExtension:
    def _table(self, seed=0, q=307, rows=16, cols=4):
        g = RandomSource(seed).generator()
        vals = g.integers(0, q, size=(rows, cols)).astype(np.int64)
        return EvalTable(vals, PrimeField(q))

    def test_grid_nodes_reproduce_table(self):
        tab = self._table()
        for i in range(1, tab.rows + 1):
            assert np.array_equal(lde_eval_block(tab, i), tab.values[i - 1])

    def test_constant_column(self):
        tab = EvalTable(np.full((8, 3), 5, dtype=np.int64), PrimeField(101))
        for r in (0, 9, 55, 100):
            assert lde_eval(tab, r, 2) == 5

    def test_matches_naive_lagrange(self):
        tab = self._table(seed=3)
        for r in (3, 29, 170, 306):
            for j in range(1, tab.cols + 1):
                assert lde_eval(tab, r, j) == naive_lagrange(tab, r, j)


def lde_eval_block_reference(table, r):
    """The per-point barycentric loop lde_eval_points replaced, kept as the
    reference: Python-level weights and one pow per node."""
    q = table.field.q
    t = table.rows
    r = r % q
    nodes = np.arange(1, t + 1, dtype=np.int64)
    diff = (r - nodes) % q
    if (diff == 0).any():
        return table.values[int(r) - 1].copy()
    w = np.empty(t, dtype=np.int64)
    for i in range(1, t + 1):
        p = 1
        for k in range(1, t + 1):
            if k != i:
                p = p * ((i - k) % q) % q
        w[i - 1] = pow(int(p), q - 2, q)
    inv_diff = np.array([pow(int(d), q - 2, q) for d in diff], dtype=np.int64)
    coeff = w * inv_diff % q
    num = coeff @ table.values % q
    den = int(coeff.sum() % q)
    return num * pow(den, q - 2, q) % q


@st.composite
def tables_and_points(draw):
    q = draw(st.sampled_from([2, 3, 5, 17, 101, 307, 4099]))
    rows = draw(st.integers(1, min(q - 1, 24)))
    cols = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    vals = RandomSource(seed).generator().integers(0, q, size=(rows, cols))
    # nodes, their wrapped copies, points >= q, zero and negatives
    pts = draw(st.lists(
        st.one_of(
            st.integers(1, rows),
            st.tuples(st.integers(1, rows), st.integers(1, 3)).map(lambda t: t[0] + q * t[1]),
            st.integers(-3 * q, 3 * q),
        ),
        min_size=0, max_size=40,
    ))
    return EvalTable(vals.astype(np.int64), PrimeField(q)), pts


class TestLdeEvalPoints:
    @given(tables_and_points())
    def test_matches_per_point_reference(self, case):
        tab, pts = case
        got = lde_eval_points(tab, pts)
        assert got.shape == (len(pts), tab.cols)
        for k, r in enumerate(pts):
            assert np.array_equal(got[k], lde_eval_block_reference(tab, r))
            assert np.array_equal(lde_eval_block(tab, r), got[k])

    def test_chunks_match_one_pass(self):
        # 2^16 / 64 rows = 1024 points a chunk: 3000 points take three chunks
        q = 4099
        vals = RandomSource(9).generator().integers(0, q, size=(64, 3)).astype(np.int64)
        tab = EvalTable(vals, PrimeField(q))
        pts = np.arange(3000, dtype=np.int64) * 7 + 1
        got = lde_eval_points(tab, pts)
        for k in (0, 1023, 1024, 2047, 2048, 2999):
            assert np.array_equal(got[k], lde_eval_block_reference(tab, int(pts[k])))

    def test_rows_must_fit_the_field(self):
        # nodes 1..7 collide mod 5: the weights would silently be zero
        with pytest.raises(ValueError):
            EvalTable(np.zeros((7, 1), dtype=np.int64), PrimeField(5))
        with pytest.raises(ValueError):
            EvalTable(np.zeros((5, 1), dtype=np.int64), PrimeField(5))
        EvalTable(np.zeros((4, 1), dtype=np.int64), PrimeField(5))

    def test_field_too_large_for_int64_rejected(self):
        big = next_prime_above(1 << 32)  # q^2 > 2^63
        with pytest.raises(ValueError):
            EvalTable(np.zeros((2, 2), dtype=np.int64), big)
        near = next_prime_above(1 << 31)  # q^2 < 2^63, but 4 rows overflow a dot
        EvalTable(np.zeros((1, 1), dtype=np.int64), near)
        with pytest.raises(ValueError):
            EvalTable(np.zeros((4, 1), dtype=np.int64), near)


class TestSPolynomial:
    def test_zero_tables(self):
        z = EvalTable(np.zeros((4, 2), dtype=np.int64), F17)
        assert s_polynomial(z, z).degree == -1

    def test_degree_bound(self):
        params_rows = 16
        q = next_prime_above(400).q
        g = RandomSource(4).generator()
        a = EvalTable(g.integers(0, 2, size=(params_rows, 4)).astype(np.int64), PrimeField(q))
        b = EvalTable(g.integers(0, 2, size=(params_rows, 4)).astype(np.int64), PrimeField(q))
        assert s_polynomial(a, b).degree <= 2 * (params_rows - 1)

    @pytest.mark.parametrize("kind,expect_zero", [
        (InstanceKind.DISJ_PAIR, True),
        (InstanceKind.INTERSECT_PAIR, False),
    ])
    def test_block_sum_counts_intersection(self, kind, expect_zero):
        q = next_prime_above(300).q
        field = PrimeField(q)
        for seed in range(10):
            x, y = sample_instance(kind, 64, RandomSource(seed))
            ta = EvalTable.from_bits(x, 16, 4, field)
            tb = EvalTable.from_bits(y, 16, 4, field)
            s = s_polynomial(ta, tb)
            total = sum(poly_eval(s, i) for i in range(1, 17)) % q
            size = int(np.sum(x.array & y.array))
            assert total == size % q
            assert (total == 0) == expect_zero == (size == 0)

    def test_field_too_small(self):
        tiny = PrimeField(5)
        a = EvalTable(np.zeros((4, 2), dtype=np.int64), tiny)
        with pytest.raises(ValueError):
            s_polynomial(a, a)  # needs 7 nodes, field has 5 elements


class TestPolyOps:
    def test_horner_matches_direct(self):
        p = UniPoly((3, 0, 5, 11), F17)
        for r in range(17):
            direct = (3 + 5 * r * r + 11 * r**3) % 17
            assert poly_eval(p, r) == direct

    def test_identical_polynomials_agree_everywhere(self):
        p = UniPoly((1, 2, 3), F17)
        pts = np.arange(1, 18 - 1)
        assert agreement_count(p, p, pts) == len(pts)

    def test_distinct_constants_never_agree(self):
        p1, p2 = UniPoly((4,), F17), UniPoly((9,), F17)
        assert agreement_count(p1, p2, np.arange(0, 17)) == 0

    def test_agreement_bounded_by_degree_full_scan(self):
        q = 307
        field = PrimeField(q)
        pts = np.arange(1, 301, dtype=np.int64)
        g = RandomSource(8).generator()
        for _ in range(1000):
            c1 = tuple(int(v) for v in g.integers(0, q, size=31))
            c2 = tuple(int(v) for v in g.integers(0, q, size=31))
            p1, p2 = UniPoly(c1, field), UniPoly(c2, field)
            if p1 == p2:
                continue
            assert agreement_count(p1, p2, pts) <= (p1 - p2).degree

    def test_empty_point_set_rejected(self):
        with pytest.raises(ValueError):
            agreement_count(UniPoly((1,), F17), UniPoly((2,), F17), np.array([]))

    def test_canonical_trim(self):
        assert UniPoly((1, 2, 0, 0), F17).coeffs == (1, 2)
        assert UniPoly((0, 0), F17).degree == -1

    @given(st.lists(st.integers(0, 16), max_size=6))
    def test_json_round_trip(self, coeffs):
        p = UniPoly(tuple(coeffs), F17)
        assert UniPoly.from_json(p.to_json(), F17) == p

    def test_interpolation_recovers(self):
        xs = [1, 2, 5, 9]
        p = UniPoly((2, 0, 7, 1), F17)
        ys = [poly_eval(p, x) for x in xs]
        assert interpolate(xs, ys, F17) == p
