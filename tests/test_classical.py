import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smplab.adversaries import (
    DisjHonest,
    DisjWrongPoly,
    NeArbitrary,
    NeHonest,
    NeTamper,
    ne_tamper_message,
    random_ne_message,
)
from smplab.classical import (
    DisjClaim,
    DisjInstance,
    DisjParams,
    _prob_no_common_hit,
    NeMessage,
    NeRrrParams,
    OneOutOfTwoInstance,
    OneOutOfTwoParams,
    disj_rrr_run,
    disj_rrr_soundness_exact,
    eq_rr_exact,
    eq_rr_run,
    honest_ne_message,
    ne_rrr_exact,
    ne_rrr_run,
    one_out_of_two_exact,
    one_out_of_two_run,
)
from smplab.codes import grid_of, row, row_distances
from smplab.core import (
    BitString,
    InstanceKind,
    OneOutOfTwoVerdict,
    RandomSource,
    Verdict,
    hamming_distance,
    sample_instance,
)
from smplab.field import UniPoly, lde_eval_block, poly_eval


def mc(fn, trials, seed):
    return sum(fn(RandomSource(seed).derive(1, t)) for t in range(trials)) / trials


def grids(spec, *inputs):
    return tuple(grid_of(spec, x) for x in inputs)


def ne_rrr_exact_by_enumeration(gx, gy, msg, params):
    """Reference for ne_rrr_exact: count accepted (i, j) column pairs one by one."""
    m = params.m_cols
    valid = (
        1 <= msg.k_row <= params.a_rows and msg.r_row.n == m and msg.s_row.n == m
    )
    if not valid or hamming_distance(msg.r_row, msg.s_row) < params.distance_threshold:
        return Fraction(0)
    true_x, true_y = row(gx, msg.k_row), row(gy, msg.k_row)
    accepted = 0
    for i in range(m):
        if msg.r_row.array[i] != true_x.array[i]:
            continue
        for j in range(m):
            if msg.s_row.array[j] == true_y.array[j]:
                accepted += 1
    return Fraction(accepted, m * m)


class TestOneOutOfTwo:
    PARAMS = OneOutOfTwoParams.create(16)

    def _instance(self, seed):
        return sample_instance(InstanceKind.ONE_OUT_OF_TWO_TRIPLE, 16, RandomSource(seed))

    def _encoded(self, seed):
        x1, x2, y = self._instance(seed)
        return x1, x2, y, OneOutOfTwoInstance.encode(x1, x2, y, self.PARAMS)

    def test_promise_violation_refused(self):
        x1, x2, y = self._instance(0)
        with pytest.raises(ValueError):
            OneOutOfTwoInstance.encode(x1, x1, x1, self.PARAMS)
        # a y equal to neither input also breaks the promise
        for pos in range(y.n):
            bits = y.array.copy()
            bits[pos] ^= 1
            stranger = BitString(bits)
            if stranger != x1 and stranger != x2:
                break
        with pytest.raises(ValueError):
            OneOutOfTwoInstance.encode(x1, x2, stranger, self.PARAMS)

    def test_exact_formula_boundaries(self):
        # distance d_j in row j gives success (k + d_j) / 2k
        x1, x2, y, inst = self._encoded(3)
        g1, g2 = grid_of(self.PARAMS.spec, x1), grid_of(self.PARAMS.spec, x2)
        from smplab.codes import best_row

        j = best_row(g1, g2)
        assert inst.j == j
        d = int(row_distances(g1, g2)[j - 1])
        k = self.PARAMS.k
        assert one_out_of_two_exact(inst, self.PARAMS) == Fraction(k + d, 2 * k)
        assert d >= math.ceil(k / 3)

    def test_success_at_least_two_thirds_random_instances(self):
        for n in (16, 48):
            params = OneOutOfTwoParams.create(n)
            for seed in range(100):
                x1, x2, y = sample_instance(
                    InstanceKind.ONE_OUT_OF_TWO_TRIPLE, n, RandomSource(seed, 5)
                )
                inst = OneOutOfTwoInstance.encode(x1, x2, y, params)
                assert one_out_of_two_exact(inst, params) >= Fraction(2, 3)

    def test_referee_always_right_when_entries_differ(self):
        # force Bob's column onto a differing position via exhaustive seeds:
        # whenever the sent row entries differ the answer must be the truth
        x1, x2, y, inst = self._encoded(7)
        truth = (
            OneOutOfTwoVerdict.FIRST_EQUAL if x1 == y else OneOutOfTwoVerdict.SECOND_EQUAL
        )
        g1, g2 = grid_of(self.PARAMS.spec, x1), grid_of(self.PARAMS.spec, x2)
        from smplab.codes import best_row, row

        j = best_row(g1, g2)
        r1, r2 = row(g1, j), row(g2, j)
        for t in range(200):
            verdict, tr = one_out_of_two_run(inst, self.PARAMS, RandomSource(11).derive(1, t))
            i, _ = tr.bob.payload
            if r1.array[i - 1] != r2.array[i - 1]:
                assert verdict is truth

    def test_monte_carlo_matches_exact(self):
        x1, x2, y, inst = self._encoded(13)
        truth = (
            OneOutOfTwoVerdict.FIRST_EQUAL if x1 == y else OneOutOfTwoVerdict.SECOND_EQUAL
        )
        exact = float(one_out_of_two_exact(inst, self.PARAMS))
        trials = 4000

        def one(rng):
            verdict, _ = one_out_of_two_run(inst, self.PARAMS, rng)
            return verdict is truth

        p_hat = mc(one, trials, 17)
        assert abs(p_hat - exact) <= 3 * math.sqrt(exact * (1 - exact) / trials) + 1e-9


class TestNeRrr:
    PARAMS = NeRrrParams.create(64)

    def test_completeness_exact_one(self):
        for seed in range(20):
            x, y = sample_instance(InstanceKind.NE_PAIR, 64, RandomSource(seed))
            msg = honest_ne_message(x, y, self.PARAMS)
            gx, gy = grids(self.PARAMS.spec, x, y)
            assert ne_rrr_exact(gx, gy, msg, self.PARAMS) == 1
            assert NeHonest().message(x, y, self.PARAMS, None) == msg
            verdict, _ = ne_rrr_run(gx, gy, msg, self.PARAMS, RandomSource(seed, 2))
            assert verdict is Verdict.ACCEPT

    def test_equal_inputs_honest_shape_rejected_with_certainty(self):
        x, _ = sample_instance(InstanceKind.EQ_PAIR, 64, RandomSource(31))
        msg = honest_ne_message(x, x, self.PARAMS)
        assert msg.r_row == msg.s_row
        (gx,) = grids(self.PARAMS.spec, x)
        assert ne_rrr_exact(gx, gx, msg, self.PARAMS) == 0
        verdict, _ = ne_rrr_run(gx, gx, msg, self.PARAMS, RandomSource(32))
        assert verdict is Verdict.REJECT

    def test_tamper_acceptance_formula(self):
        x, _ = sample_instance(InstanceKind.EQ_PAIR, 64, RandomSource(33))
        (gx,) = grids(self.PARAMS.spec, x)
        m = self.PARAMS.m_cols
        c = self.PARAMS.distance_threshold
        for u, v in [(c, 0), (0, c), (c // 2, c - c // 2), (c + 5, 3), (m, 0)]:
            msg = ne_tamper_message(x, x, u, v, self.PARAMS)
            expect = Fraction(m - u, m) * Fraction(m - v, m)
            if u + v < c:
                expect = Fraction(0)
            assert ne_rrr_exact(gx, gx, msg, self.PARAMS) == expect

    def test_below_threshold_tamper_rejected(self):
        x, _ = sample_instance(InstanceKind.EQ_PAIR, 64, RandomSource(34))
        msg = ne_tamper_message(x, x, 1, 1, self.PARAMS)
        (gx,) = grids(self.PARAMS.spec, x)
        assert ne_rrr_exact(gx, gx, msg, self.PARAMS) == 0

    def test_malformed_messages_reject_not_error(self):
        x, y = sample_instance(InstanceKind.NE_PAIR, 64, RandomSource(35))
        good = honest_ne_message(x, y, self.PARAMS)
        bad_index = NeMessage(0, good.r_row, good.s_row)
        bad_len = NeMessage(1, BitString.from_text("01"), good.s_row)
        gx, gy = grids(self.PARAMS.spec, x, y)
        for bad in (bad_index, bad_len):
            assert NeArbitrary(bad).message(x, y, self.PARAMS, None) == bad
            verdict, _ = ne_rrr_run(gx, gy, bad, self.PARAMS, RandomSource(36))
            assert verdict is Verdict.REJECT
            assert ne_rrr_exact(gx, gy, bad, self.PARAMS) == 0

    def test_repetitions_multiply(self):
        params5 = NeRrrParams.create(64, repetitions=5)
        x, _ = sample_instance(InstanceKind.EQ_PAIR, 64, RandomSource(37))
        c = params5.distance_threshold
        (gx,) = grids(params5.spec, x)
        msg = NeTamper(c, 0).message(x, x, params5, None)
        assert msg == ne_tamper_message(x, x, c, 0, params5)
        per_round = ne_rrr_exact(gx, gx, msg, params5)
        trials = 3000

        def one(rng):
            verdict, _ = ne_rrr_run(gx, gx, msg, params5, rng)
            return verdict is Verdict.ACCEPT

        p_hat = mc(one, trials, 38)
        expect = float(per_round**5)
        assert abs(p_hat - expect) <= 3 * math.sqrt(expect * (1 - expect) / trials) + 1e-9

    def test_monte_carlo_matches_exact_tamper(self):
        x, _ = sample_instance(InstanceKind.EQ_PAIR, 64, RandomSource(39))
        c = self.PARAMS.distance_threshold
        msg = NeTamper(c // 2, c - c // 2).message(x, x, self.PARAMS, None)
        (gx,) = grids(self.PARAMS.spec, x)
        exact = float(ne_rrr_exact(gx, gx, msg, self.PARAMS))
        trials = 4000

        def one(rng):
            verdict, _ = ne_rrr_run(gx, gx, msg, self.PARAMS, rng)
            return verdict is Verdict.ACCEPT

        p_hat = mc(one, trials, 40)
        assert abs(p_hat - exact) <= 3 * math.sqrt(exact * (1 - exact) / trials)

    def test_true_per_round_worst_case_over_sweep(self):
        # the protocol's genuine per-round optimum is the balanced tamper at
        # the distance threshold; nothing in the sweep beats it
        x, _ = sample_instance(InstanceKind.EQ_PAIR, 64, RandomSource(41))
        (gx,) = grids(self.PARAMS.spec, x)
        m = self.PARAMS.m_cols
        c = self.PARAMS.distance_threshold
        cap = Fraction(m - c // 2, m) * Fraction(m - (c - c // 2), m)
        for total in range(c, m + 1):
            for u in range(total + 1):
                msg = ne_tamper_message(x, x, u, total - u, self.PARAMS)
                assert ne_rrr_exact(gx, gx, msg, self.PARAMS) <= cap

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 12), st.data())
    def test_exact_closed_form_matches_enumeration(self, n, data):
        params = NeRrrParams.create(n)
        m, a = params.m_cols, params.a_rows
        bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
        gx = grid_of(params.spec, BitString(data.draw(bits)))
        gy = grid_of(params.spec, BitString(data.draw(bits)))
        row_bits = st.lists(st.integers(0, 1), min_size=m, max_size=m)
        if data.draw(st.booleans()):
            # a message built from true rows, so agreements are not all chance
            k = data.draw(st.integers(1, a))
            flips = data.draw(st.lists(st.integers(0, m - 1), max_size=m))
            r = gx.cells[k - 1].copy()
            s = gy.cells[k - 1].copy()
            r[flips[: len(flips) // 2]] ^= 1
            s[flips[len(flips) // 2 :]] ^= 1
            msg = NeMessage(k, BitString(r), BitString(s))
        else:
            msg = NeMessage(
                data.draw(st.integers(0, a + 1)),
                BitString(data.draw(row_bits)),
                BitString(data.draw(row_bits)),
            )
        assert ne_rrr_exact(gx, gy, msg, params) == ne_rrr_exact_by_enumeration(
            gx, gy, msg, params
        )

    def test_random_messages_stay_below_two_thirds(self):
        x, _ = sample_instance(InstanceKind.EQ_PAIR, 64, RandomSource(42))
        (gx,) = grids(self.PARAMS.spec, x)
        for t in range(50):
            msg = random_ne_message(self.PARAMS, RandomSource(43, t))
            assert ne_rrr_exact(gx, gx, msg, self.PARAMS) <= Fraction(2, 3)


class TestEqRrBaseline:
    def test_equal_inputs_always_accepted(self):
        from smplab.codes import CodeSpec

        spec = CodeSpec.create(16)
        x, _ = sample_instance(InstanceKind.EQ_PAIR, 16, RandomSource(44))
        (gx,) = grids(spec, x)
        assert eq_rr_exact(gx, gx) == 1
        verdict, tr = eq_rr_run(gx, gx, RandomSource(45))
        assert verdict is Verdict.ACCEPT
        assert tr.lengths()["alice"] == tr.lengths()["bob"]

    def test_distinct_inputs_exact_vs_monte_carlo(self):
        from smplab.codes import CodeSpec

        spec = CodeSpec.create(16)
        x, y = sample_instance(InstanceKind.NE_PAIR, 16, RandomSource(46))
        gx, gy = grids(spec, x, y)
        exact = float(eq_rr_exact(gx, gy))
        assert exact <= 1 - spec.min_distance / spec.padded_len + 1e-12
        trials = 4000

        def one(rng):
            verdict, _ = eq_rr_run(gx, gy, rng)
            return verdict is Verdict.ACCEPT

        p_hat = mc(one, trials, 47)
        assert abs(p_hat - exact) <= 3 * math.sqrt(exact * (1 - exact) / trials)


class _HighDegree:
    def polynomial(self, inst, params, rng):
        coeffs = [0] * (params.degree_bound + 2)
        coeffs[-1] = 1
        return UniPoly(tuple(coeffs), params.field)


class _NoCollisionScale:
    pass


def prob_no_common_hit_reference(c, hit_size, set_size):
    """The Fraction-valued DP _prob_no_common_hit replaced, kept as the
    reference: the law of the distinct subset elements one player touches,
    then the other player's chance of missing them all."""
    probs = [Fraction(0)] * (min(c, hit_size) + 1)
    probs[0] = Fraction(1)
    for _ in range(c):
        nxt = [Fraction(0)] * len(probs)
        for d, p in enumerate(probs):
            if p == 0:
                continue
            p_new = Fraction(hit_size - d, set_size)
            if d + 1 < len(nxt):
                nxt[d + 1] += p * p_new
                nxt[d] += p * (1 - p_new)
            else:
                nxt[d] += p
        probs = nxt
    return sum(
        p * Fraction(set_size - d, set_size) ** c for d, p in enumerate(probs) if p
    )


class TestProbNoCommonHit:
    @given(st.integers(0, 14), st.integers(1, 40), st.data())
    def test_matches_fraction_dp(self, c, set_size, data):
        hit = data.draw(st.integers(0, set_size))
        assert _prob_no_common_hit(c, hit, set_size) == prob_no_common_hit_reference(
            c, hit, set_size
        )

    @pytest.mark.parametrize("hit", [0, 1, 150, 299, 300])
    def test_desk_scale_edges(self, hit):
        # the evaluator's own sizes: 41 draws each from |S| = 300
        got = _prob_no_common_hit(41, hit, 300)
        assert got == prob_no_common_hit_reference(41, hit, 300)
        if hit == 0:
            assert got == 1


class TestDisjRrr:
    PARAMS = DisjParams.create(64, sample_scale=0.0232)

    def test_create_validates_alpha(self):
        with pytest.raises(ValueError):
            DisjParams.create(60)  # not a perfect power for alpha = 2/3

    def test_field_enlargement_recorded(self):
        assert self.PARAMS.q_enlarged and self.PARAMS.field.q == 307
        big = DisjParams.create(4096, alpha=0.5)
        assert not big.q_enlarged and 4096 < big.field.q <= 8192

    def _encoded(self, kind, seed, strategy=DisjHonest(), params=None):
        """The encoded pair drawn from `seed` and the strategy's claim on it."""
        params = params or self.PARAMS
        x, y = sample_instance(kind, 64, RandomSource(seed))
        inst = DisjInstance.encode(x, y, params)
        return inst, DisjClaim.of(strategy.polynomial(inst, params, None), params)

    def test_honest_disjoint_accepts_with_high_probability(self):
        inst, honest = self._encoded(InstanceKind.DISJ_PAIR, 48)
        trials = 600

        def one(rng):
            verdict, _ = disj_rrr_run(inst, honest, self.PARAMS, rng)
            return verdict is Verdict.ACCEPT

        p_hat = mc(one, trials, 49)
        assert p_hat >= 0.9

    def test_honest_intersecting_always_rejected(self):
        inst, honest = self._encoded(InstanceKind.INTERSECT_PAIR, 50)
        assert disj_rrr_soundness_exact(inst, honest, self.PARAMS) == 0
        for t in range(50):
            verdict, _ = disj_rrr_run(inst, honest, self.PARAMS, RandomSource(51).derive(1, t))
            assert verdict is Verdict.REJECT

    def test_degree_violation_rejected(self):
        inst, high = self._encoded(InstanceKind.DISJ_PAIR, 52, _HighDegree())
        assert not high.passes
        verdict, _ = disj_rrr_run(inst, high, self.PARAMS, RandomSource(53))
        assert verdict is Verdict.REJECT
        assert disj_rrr_soundness_exact(inst, high, self.PARAMS) == 0

    def test_no_collision_rejects(self):
        # one draw each from a 300-point set: collisions are rare, and
        # every no-collision run must reject even on disjoint inputs
        params = DisjParams.create(64, sample_scale=1e-9)
        assert params.samples_per_player == 1
        inst, honest = self._encoded(InstanceKind.DISJ_PAIR, 54, params=params)
        rejects = 0
        for t in range(300):
            verdict, tr = disj_rrr_run(inst, honest, params, RandomSource(55).derive(1, t))
            a_r = tr.alice.payload[0][0]
            b_r = tr.bob.payload[0][0]
            if a_r != b_r:
                rejects += 1
                assert verdict is Verdict.REJECT
        assert rejects > 250

    def test_exact_matches_monte_carlo_for_cheating_prover(self):
        inst, claim = self._encoded(InstanceKind.INTERSECT_PAIR, 56, DisjWrongPoly(seed=11))
        exact = float(disj_rrr_soundness_exact(inst, claim, self.PARAMS))
        trials = 1000

        def one(rng):
            verdict, _ = disj_rrr_run(inst, claim, self.PARAMS, rng)
            return verdict is Verdict.ACCEPT

        p_hat = mc(one, trials, 57)
        tol = 3 * math.sqrt(max(exact * (1 - exact), 1 / trials) / trials)
        assert abs(p_hat - exact) <= tol

    @pytest.mark.parametrize("n,alpha", [(64, 2.0 / 3.0), (16, 0.5)])
    def test_encode_matches_per_point_blocks(self, n, alpha):
        params = DisjParams.create(n, alpha=alpha, sample_scale=0.0232)
        x, y = sample_instance(InstanceKind.INTERSECT_PAIR, n, RandomSource(62))
        inst = DisjInstance.encode(x, y, params)
        ta, tb = params.tables(x, y)
        q = params.field.q
        for k, r in enumerate(params.eval_set):
            a, b = lde_eval_block(ta, int(r)), lde_eval_block(tb, int(r))
            assert np.array_equal(inst.blocks_a[k], a)
            assert np.array_equal(inst.blocks_b[k], b)
            assert inst.s_values[k] == int(a @ b % q)
        assert not inst.s_values.flags.writeable

    def test_block_sum_matches_horner(self):
        q = self.PARAMS.field.q
        g = RandomSource(63).generator()
        for _ in range(20):
            p = UniPoly(tuple(int(v) for v in g.integers(0, q, size=31)), self.PARAMS.field)
            direct = sum(poly_eval(p, i) for i in range(1, self.PARAMS.rows + 1)) % q
            assert self.PARAMS.block_sum(p) == direct

    def test_samples_sorted_by_r(self):
        inst, honest = self._encoded(InstanceKind.DISJ_PAIR, 58)
        _, tr = disj_rrr_run(inst, honest, self.PARAMS, RandomSource(59))
        rs, blocks = tr.alice.payload
        assert list(rs) == sorted(rs)
        assert np.array_equal(blocks, inst.blocks_a[rs - 1])

    def test_expected_lengths_match_transcript(self):
        inst, honest = self._encoded(InstanceKind.DISJ_PAIR, 60)
        _, tr = disj_rrr_run(inst, honest, self.PARAMS, RandomSource(61))
        assert tr.lengths() == self.PARAMS.expected_lengths()
