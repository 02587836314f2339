from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smplab import adversaries as adv
from smplab.classical import DisjInstance, DisjParams, NeRrrParams, ne_rrr_exact
from smplab.codes import grid_of
from smplab.core import BitString, ConfigError, InstanceKind, RandomSource, sample_instance
from smplab.field import agreement_count, poly_eval, s_polynomial
from smplab.qsim import (
    fidelity,
    haar_subspace,
    product_measurement_stats,
    random_state,
    trace_distance_pure,
)

NE = NeRrrParams.create(64)
DISJ = DisjParams.create(64, sample_scale=0.0232)


class TestNeTamper:
    X, _ = sample_instance(InstanceKind.EQ_PAIR, 64, RandomSource(1))
    GX = grid_of(NE.spec, X)

    def test_zero_tamper_never_accepted(self):
        msg = adv.ne_tamper_message(self.X, self.X, 0, 0, NE)
        assert msg.r_row == msg.s_row
        assert ne_rrr_exact(self.GX, self.GX, msg, NE) == 0

    def test_rows_at_distance_u_plus_v(self):
        from smplab.core import hamming_distance

        for u, v in ((3, 4), (10, 0), (0, 7), (20, 20)):
            msg = adv.ne_tamper_message(self.X, self.X, u, v, NE)
            assert hamming_distance(msg.r_row, msg.s_row) == u + v

    def test_threshold_boundary_formula(self):
        m, c = NE.m_cols, NE.distance_threshold
        msg = adv.ne_tamper_message(self.X, self.X, c, 0, NE)
        acc = ne_rrr_exact(self.GX, self.GX, msg, NE)
        assert acc == Fraction(m - c, m) <= Fraction(2, 3)

    def test_acceptance_monotone_along_rays(self):
        m, c = NE.m_cols, NE.distance_threshold
        for num, den in ((1, 0), (0, 1), (1, 1), (2, 1)):
            prev = None
            for scale_ in range(1, m + 1):
                u, v = num * scale_, den * scale_
                if u + v < c or u + v > m:
                    continue
                acc = ne_rrr_exact(
                    self.GX, self.GX, adv.ne_tamper_message(self.X, self.X, u, v, NE), NE
                )
                if prev is not None:
                    assert acc <= prev
                prev = acc

    def test_overfull_tamper_rejected(self):
        with pytest.raises(ValueError):
            adv.ne_tamper_message(self.X, self.X, 40, 30, NE)


class TestDisjWrongPoly:
    X, Y = sample_instance(InstanceKind.INTERSECT_PAIR, 64, RandomSource(2))
    S_TRUE = s_polynomial(*DISJ.tables(X, Y))

    def test_block_sum_is_zero(self):
        q = DISJ.field.q
        for seed in range(50):
            sp = adv.disj_wrong_poly(self.S_TRUE, DISJ, RandomSource(seed))
            assert sum(poly_eval(sp, i) for i in range(1, DISJ.rows + 1)) % q == 0

    def test_differs_from_true_polynomial_and_agreement_bounded(self):
        s_true = self.S_TRUE
        for seed in range(50):
            sp = adv.disj_wrong_poly(s_true, DISJ, RandomSource(seed))
            assert sp != s_true
            assert agreement_count(sp, s_true, DISJ.eval_set) <= (sp - s_true).degree

    def test_strategy_is_deterministic_across_trials(self):
        strat = adv.DisjWrongPoly(seed=4)
        inst = DisjInstance.encode(self.X, self.Y, DISJ)
        p1 = strat.polynomial(inst, DISJ, RandomSource(0))
        p2 = strat.polynomial(inst, DISJ, RandomSource(999))
        assert p1 == p2


class TestDisjHonest:
    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([(16, 0.5), (27, 2.0 / 3.0), (64, 2.0 / 3.0)]), st.data())
    def test_polynomial_from_encoding_equals_s_polynomial(self, shape, data):
        n, alpha = shape
        params = DisjParams.create(n, alpha=alpha)
        x, y = (BitString(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
                for _ in range(2))
        inst = DisjInstance.encode(x, y, params)
        assert adv.DisjHonest().polynomial(inst, params, None) == s_polynomial(
            *params.tables(x, y)
        )


class TestUqstFarProduct:
    PHI = random_state(16, RandomSource(5).generator())

    def test_gamma_zero_is_honest(self):
        ps = adv.uqst_far_product(self.PHI, 0.0, 7, RandomSource(6))
        assert all(fidelity(b, self.PHI) == pytest.approx(1) for b in ps.blocks)

    def test_gamma_one_is_orthogonal(self):
        ps = adv.uqst_far_product(self.PHI, 1.0, 7, RandomSource(7))
        assert all(fidelity(b, self.PHI) < 1e-10 for b in ps.blocks)

    def test_exact_trace_distance(self):
        for gamma in (0.3, 0.62, 0.9):
            ps = adv.uqst_far_product(self.PHI, gamma, 3, RandomSource(8))
            for b in ps.blocks:
                assert trace_distance_pure(b, self.PHI) == pytest.approx(gamma, abs=1e-9)

    def test_blocks_are_one_fixed_state(self):
        ps = adv.uqst_far_product(self.PHI, 0.5, 5, RandomSource(9))
        first = ps.blocks[0]
        assert all(np.array_equal(b.amplitudes, first.amplitudes) for b in ps.blocks)

    def test_gamma_out_of_range(self):
        with pytest.raises(ValueError):
            adv.uqst_far_product(self.PHI, 1.5, 3, RandomSource(10))


class TestEntangledPair:
    def test_bell_pair_local_subspace_stats_match_dephased(self):
        # dephasing in a product basis refining {V, I-V} on each side leaves
        # that observable's joint outcome distribution untouched
        from smplab.qsim import dephase_across_blocks

        joint, _ = adv.uqst_entangled_pair(2, 2)
        g = RandomSource(11).generator()
        for _ in range(20):
            va = haar_subspace(2, 1, g).basis
            vb = haar_subspace(2, 1, g).basis
            ua = np.linalg.qr(va, mode="complete")[0]
            ub = np.linalg.qr(vb, mode="complete")[0]
            ens = dephase_across_blocks(joint, 2, 2, ua, ub)
            pa = va @ va.conj().T
            pb = vb @ vb.conj().T
            pr_a = [pa, np.eye(2) - pa]
            pr_b = [pb, np.eye(2) - pb]
            gap = np.abs(
                product_measurement_stats(joint, pr_a, pr_b)
                - product_measurement_stats(ens, pr_a, pr_b)
            ).max()
            assert gap < 1e-9

    def test_computational_measurement_statistics_identical(self):
        joint, ens = adv.uqst_entangled_pair(2, 2)
        z = [np.diag([1.0, 0]), np.diag([0, 1.0])]
        gap = np.abs(
            product_measurement_stats(joint, z, z) - product_measurement_stats(ens, z, z)
        ).max()
        assert gap < 1e-12

    def test_measurement_adapted_dephasing_matches_exactly(self):
        from smplab.qsim import dephase_across_blocks

        joint, _ = adv.uqst_entangled_pair(2, 2)
        g = RandomSource(12).generator()
        for _ in range(20):
            ua = haar_subspace(2, 2, g).basis
            ub = haar_subspace(2, 2, g).basis
            ens = dephase_across_blocks(joint, 2, 2, ua, ub)
            pa = [np.outer(ua[:, i], ua[:, i].conj()) for i in range(2)]
            pb = [np.outer(ub[:, i], ub[:, i].conj()) for i in range(2)]
            gap = np.abs(
                product_measurement_stats(joint, pa, pb)
                - product_measurement_stats(ens, pa, pb)
            ).max()
            assert gap < 1e-9

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            adv.uqst_entangled_pair(5, 5)


class TestParseStrategy:
    @pytest.mark.parametrize(
        "spec,cls",
        [
            ({"variant": "NeHonest"}, adv.NeHonest),
            ({"variant": "NeTamper", "u": 3, "v": 2}, adv.NeTamper),
            ({"variant": "DisjHonest"}, adv.DisjHonest),
            ({"variant": "DisjWrongPoly", "seed": 4}, adv.DisjWrongPoly),
            ({"variant": "UqstHonest"}, adv.UqstHonest),
            ({"variant": "UqstFarProduct", "gamma": 0.9}, adv.UqstFarProduct),
            ({"variant": "UqstWrongCount", "count": 5}, adv.UqstWrongCount),
            (
                {"variant": "UqstMixed", "components": [{"weight": 1.0, "gamma": 0.5}]},
                adv.UqstMixed,
            ),
            ({"variant": "RrqOrthogonalJunk"}, adv.UqstFarProduct),
            ({"variant": "QrqCrossFingerprint"}, adv.QrqCrossFingerprint),
        ],
    )
    def test_variants(self, spec, cls):
        protocol = adv.VARIANTS[spec["variant"]].protocols[-1]
        assert isinstance(adv.parse_strategy(spec, protocol), cls)

    def test_arbitrary_message(self):
        spec = {"variant": "NeArbitrary", "k_row": 2, "r_row": "0101", "s_row": "1010"}
        strat = adv.parse_strategy(spec, "ne-rrr")
        msg = strat.message(None, None, None, None)
        assert msg.k_row == 2 and msg.r_row == BitString.from_text("0101")

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            adv.parse_strategy({"variant": "Nope"}, "ne-rrr")

    def test_none_passthrough(self):
        assert adv.parse_strategy(None, "ne-rrr") is None

    @pytest.mark.parametrize("spec", [
        ["NeTamper", 1, 0],
        {"u": 1, "v": 0},
        {"variant": "NeTamper", "u": 1},
        {"variant": "NeTamper", "u": [1], "v": 0},
        {"variant": "NeTamper", "u": 1, "v": 0, "bogus": 1},
        {"variant": "NeArbitrary", "k_row": 1, "r_row": 101, "s_row": "1"},
    ])
    def test_malformed_spec_names_protocol_and_its_variants(self, spec):
        with pytest.raises(ConfigError, match="ne-rrr accepts NeHonest, NeTamper, NeArbitrary"):
            adv.parse_strategy(spec, "ne-rrr")

    @pytest.mark.parametrize("spec", [
        {"variant": "UqstFarProduct", "gamma": 1.5},
        {"variant": "UqstFarProduct", "gamma": -0.1},
        {"variant": "UqstMixed", "components": []},
        {"variant": "UqstMixed", "components": [{"weight": -0.5, "gamma": 0.1},
                                                {"weight": 1.5, "gamma": 0.1}]},
        {"variant": "UqstMixed", "components": [{"weight": 0.5, "gamma": 0.1}]},
        {"variant": "UqstMixed", "components": [{"weight": 1.0, "gamma": 2.0}]},
    ])
    def test_transfer_ranges_checked_when_parsed(self, spec):
        with pytest.raises(ConfigError, match="uqst accepts"):
            adv.parse_strategy(spec, "uqst")

    def test_mixture_components_must_be_weight_gamma_objects(self):
        for components in (5, [0.5], [{"weight": 1.0}]):
            with pytest.raises(ConfigError, match="uqst accepts"):
                adv.parse_strategy({"variant": "UqstMixed", "components": components}, "uqst")
