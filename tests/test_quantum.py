import json
import math
from fractions import Fraction

import numpy as np
import pytest

from smplab.adversaries import (
    ProductCopies,
    UqstFarProduct,
    UqstHonest,
    UqstMixed,
    UqstWrongCount,
)
from smplab.codes import CodeSpec
from smplab.core import BitString, InstanceKind, RandomSource, Verdict, sample_instance
from smplab.qsim import (
    fingerprint,
    fidelity,
    haar_subspace,
    project,
    random_state,
    trace_distance_pure,
)
from smplab.quantum import (
    RrqParams,
    UqstOutcome,
    UqstParams,
    eq_qq_round_prob,
    eq_qq_run,
    qrq_eq_run,
    rrq_eq_run,
    uqst_honest_message,
    uqst_run,
)

DESK = UqstParams(n=16, a=4, eps=0.5, delta=0.25, scale=1.0 / 3200.0)
SPEC8 = CodeSpec.create(8)


def mc(fn, trials, seed):
    return sum(fn(RandomSource(seed).derive(1, t)) for t in range(trials)) / trials


class TestEqQq:
    def test_equal_inputs_round_probability_one(self):
        x, _ = sample_instance(InstanceKind.EQ_PAIR, 8, RandomSource(1))
        p = eq_qq_round_prob(x, x, SPEC8)
        verdict, tr = eq_qq_run(x, x, p, SPEC8, 4, RandomSource(2))
        assert p == 1 and verdict is Verdict.ACCEPT
        assert tr.alice.payload == ("fingerprint", x)
        assert tr.protocol_type == "QQ"
        assert tr.lengths()["alice"] == tr.lengths()["bob"] == math.ceil(math.log2(2 * SPEC8.block_len))

    def test_distinct_inputs_bounded(self):
        for seed in range(20):
            x, y = sample_instance(InstanceKind.NE_PAIR, 8, RandomSource(seed))
            assert eq_qq_round_prob(x, y, SPEC8) <= Fraction(13, 18)

    def test_eight_rounds_drive_error_below_eight_percent(self):
        for seed in range(10):
            x, y = sample_instance(InstanceKind.NE_PAIR, 8, RandomSource(seed))
            p = eq_qq_round_prob(x, y, SPEC8)
            assert p**8 <= Fraction(13, 18) ** 8 < Fraction(8, 100)

    def test_sampled_decision_matches_round_probability(self):
        x, y = sample_instance(InstanceKind.NE_PAIR, 8, RandomSource(3))
        exact = eq_qq_round_prob(x, y, SPEC8)
        p = float(exact)
        trials = 3000

        def one(rng):
            verdict, _ = eq_qq_run(x, y, exact, SPEC8, 1, rng)
            return verdict is Verdict.ACCEPT

        p_hat = mc(one, trials, 4)
        assert abs(p_hat - p) <= 3 * math.sqrt(p * (1 - p) / trials)


class TestUqstParams:
    def test_scaled_counts(self):
        assert DESK.m_copies == 64 and DESK.k_surv == 8
        full = UqstParams(n=16, a=4, eps=0.5, delta=0.25)
        assert full.m_copies == 204800 and full.k_surv == 25600

    def test_subspace_cannot_exceed_eps_n(self):
        with pytest.raises(ValueError):
            UqstParams(n=16, a=9, eps=0.5, delta=0.25)

    def test_quantization_target(self):
        assert DESK.quant_target == pytest.approx(0.5**2 * 0.25**4 / 100)
        assert DESK.bits == math.ceil(math.log2(8 * DESK.a / DESK.quant_target))


class TestUqstRun:
    PHI = random_state(16, RandomSource(70).generator())

    def test_honest_output_is_the_untouched_copy(self):
        for t in range(50):
            out = uqst_run(self.PHI, DESK, UqstHonest(), RandomSource(71).derive(1, t))
            if out.accepted:
                assert np.array_equal(out.output_state.amplitudes, self.PHI.amplitudes)
                assert trace_distance_pure(out.output_state, self.PHI) == 0

    def test_honest_acceptance_meets_contract(self):
        trials = 600

        def one(rng):
            return uqst_run(self.PHI, DESK, UqstHonest(), rng).accepted

        p_hat = mc(one, trials, 72)
        assert p_hat >= (1 - DESK.delta) - 3 * math.sqrt(p_hat * (1 - p_hat) / trials)

    def test_far_adversary_contract(self):
        trials = 600
        strategy = UqstFarProduct(gamma=0.9, seed=5)

        def one(rng):
            out = uqst_run(self.PHI, DESK, strategy, rng)
            return out.accepted and trace_distance_pure(out.output_state, self.PHI) > DESK.eps

        freq = mc(one, trials, 73)
        assert freq <= DESK.delta + 3 * math.sqrt(max(freq * (1 - freq), 1 / trials) / trials)

    def test_wrong_block_count_rejects(self):
        out = uqst_run(self.PHI, DESK, UqstWrongCount(DESK.m_copies - 1), RandomSource(74))
        assert not out.accepted and out.output_state is None
        assert out.diagnostics["note"] == "wrong block count"

    def test_wrong_dimension_rejects(self):
        class WrongDim:
            def blocks(self, phi, params, rng):
                from smplab.qsim import ProductState

                return ProductState((random_state(8, RandomSource(1).generator()),) * params.m_copies)

        out = uqst_run(self.PHI, DESK, WrongDim(), RandomSource(75))
        assert not out.accepted and out.diagnostics["note"] == "wrong block dimension"

    def test_survivor_counts_match_binomial_mean(self):
        trials = 400
        counts = []
        for t in range(trials):
            out = uqst_run(self.PHI, DESK, UqstHonest(), RandomSource(76).derive(1, t))
            counts.append(out.survivors)
        counts = np.array(counts, dtype=float)
        expect = (DESK.m_copies - 1) * DESK.a / DESK.n
        stderr = counts.std(ddof=1) / math.sqrt(trials)
        assert abs(counts.mean() - expect) <= 3 * stderr

    def test_mixed_ensemble_adversary_runs_sampled_components(self):
        strategy = UqstMixed(components=((0.5, 0.0), (0.5, 1.0)), seed=6)
        accepts = 0
        for t in range(200):
            out = uqst_run(self.PHI, DESK, strategy, RandomSource(77).derive(1, t))
            accepts += out.accepted
        # the honest half accepts often, the orthogonal half almost never
        assert 0.2 <= accepts / 200 <= 0.7

    def test_project_psi_mode_is_harsher_on_far_blocks(self):
        far = UqstFarProduct(gamma=0.9, seed=7)
        trials = 300

        def accept_with(mode):
            def one(rng):
                return uqst_run(self.PHI, DESK, far, rng, referee_mode=mode).accepted

            return mc(one, trials, 78)

        assert accept_with("project_psi") <= accept_with("swap") + 0.02

    def test_outcome_serializes(self):
        out = uqst_run(self.PHI, DESK, UqstHonest(), RandomSource(79))
        json.dumps(out.to_json())

    def test_outcome_invariant(self):
        with pytest.raises(ValueError):
            UqstOutcome(accepted=True, output_state=None, survivors=3)

    def test_honest_message_shape(self):
        msg = uqst_honest_message(self.PHI, DESK)
        assert msg.m_copies == DESK.m_copies
        assert all(fidelity(b, self.PHI) == pytest.approx(1) for b in msg.blocks)


class TestFarnessTransfer:
    def test_projection_keeps_far_states_far(self):
        # blocks at trace distance gamma stay at squared distance >=
        # gamma^2/8 - slack after projection, in at least 95% of draws
        n, a = 128, 32
        g = RandomSource(80).generator()
        phi = random_state(n, g)
        for gamma in (0.5, 0.9):
            hits = 0
            trials = 200
            for t in range(trials):
                psi = UqstFarProduct(gamma, seed=t).blocks(
                    phi, UqstParams(n=n, a=a, eps=0.5, delta=0.25, scale=1e-4), None
                ).blocks[0]
                v = haar_subspace(n, a, g)
                pp, pq = project(phi, v), project(psi, v)
                if pp.flagged or pq.flagged:
                    continue
                dist2 = np.linalg.norm(pp.coords.amplitudes - pq.coords.amplitudes) ** 2
                hits += dist2 >= gamma**2 / 8 - 0.05
            assert hits / trials >= 0.95


class TestQrq:
    QPAR = UqstParams(n=2 * SPEC8.block_len, a=48, eps=0.5, delta=0.25, scale=1.0 / 3200.0)

    def test_equal_inputs_accept_with_high_probability(self):
        x, _ = sample_instance(InstanceKind.EQ_PAIR, 8, RandomSource(81))
        f_x = fingerprint(SPEC8, x)
        trials = 150

        def one(rng):
            verdict, _ = qrq_eq_run(x, x, f_x, f_x, self.QPAR, UqstHonest(), rng)
            return verdict is Verdict.ACCEPT

        assert mc(one, trials, 82) >= 0.7

    def test_distinct_inputs_bounded_by_fingerprint_overlap(self):
        x, y = sample_instance(InstanceKind.NE_PAIR, 8, RandomSource(83))
        f_x, f_y = fingerprint(SPEC8, x), fingerprint(SPEC8, y)
        closed = float(eq_qq_round_prob(x, y, SPEC8))
        trials = 300

        def one(rng):
            verdict, _ = qrq_eq_run(x, y, f_x, f_y, self.QPAR, UqstHonest(), rng)
            return verdict is Verdict.ACCEPT

        p_hat = mc(one, trials, 84)
        # composition sanity: the rate approaches the closed-form rate
        assert p_hat <= Fraction(13, 18) + 0.05
        assert abs(p_hat - closed) <= 3 * math.sqrt(closed * (1 - closed) / trials) + 0.03

    def test_cross_fingerprint_prover_is_caught(self):
        x, y = sample_instance(InstanceKind.NE_PAIR, 8, RandomSource(85))
        f_x, f_y = fingerprint(SPEC8, x), fingerprint(SPEC8, y)
        wrong = ProductCopies(f_x)  # claims to ship f(y)
        trials = 200

        def one(rng):
            verdict, _ = qrq_eq_run(x, y, f_x, f_y, self.QPAR, wrong, rng)
            return verdict is Verdict.REJECT

        assert mc(one, trials, 86) >= 0.8

    def test_transcript_shape(self):
        x, _ = sample_instance(InstanceKind.EQ_PAIR, 8, RandomSource(87))
        f_x = fingerprint(SPEC8, x)
        _, tr = qrq_eq_run(x, x, f_x, f_x, self.QPAR, UqstHonest(), RandomSource(88))
        assert tr.protocol_type == "QRQ"
        qubits = math.ceil(math.log2(self.QPAR.n))
        assert tr.lengths() == {
            "alice": qubits,
            "bob": 2 * self.QPAR.a * self.QPAR.bits,
            "merlin": self.QPAR.m_copies * qubits,
        }


class TestRrq:
    SPEC2 = CodeSpec.create(2)
    RPAR = RrqParams(n=2 * SPEC2.block_len, a=4, m_copies=32)

    def test_equal_inputs_accept(self):
        x = BitString.from_text("10")
        f_x = fingerprint(self.SPEC2, x)
        trials = 300

        def one(rng):
            verdict, _ = rrq_eq_run(x, x, f_x, f_x, self.RPAR, UqstHonest(), rng)
            return verdict is Verdict.ACCEPT

        assert mc(one, trials, 89) >= 0.6

    def test_distinct_inputs_rejected_more_often(self):
        x, y = BitString.from_text("10"), BitString.from_text("01")
        f_x, f_y = fingerprint(self.SPEC2, x), fingerprint(self.SPEC2, y)
        trials = 300

        def equal_case(rng):
            verdict, _ = rrq_eq_run(x, x, f_x, f_x, self.RPAR, UqstHonest(), rng)
            return verdict is Verdict.ACCEPT

        def distinct_case(rng):
            verdict, _ = rrq_eq_run(x, y, f_x, f_y, self.RPAR, UqstHonest(), rng)
            return verdict is Verdict.ACCEPT

        assert mc(distinct_case, trials, 90) <= mc(equal_case, trials, 91) - 0.2

    def test_junk_blocks_rejected(self):
        x = BitString.from_text("10")
        f_x = fingerprint(self.SPEC2, x)
        trials = 300

        def one(rng):
            verdict, _ = rrq_eq_run(
                x, x, f_x, f_x, self.RPAR, UqstFarProduct(1.0, seed=9), rng
            )
            return verdict is Verdict.ACCEPT

        assert mc(one, trials, 92) <= 0.2

    def test_transcript_shape(self):
        x = BitString.from_text("10")
        f_x = fingerprint(self.SPEC2, x)
        _, tr = rrq_eq_run(x, x, f_x, f_x, self.RPAR, UqstHonest(), RandomSource(93))
        assert tr.protocol_type == "RRQ"
        assert tr.lengths() == self.RPAR.expected_lengths()
