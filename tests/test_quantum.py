import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smplab.qsim
import smplab.quantum

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
    StateVec,
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
        msg = UqstHonest().blocks(self.PHI, DESK, None)
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


def verify_blocks_loop(blocks, indices, v, gen):
    """The per-block loop the shared kernel replaced: every block projected,
    one scalar coin per block whose projection is not flagged."""
    probs, survivors = [], []
    for j in indices:
        proj = project(blocks[j], v)
        probs.append(proj.survival_prob)
        if not proj.flagged and gen.random() < proj.survival_prob:
            survivors.append((j, proj.coords))
    return probs, survivors


class TestVerifyBlocks:
    # block kinds: 0, 1 = one of two shared state objects; 2 = a separate
    # object equal to shared state 0; 3 = a fresh distinct state; 4 = a state
    # orthogonal to V, so its projection is flagged
    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(2, 12),
        kinds=st.lists(st.integers(0, 4), min_size=1, max_size=24),
        checked=st.lists(st.booleans(), min_size=24, max_size=24),
        reserve=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_block_loop(self, n, kinds, checked, reserve, seed):
        g = RandomSource(seed).generator()
        v = haar_subspace(n, 1 + seed % (n - 1), g)
        shared = [random_state(n, g), random_state(n, g)]
        outside = random_state(n, g).amplitudes
        orthogonal = StateVec.normalized(outside - v.basis @ (v.basis.conj().T @ outside))
        assert project(orthogonal, v).flagged
        blocks = []
        for kind in kinds:
            if kind < 2:
                blocks.append(shared[kind])
            elif kind == 2:
                blocks.append(StateVec(shared[0].amplitudes.copy()))
            elif kind == 3:
                blocks.append(random_state(n, g))
            else:
                blocks.append(StateVec(orthogonal.amplitudes.copy()))
        reserved = seed % len(blocks) if reserve else None
        indices = [j for j in range(len(blocks)) if checked[j] and j != reserved]
        loop_gen, kernel_gen = (RandomSource(seed, 1).generator() for _ in range(2))

        want_probs, want = verify_blocks_loop(blocks, indices, v, loop_gen)
        sent = (shared[0], project(shared[0], v))  # the sender's cached projection
        probs, got = smplab.quantum._verify_blocks(tuple(blocks), indices, v, kernel_gen, sent)

        assert probs == want_probs
        assert [j for j, _ in got] == [j for j, _ in want]
        for (_, coords), (_, want_coords) in zip(got, want):
            assert np.array_equal(coords.amplitudes, want_coords.amplitudes)
        assert kernel_gen.random() == loop_gen.random()  # same stream position


class TestProjectionCount:
    """Equal blocks are projected once per subspace, not once per copy."""

    PHI = random_state(16, RandomSource(70).generator())

    @pytest.mark.parametrize("strategy", [UqstHonest(), UqstFarProduct(gamma=0.9, seed=5)])
    def test_uqst_trial_projects_sender_and_one_block(self, count_calls, strategy):
        calls = count_calls(smplab.qsim.project)
        for t in range(5):
            calls.clear()
            out = uqst_run(self.PHI, DESK, strategy, RandomSource(94).derive(1, t))
            assert "block_survival_probs" in out.diagnostics
            assert len(calls) <= 2

    def test_rrq_trial_projects_each_side_and_one_block_per_half(self, count_calls):
        spec = CodeSpec.create(2)
        x = BitString.from_text("10")
        f_x = fingerprint(spec, x)
        params = RrqParams(n=2 * spec.block_len, a=4, m_copies=32)
        calls = count_calls(smplab.qsim.project)
        for t in range(5):
            calls.clear()
            rrq_eq_run(x, x, f_x, f_x, params, UqstHonest(), RandomSource(95).derive(1, t))
            assert 0 < len(calls) <= 4

    def test_honest_uqst_trial_projects_only_the_sender_state(self, count_calls):
        calls = count_calls(smplab.qsim.project)
        for t in range(5):
            calls.clear()
            uqst_run(self.PHI, DESK, UqstHonest(), RandomSource(96).derive(1, t))
            assert len(calls) == 1

    def test_honest_equal_pair_rrq_trial_projects_only_the_senders(self, count_calls):
        spec = CodeSpec.create(16)
        x = sample_instance(InstanceKind.EQ_PAIR, 16, RandomSource(97))[0]
        f_x, f_y = fingerprint(spec, x), fingerprint(spec, x)  # equal, separate arrays
        params = RrqParams(n=2 * spec.block_len, a=16, m_copies=32)
        calls = count_calls(smplab.qsim.project)
        verdicts = set()
        for t in range(20):
            calls.clear()
            verdict, _ = rrq_eq_run(x, x, f_x, f_y, params, UqstHonest(),
                                    RandomSource(98).derive(1, t))
            verdicts.add(verdict)
            assert len(calls) == 2
        assert Verdict.ACCEPT in verdicts  # some trial verified both halves


class TestQrqRepetitions:
    SPEC = CodeSpec.create(2)
    QPAR = UqstParams(n=2 * SPEC.block_len, a=6, eps=0.5, delta=0.25, scale=1.0 / 3200.0)

    def _all_repetitions_verdict(self, f_x, f_y, strategy, rng, repetitions):
        """Run every repetition, as before the early exit, and AND the tests."""
        accept = True
        for rep in range(repetitions):
            sub = rng.derive(10 + rep)
            out = uqst_run(f_y, self.QPAR, strategy, sub)
            if not out.accepted:
                accept = False
                continue
            p = 0.5 + fidelity(f_x, out.output_state) ** 2 / 2.0
            accept = accept and sub.derive(99).generator().random() < p
        return Verdict.ACCEPT if accept else Verdict.REJECT

    @pytest.mark.parametrize("kind", [InstanceKind.EQ_PAIR, InstanceKind.NE_PAIR])
    def test_early_exit_keeps_verdicts_and_skips_transfers(self, count_calls, kind):
        x, y = sample_instance(kind, 2, RandomSource(96))
        f_x, f_y = fingerprint(self.SPEC, x), fingerprint(self.SPEC, y)
        reps, trials = 3, 30
        want = [
            self._all_repetitions_verdict(f_x, f_y, UqstHonest(), RandomSource(97).derive(1, t), reps)
            for t in range(trials)
        ]
        calls = count_calls(smplab.quantum.uqst_run)
        got, transfers = [], []
        for t in range(trials):
            calls.clear()
            verdict, _ = qrq_eq_run(
                x, y, f_x, f_y, self.QPAR, UqstHonest(), RandomSource(97).derive(1, t), reps
            )
            got.append(verdict)
            transfers.append(len(calls))
        assert got == want
        assert all(n == reps for n, v in zip(transfers, got) if v is Verdict.ACCEPT)
        assert min(n for n, v in zip(transfers, got) if v is Verdict.REJECT) < reps
