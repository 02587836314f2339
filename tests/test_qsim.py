import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smplab.codes import CodeSpec, encode
from smplab.core import BitString, InstanceKind, RandomSource, hamming_distance, sample_instance
from smplab.qsim import (
    MixedEnsemble,
    ProductState,
    QuantizedState,
    StateVec,
    Subspace,
    bits_for_target,
    dephase_across_blocks,
    dequantize,
    ensemble_density,
    fidelity,
    fingerprint,
    haar_subspace,
    overlap,
    product_measurement_stats,
    project,
    quantization_bound,
    quantize,
    random_state,
    swap_test_circuit,
    swap_test_prob,
    trace_distance_pure,
)


GEN = RandomSource(2024).generator()


def embed(coords: StateVec, v: Subspace) -> StateVec:
    """Lift subspace-basis coordinates back to the ambient space."""
    if coords.dim != v.dim:
        raise ValueError("dimension mismatch")
    return StateVec(v.basis @ coords.amplitudes)


def measure_subspace(phi: StateVec, v: Subspace, rng) -> tuple[bool, StateVec]:
    """Measure {V, I-V}; True = landed in V. Returns the post-state."""
    g = rng.generator() if isinstance(rng, RandomSource) else rng
    proj = project(phi, v)
    accepted = bool(g.random() < proj.survival_prob)
    if accepted:
        post = embed(proj.coords, v)
    else:
        inside = v.basis @ (v.basis.conj().T @ phi.amplitudes)
        post = StateVec.normalized(phi.amplitudes - inside)
    return accepted, post


class TestStateVec:
    def test_norm_enforced(self):
        with pytest.raises(ValueError):
            StateVec(np.array([1.0, 1.0]))

    def test_json_round_trip_exact(self):
        st_ = random_state(5, GEN)
        back = StateVec.from_json(json.loads(json.dumps(st_.to_json())))
        assert np.array_equal(back.amplitudes, st_.amplitudes)

    def test_operations_preserve_unit_norm(self):
        v = haar_subspace(8, 3, GEN)
        for _ in range(50):
            phi = random_state(8, GEN)
            proj = project(phi, v)
            if not proj.flagged:
                assert abs(np.linalg.norm(proj.coords.amplitudes) - 1) < 1e-12
                assert abs(np.linalg.norm(embed(proj.coords, v).amplitudes) - 1) < 1e-12


class TestSwapTest:
    def test_identical_states(self):
        phi = random_state(6, GEN)
        assert abs(swap_test_circuit(phi, phi) - 1.0) < 1e-12
        assert swap_test_prob(phi, phi) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_basis_states(self):
        e1, e2 = StateVec.basis(4, 0), StateVec.basis(4, 1)
        assert abs(swap_test_circuit(e1, e2) - 0.5) < 1e-12
        assert swap_test_prob(e1, e2) == 0.5

    def test_circuit_matches_closed_form(self):
        for t in range(300):
            d = 2 + t % 15
            a, b = random_state(d, GEN), random_state(d, GEN)
            assert abs(swap_test_circuit(a, b) - swap_test_prob(a, b)) < 1e-9

    def test_mixed_second_argument(self):
        phi = random_state(3, GEN)
        parts = [(0.25, random_state(3, GEN)), (0.75, random_state(3, GEN))]
        expect = 0.5 + sum(w * fidelity(phi, s) ** 2 for w, s in parts) / 2
        assert abs(swap_test_prob(phi, parts) - expect) < 1e-12

    def test_dimension_limits(self):
        with pytest.raises(ValueError):
            swap_test_circuit(random_state(65, GEN), random_state(65, GEN))
        with pytest.raises(ValueError):
            swap_test_prob(random_state(2, GEN), random_state(3, GEN))


class TestFingerprint:
    def test_normalized(self):
        spec = CodeSpec.create(8)
        h = fingerprint(spec, BitString.from_text("10010011"))
        assert abs(np.linalg.norm(h.amplitudes) - 1) < 1e-12

    def test_overlap_matches_direct_count(self):
        spec = CodeSpec.create(8)
        for seed in range(20):
            x, y = sample_instance(InstanceKind.NE_PAIR, 8, RandomSource(seed))
            hx, hy = fingerprint(spec, x), fingerprint(spec, y)
            cx, cy = encode(spec, x), encode(spec, y)
            matches = sum(1 for a, b in zip(cx.array, cy.array) if a == b)
            assert abs(overlap(hx, hy).real - matches / spec.block_len) < 1e-12

    def test_distinct_inputs_overlap_at_most_two_thirds(self):
        spec = CodeSpec.create(8)
        for seed in range(20):
            x, y = sample_instance(InstanceKind.NE_PAIR, 8, RandomSource(seed))
            d = hamming_distance(encode(spec, x), encode(spec, y))
            ov = 1 - d / spec.block_len
            assert ov <= 2 / 3 + 1e-12


class TestSubspaces:
    def test_gram_is_identity(self):
        v = haar_subspace(16, 5, RandomSource(3))
        gram = v.basis.conj().T @ v.basis
        assert np.abs(gram - np.eye(5)).max() < 1e-10

    def test_full_space_every_state_survives(self):
        v = haar_subspace(6, 6, RandomSource(4))
        for _ in range(10):
            assert abs(project(random_state(6, GEN), v).survival_prob - 1) < 1e-10

    def test_shared_seed_gives_identical_basis(self):
        v1 = haar_subspace(12, 4, RandomSource(7, 9))
        v2 = haar_subspace(12, 4, RandomSource(7, 9))
        assert np.array_equal(v1.basis, v2.basis)

    def test_survival_mean_matches_dimension_ratio(self):
        n, a, draws = 8, 2, 4000
        g = RandomSource(11).generator()
        phi = random_state(n, g)
        ls = np.array([project(phi, haar_subspace(n, a, g)).survival_prob for _ in range(draws)])
        stderr = ls.std(ddof=1) / math.sqrt(draws)
        assert abs(ls.mean() - a / n) <= 3 * stderr

    def test_distribution_invariant_under_fixed_unitary(self):
        # the projector mean is (a/n) I; rotating the subspaces must not move it
        n, a, draws = 6, 2, 3000
        g = RandomSource(13).generator()
        u = haar_subspace(n, n, g).basis  # a fixed unitary
        acc = np.zeros((n, n), dtype=np.complex128)
        acc_rot = np.zeros((n, n), dtype=np.complex128)
        for _ in range(draws):
            b = haar_subspace(n, a, g).basis
            acc += b @ b.conj().T
            br = u @ b
            acc_rot += br @ br.conj().T
        assert np.abs(acc / draws - (a / n) * np.eye(n)).max() < 0.05
        assert np.abs(acc_rot / draws - (a / n) * np.eye(n)).max() < 0.05

    def test_projection_tail_bounds(self):
        n, a, draws = 32, 8, 3000
        g = RandomSource(17).generator()
        phi = random_state(n, g)
        ls = np.array([project(phi, haar_subspace(n, a, g)).survival_prob for _ in range(draws)])
        for beta in (0.1, 0.3):
            low = float((ls <= (1 - beta) * a / n).mean())
            high = float((ls >= (1 + beta) * a / n).mean())
            se = math.sqrt(max(low * (1 - low), 1 / draws) / draws)
            assert low <= math.exp(-a * beta**2 / 4) + 3 * se
            se = math.sqrt(max(high * (1 - high), 1 / draws) / draws)
            assert high <= math.exp(-a * beta**2 / 8) + 3 * se

    def test_orthogonal_projection_flagged(self):
        v = Subspace(np.eye(4, 2, dtype=np.complex128))
        out = project(StateVec.basis(4, 3), v)
        assert out.flagged and out.survival_prob < 1e-15 and out.coords is None


def qr_basis(n: int, a: int, seed: int) -> np.ndarray:
    """Reference basis: the phase-corrected QR factor of the Gaussian frame
    that haar_subspace(n, a, RandomSource(seed)) draws."""
    g = RandomSource(seed).generator()
    z = (g.standard_normal((n, a)) + 1j * g.standard_normal((n, a))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))[None, :]


def qr_project(phi: StateVec, basis: np.ndarray) -> tuple[float, np.ndarray | None, bool]:
    """Survival probability, coordinates and flag of the projection through Q."""
    c = basis.conj().T @ phi.amplitudes
    p = float(np.linalg.norm(c) ** 2)
    if p < 1e-15:
        return p, None, True
    return min(p, 1.0), c / np.sqrt(p), False


class TestFrameSubspace:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 64),
        a_choice=st.one_of(st.just(1), st.just(0), st.integers(1, 64)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_project_matches_qr_basis(self, n, a_choice, seed):
        a = n if a_choice == 0 else min(a_choice, n)  # 0 stands for a = n
        v = haar_subspace(n, a, RandomSource(seed))
        q = qr_basis(n, a, seed)
        g = RandomSource(seed, 1).generator()
        phis = [random_state(n, g), StateVec.normalized(q @ random_state(a, g).amplitudes)]
        if a < n:
            raw = random_state(n, g).amplitudes
            phis.append(StateVec.normalized(raw - q @ (q.conj().T @ raw)))
        for phi in phis:
            got = project(phi, v)
            p, coords, flagged = qr_project(phi, q)
            assert got.flagged == flagged
            assert abs(got.survival_prob - p) <= 1e-12
            if not flagged:
                assert np.abs(got.coords.amplitudes - coords).max() <= 1e-12

    @pytest.mark.parametrize("n,a,seed", [(16, 4, 1), (384, 96, 2), (384, 16, 3), (6, 6, 4),
                                          (1, 1, 5), (64, 63, 6)])
    def test_basis_bit_equal_to_qr(self, n, a, seed):
        assert np.array_equal(haar_subspace(n, a, RandomSource(seed)).basis, qr_basis(n, a, seed))

    def test_tall_gaussian_frame_keeps_cholesky_factor(self):
        v = haar_subspace(384, 96, RandomSource(7))
        assert v.chol is not None and "basis" not in vars(v)

    def test_ill_conditioned_frame_keeps_qr_basis(self):
        frame = np.array([[1.0, 1.0], [0.0, 1e-3]], dtype=np.complex128)
        v = Subspace.spanned_by(frame)
        assert v.chol is None
        assert np.array_equal(v.basis, v.frame)

    @pytest.mark.parametrize("frame", [
        np.ones((4, 2), dtype=np.complex128),
        np.array([[1, 1], [0, 1e-9], [0, 0]], dtype=np.complex128),
        np.array([[1, 1], [0, 1e-7]], dtype=np.complex128),
        np.zeros((3, 1), dtype=np.complex128),
    ])
    def test_rank_deficient_frame_rejected(self, frame):
        with pytest.raises(ValueError, match="rank-deficient"):
            Subspace.spanned_by(frame)

    def test_transfer_trials_run_no_qr(self, monkeypatch):
        from smplab.harness import ExperimentConfig, run

        calls = []
        qr = np.linalg.qr

        def counted(*args, **kwargs):
            calls.append(1)
            return qr(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counted)
        for protocol, options in (("uqst", {"a": 4}), ("qrq-eq", {}), ("rrq-eq", {"m_copies": 16})):
            run(ExperimentConfig(protocol=protocol, n=4 if protocol != "uqst" else 16,
                                 trials=5, seed=3, options=options))
        assert not calls


class TestMeasureSubspace:
    def test_state_inside_always_accepted(self):
        v = haar_subspace(8, 3, RandomSource(19))
        phi = embed(random_state(3, GEN), v)
        for seed in range(10):
            accepted, post = measure_subspace(phi, v, RandomSource(seed, 77))
            assert accepted
            assert fidelity(post, phi) > 1 - 1e-10

    def test_acceptance_frequency_matches_survival(self):
        v = haar_subspace(8, 3, RandomSource(23))
        phi = random_state(8, RandomSource(29).generator())
        L = project(phi, v).survival_prob
        trials = 4000
        g = RandomSource(31).generator()
        hits = sum(measure_subspace(phi, v, g)[0] for _ in range(trials))
        stderr = math.sqrt(L * (1 - L) / trials)
        assert abs(hits / trials - L) <= 3 * stderr

    def test_post_state_has_no_leak_outside(self):
        v = haar_subspace(8, 3, RandomSource(37))
        g = RandomSource(41).generator()
        for _ in range(20):
            phi = random_state(8, GEN)
            accepted, post = measure_subspace(phi, v, g)
            inside = v.basis @ (v.basis.conj().T @ post.amplitudes)
            leak = np.linalg.norm(post.amplitudes - inside)
            if accepted:
                assert leak < 1e-10
            else:
                assert abs(leak - 1) < 1e-10


class TestQuantize:
    def test_basis_vector_exact(self):
        for bits in (4, 8, 12):
            e1 = StateVec.basis(6, 0)
            assert trace_distance_pure(dequantize(quantize(e1, bits)), e1) == 0

    def test_error_decreases_with_bits(self):
        st_ = random_state(7, RandomSource(43).generator())
        errors = [
            trace_distance_pure(dequantize(quantize(st_, bits)), st_) for bits in (8, 16, 24)
        ]
        assert errors[0] >= errors[1] >= errors[2]

    def test_round_trip_bound(self):
        g = RandomSource(47).generator()
        for _ in range(200):
            a = int(g.integers(2, 9))
            bits = int(g.integers(5, 20))
            st_ = random_state(a, g)
            err = trace_distance_pure(dequantize(quantize(st_, bits)), st_)
            assert err <= quantization_bound(a, bits)

    def test_bits_for_target_meets_target(self):
        g = RandomSource(53).generator()
        tau = 1e-3
        for _ in range(1000):
            a = int(g.integers(2, 7))
            bits = bits_for_target(a, tau)
            st_ = random_state(a, g)
            err = trace_distance_pure(dequantize(quantize(st_, bits)), st_)
            assert err <= tau

    def test_serialization_bit_exact(self):
        st_ = random_state(5, GEN)
        qs = quantize(st_, 13)
        back = QuantizedState.from_json(json.loads(json.dumps(qs.to_json())))
        assert back == qs

    def test_minimum_bits(self):
        with pytest.raises(ValueError):
            quantize(random_state(3, GEN), 3)

    @staticmethod
    def _loop_codes(coords, bits):
        """The per-component loop the vectorised quantize replaced."""
        scale = (1 << (bits - 1)) - 1
        codes = []
        for amp in coords.amplitudes:
            for v in (amp.real, amp.imag):
                codes.append(int(np.clip(round(v * scale), -scale, scale)))
        return tuple(codes)

    @pytest.mark.parametrize("bits", [4, 5, 9, 17, 30])
    def test_codes_match_per_component_loop(self, bits):
        scale = (1 << (bits - 1)) - 1
        # components whose scaled value is exactly halfway between two codes,
        # where round-half-to-even decides; the last amplitude fixes the norm
        ties = [(k + 0.5) / scale for k in (-2, -1, 0, 1)]
        ties = [v for v in ties if v * scale == int(v * scale * 2) / 2]
        head = np.array(ties[0::2]) + 1j * np.array(ties[1::2])
        tail = math.sqrt(1.0 - float(np.sum(np.abs(head) ** 2)))
        states = [StateVec(np.append(head, tail)), StateVec.basis(3, 1)]
        g = RandomSource(59, bits).generator()
        states += [random_state(dim, g) for dim in (1, 2, 16, 48)]
        for st_ in states:
            codes = quantize(st_, bits).codes
            assert codes == self._loop_codes(st_, bits)
            assert all(type(c) is int for c in codes)


class TestDistances:
    def test_identical_and_orthogonal(self):
        phi = random_state(5, GEN)
        assert trace_distance_pure(phi, phi) == 0 and fidelity(phi, phi) == pytest.approx(1)
        e1, e2 = StateVec.basis(3, 0), StateVec.basis(3, 1)
        assert trace_distance_pure(e1, e2) == 1 and fidelity(e1, e2) == 0

    def test_fuchs_van_de_graaf_chain(self):
        for _ in range(300):
            a, b = random_state(6, GEN), random_state(6, GEN)
            f = fidelity(a, b)
            t = trace_distance_pure(a, b)
            assert 1 - f <= t + 1e-12
            assert t <= math.sqrt(1 - f**2) + 1e-12


class TestDephasing:
    def test_product_input_is_fixed_point(self):
        pa, pb = random_state(3, GEN), random_state(4, GEN)
        joint = StateVec(np.kron(pa.amplitudes, pb.amplitudes))
        ens = dephase_across_blocks(joint, 3, 4)
        assert len(ens.states) == 1 and ens.weights[0] == pytest.approx(1)
        rho = ensemble_density(ens)
        assert np.abs(rho - np.outer(joint.amplitudes, joint.amplitudes.conj())).max() < 1e-12

    def test_bell_state_becomes_uniform_schmidt_mixture(self):
        bell = StateVec(np.array([1, 0, 0, 1]) / math.sqrt(2))
        ens = dephase_across_blocks(bell, 2, 2)
        assert sorted(round(w, 12) for w in ens.weights) == [0.5, 0.5]
        # local-Z statistics match
        z0, z1 = np.diag([1.0, 0]), np.diag([0, 1.0])
        stats_in = product_measurement_stats(bell, [z0, z1], [z0, z1])
        stats_out = product_measurement_stats(ens, [z0, z1], [z0, z1])
        assert np.abs(stats_in - stats_out).max() < 1e-12

    def test_random_states_match_measurement_adapted_stats(self):
        g = RandomSource(59).generator()
        for _ in range(30):
            joint = random_state(9, g)
            u1 = haar_subspace(3, 3, g).basis
            u2 = haar_subspace(3, 3, g).basis
            ens = dephase_across_blocks(joint, 3, 3, u1, u2)
            pr1 = [np.outer(u1[:, i], u1[:, i].conj()) for i in range(3)]
            pr2 = [np.outer(u2[:, i], u2[:, i].conj()) for i in range(3)]
            gap = np.abs(
                product_measurement_stats(joint, pr1, pr2)
                - product_measurement_stats(ens, pr1, pr2)
            ).max()
            assert gap < 1e-9

    def test_dephased_density_zeroes_off_diagonal_blocks(self):
        g = RandomSource(61).generator()
        joint = random_state(4, g)
        u1 = haar_subspace(2, 2, g).basis
        u2 = haar_subspace(2, 2, g).basis
        ens = dephase_across_blocks(joint, 2, 2, u1, u2)
        big = np.kron(u1, u2)
        rho_in = big.conj().T @ np.outer(joint.amplitudes, joint.amplitudes.conj()) @ big
        rho_out = big.conj().T @ ensemble_density(ens) @ big
        assert np.abs(np.diag(rho_in) - np.diag(rho_out)).max() < 1e-12
        assert np.abs(rho_out - np.diag(np.diag(rho_out))).max() < 1e-12

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            dephase_across_blocks(random_state(128, GEN), 8, 16)


class TestEnsembles:
    def test_weights_validated(self):
        ps = ProductState((random_state(2, GEN),))
        with pytest.raises(ValueError):
            MixedEnsemble((0.5, 0.4), (ps, ps))

    def test_sampling_follows_weights(self):
        s1 = ProductState((StateVec.basis(2, 0),))
        s2 = ProductState((StateVec.basis(2, 1),))
        ens = MixedEnsemble((0.2, 0.8), (s1, s2))
        g = RandomSource(67).generator()
        freq = sum(ens.sample(g) is s2 for _ in range(2000)) / 2000
        assert abs(freq - 0.8) < 0.05

    def test_block_marginal(self):
        s1 = ProductState((StateVec.basis(2, 0), StateVec.basis(2, 1)))
        ens = MixedEnsemble((1.0,), (s1,))
        marg = ens.block_marginal(1)
        assert marg[0][0] == 1.0 and fidelity(marg[0][1], StateVec.basis(2, 1)) == 1
