"""The acceptance battery: every exit criterion as an executable check.

Each criterion runs with fixed seeds, reports one pass/fail line, and the
suite emits a machine-readable manifest.  Failures are results, not errors.

Criterion 3 asserts the stated per-round soundness bound 2/3 over the full
tamper sweep.  The protocol's true worst case over that sweep is the
balanced tamper, whose acceptance (1 - floor(c/2)/m)(1 - ceil(c/2)/m) at
c = ceil(m/3) exceeds 2/3; the check is implemented exactly as stated and is
expected to fail there, with the violating messages listed in its details.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import adversaries as adv
from .classical import (
    DisjClaim,
    DisjInstance,
    DisjParams,
    NeRrrParams,
    OneOutOfTwoInstance,
    OneOutOfTwoParams,
    disj_rrr_run,
    disj_rrr_soundness_exact,
    eq_rr_run,
    ne_rrr_exact,
    ne_rrr_run,
    one_out_of_two_exact,
    one_out_of_two_run,
)
from .codes import CodeSpec, encode_all, grid_of
from .core import BitString, InstanceKind, RandomSource, Verdict, sample_instance
from .field import agreement_count, poly_eval
from .harness import ExperimentConfig, build_plan, hoeffding_half_width
from .qsim import (
    dephase_across_blocks,
    fingerprint,
    haar_subspace,
    product_measurement_stats,
    project,
    random_state,
    swap_test_circuit,
    swap_test_prob,
    trace_distance_pure,
)
from .quantum import (RrqParams, UqstParams, eq_qq_round_prob, eq_qq_run, qrq_eq_run,
                      rrq_eq_run, uqst_run)

BASE_SEED = 20240901


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    name: str
    passed: bool
    details: str
    elapsed_s: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.cid:2d} {self.name}: {self.details}"


def _freq_stderr(freq: float, trials: int) -> float:
    return math.sqrt(max(freq * (1.0 - freq), 1.0 / trials) / trials)


def _pairwise_distances(codewords: np.ndarray) -> np.ndarray:
    g = codewords.astype(np.float32)
    w = g.sum(axis=1)
    return np.rint(w[:, None] + w[None, :] - 2.0 * (g @ g.T)).astype(np.int64)


# ---------------------------------------------------------------------------


def crit_1_one_out_of_two(seed: int) -> tuple[bool, str]:
    """Exact success >= 2/3: exhaustive n=8 plus 100 random n=48 instances."""
    params = OneOutOfTwoParams.create(8)
    spec = params.spec
    k = params.k
    threshold = math.ceil(k / 3)
    cw = encode_all(spec)
    count = cw.shape[0]
    padded = np.zeros((count, spec.padded_len), dtype=np.uint8)
    padded[:, : spec.block_len] = cw
    grids = padded.reshape(count, k, k)
    # per-row pairwise distances, then the first qualifying row per pair
    row_d = np.empty((count, count, k), dtype=np.int64)
    for r in range(k):
        row_d[:, :, r] = _pairwise_distances(grids[:, r, :])
    qualifies = row_d >= threshold
    iu = np.triu_indices(count, k=1)
    has_row = qualifies.any(axis=2)[iu]
    if not has_row.all():
        return False, "some n=8 pair has no qualifying row"
    first = qualifies.argmax(axis=2)
    d_best = np.take_along_axis(row_d, first[:, :, None], axis=2)[:, :, 0][iu]
    worst = Fraction(k + int(d_best.min()), 2 * k)
    ok = worst >= Fraction(2, 3)

    worst48 = Fraction(1)
    p48 = OneOutOfTwoParams.create(48)
    for t in range(100):
        x1, x2, y = sample_instance(
            InstanceKind.ONE_OUT_OF_TWO_TRIPLE, 48, RandomSource(seed, 100 + t)
        )
        inst = OneOutOfTwoInstance.encode(x1, x2, y, p48)
        worst48 = min(worst48, one_out_of_two_exact(inst, p48))
    ok = ok and worst48 >= Fraction(2, 3)
    return ok, (
        f"min exact success: n=8 exhaustive {worst} ({float(worst):.4f}), "
        f"100 random n=48 {worst48} ({float(worst48):.4f}); bound 2/3"
    )


def crit_2_ne_completeness(seed: int) -> tuple[bool, str]:
    """Honest prover on 100 random unequal pairs at n=64: exact acceptance 1."""
    params = NeRrrParams.create(64)
    honest = adv.NeHonest()
    for t in range(100):
        x, y = sample_instance(InstanceKind.NE_PAIR, 64, RandomSource(seed, 200 + t))
        msg = honest.message(x, y, params, RandomSource(seed, 299))
        gx, gy = grid_of(params.spec, x), grid_of(params.spec, y)
        if ne_rrr_exact(gx, gy, msg, params) != 1:
            return False, f"pair {t} not accepted with certainty"
    return True, "exact acceptance = 1 on all 100 honest unequal pairs"


def crit_3_ne_soundness(seed: int) -> tuple[bool, str]:
    """Stated bound: exact acceptance <= 2/3 for every tamper (u, v) with
    u + v in {ceil(m/3)..m} plus 200 random messages; best^5 <= (2/3)^5."""
    params = NeRrrParams.create(64)
    m = params.m_cols
    c_min = params.distance_threshold
    x, _ = sample_instance(InstanceKind.EQ_PAIR, 64, RandomSource(seed, 300))
    gx = grid_of(params.spec, x)
    bound = Fraction(2, 3)
    best = Fraction(0)
    best_uv = None
    violations = []
    for total in range(c_min, m + 1):
        for u in range(total + 1):
            v = total - u
            msg = adv.ne_tamper_message(x, x, u, v, params)
            acc = ne_rrr_exact(gx, gx, msg, params)
            if acc > best:
                best, best_uv = acc, (u, v)
            if acc > bound:
                violations.append((u, v, acc))
    rnd_best = Fraction(0)
    for t in range(200):
        msg = adv.random_ne_message(params, RandomSource(seed, 400 + t))
        rnd_best = max(rnd_best, ne_rrr_exact(gx, gx, msg, params))
    five = best**5
    ok = not violations and rnd_best <= bound and five <= bound**5
    detail = (
        f"sweep max {best} ({float(best):.4f}) at (u,v)={best_uv}, "
        f"random-message max {float(rnd_best):.4f}, "
        f"t=5 best {float(five):.4f} vs (2/3)^5={float(bound ** 5):.4f}"
    )
    if violations:
        detail += (
            f"; {len(violations)} sweep messages exceed 2/3 "
            f"(stated bound unattainable: balanced tampers reach "
            f"(1-floor(c/2)/m)(1-ceil(c/2)/m) > 2/3 at c=ceil(m/3))"
        )
    return ok, detail


def crit_4_swap_test(seed: int) -> tuple[bool, str]:
    """Circuit simulation equals 1/2 + F^2/2 within 1e-9, 1000 random pairs."""
    g = RandomSource(seed, 500).generator()
    worst = 0.0
    for t in range(1000):
        d = 2 + t % 15
        a, b = random_state(d, g), random_state(d, g)
        worst = max(worst, abs(swap_test_circuit(a, b) - swap_test_prob(a, b)))
    return worst <= 1e-9, f"max |circuit - closed form| = {worst:.2e} (tol 1e-9)"


def crit_5_fingerprint_eq(seed: int) -> tuple[bool, str]:
    """Exhaustive n=8: equal inputs accept with probability exactly 1;
    distinct inputs at most 13/18 exactly."""
    spec = CodeSpec.create(8)
    cw = encode_all(spec)
    dist = _pairwise_distances(cw)
    iu = np.triu_indices(cw.shape[0], k=1)
    d_min = int(dist[iu].min())
    N = spec.block_len
    worst = Fraction(1, 2) + Fraction((N - d_min) ** 2, 2 * N * N)
    equal_ok = all(
        eq_qq_round_prob(x, x, spec) == 1
        for x in (
            BitString.from_text("00000000"),
            BitString.from_text("10110010"),
            BitString.from_text("11111111"),
        )
    )
    ok = equal_ok and worst <= Fraction(13, 18)
    return ok, (
        f"x=y acceptance exactly 1; max x!=y per-round acceptance {worst} "
        f"({float(worst):.4f}) <= 13/18 (min codeword distance {d_min}/{N})"
    )


_LEMMA1_CASES = ((8, 2), (16, 4), (32, 8))


def _survival_samples(n: int, a: int, draws: int, rng: RandomSource) -> np.ndarray:
    g = rng.generator()
    phi = random_state(n, g)
    out = np.empty(draws)
    for t in range(draws):
        out[t] = project(phi, haar_subspace(n, a, g)).survival_prob
    return out


def crit_6_survival_mean(seed: int) -> tuple[bool, str]:
    """Mean squared projection onto a Haar subspace equals a/n (3 stderr)."""
    details = []
    ok = True
    for n, a in _LEMMA1_CASES:
        ls = _survival_samples(n, a, 10_000, RandomSource(seed, 600 + n))
        mean, stderr = ls.mean(), ls.std(ddof=1) / math.sqrt(len(ls))
        ok = ok and abs(mean - a / n) <= 3 * stderr
        details.append(f"(n={n},a={a}): {mean:.4f} vs {a / n} +-{3 * stderr:.4f}")
    return ok, "; ".join(details)


def crit_7_projection_tails(seed: int) -> tuple[bool, str]:
    """Lower-tail frequencies stay under exp(-a beta^2 / 4) (+3 stderr)."""
    n, a, draws = 32, 8, 10_000
    ls = _survival_samples(n, a, draws, RandomSource(seed, 700))
    details = []
    ok = True
    for beta in (0.1, 0.3):
        freq = float((ls <= (1 - beta) * a / n).mean())
        bound = math.exp(-a * beta**2 / 4)
        limit = bound + 3 * _freq_stderr(freq, draws)
        ok = ok and freq <= limit
        details.append(f"beta={beta}: freq {freq:.4f} <= bound {bound:.4f}+3se")
    return ok, "; ".join(details)


def crit_8_dephasing(seed: int) -> tuple[bool, str]:
    """Product-measurement statistics survive dephasing within 1e-9 for 50
    random 3x3 joint states and 20 random product measurements each."""
    g = RandomSource(seed, 800).generator()
    worst = 0.0
    for _ in range(50):
        joint = random_state(9, g)
        for _ in range(20):
            u1 = haar_subspace(3, 3, g).basis
            u2 = haar_subspace(3, 3, g).basis
            ens = dephase_across_blocks(joint, 3, 3, u1, u2)
            pr1 = [np.outer(u1[:, i], u1[:, i].conj()) for i in range(3)]
            pr2 = [np.outer(u2[:, i], u2[:, i].conj()) for i in range(3)]
            gap = np.abs(
                product_measurement_stats(joint, pr1, pr2)
                - product_measurement_stats(ens, pr1, pr2)
            ).max()
            worst = max(worst, float(gap))
    return worst <= 1e-9, f"max statistic gap {worst:.2e} (tol 1e-9)"


UQST_DESK = dict(n=16, a=4, eps=0.5, delta=0.25, scale=1.0 / 3200.0)


def crit_9_uqst_contract(seed: int) -> tuple[bool, str]:
    """Honest acceptance >= 1 - delta (3 stderr) with bit-identical output;
    far-product adversary's Pr[accept and far] <= delta (+3 stderr)."""
    params = UqstParams(**UQST_DESK)
    trials = 2000
    phi = random_state(params.n, RandomSource(seed, 900).generator())

    accepts = 0
    output_exact = True
    for t in range(trials):
        out = uqst_run(phi, params, adv.UqstHonest(), RandomSource(seed, 901).derive(1, t))
        if out.accepted:
            accepts += 1
            output_exact = output_exact and np.array_equal(
                out.output_state.amplitudes, phi.amplitudes
            )
    honest = accepts / trials
    honest_ok = honest >= (1 - params.delta) - 3 * _freq_stderr(honest, trials)

    far_hits = 0
    strategy = adv.UqstFarProduct(gamma=0.9, seed=seed)
    for t in range(trials):
        out = uqst_run(phi, params, strategy, RandomSource(seed, 902).derive(1, t))
        if out.accepted and trace_distance_pure(out.output_state, phi) > params.eps:
            far_hits += 1
    far = far_hits / trials
    far_ok = far <= params.delta + 3 * _freq_stderr(far, trials)

    ok = honest_ok and output_exact and far_ok
    return ok, (
        f"scale={params.scale:.2e} m={params.m_copies} k={params.k_surv}; honest "
        f"acceptance {honest:.4f} >= {1 - params.delta}-3se, outputs bit-identical: "
        f"{output_exact}; far(0.9) accept-and-far {far:.4f} <= {params.delta}+3se"
    )


DISJ_DESK_SCALE = 0.0232  # 41 draws per player; collision failure ~0.004


def crit_10_disj_completeness(seed: int) -> tuple[bool, str]:
    """Disjoint inputs with the honest polynomial accepted (>= 0.9 - CI);
    intersecting inputs with the honest polynomial rejected always."""
    params = DisjParams.create(64, sample_scale=DISJ_DESK_SCALE)
    trials = 2000
    x, y = sample_instance(InstanceKind.DISJ_PAIR, 64, RandomSource(seed, 1000))
    inst = DisjInstance.encode(x, y, params)
    honest = DisjClaim.of(adv.DisjHonest().polynomial(inst, params, None), params)
    accepts = sum(
        disj_rrr_run(inst, honest, params, RandomSource(seed, 1001).derive(1, t))[0]
        is Verdict.ACCEPT
        for t in range(trials)
    )
    p_hat = accepts / trials
    ci = hoeffding_half_width(trials, 0.01)
    complete_ok = p_hat >= 0.9 - ci

    xi, yi = sample_instance(InstanceKind.INTERSECT_PAIR, 64, RandomSource(seed, 1002))
    inst_i = DisjInstance.encode(xi, yi, params)
    honest_i = DisjClaim.of(adv.DisjHonest().polynomial(inst_i, params, None), params)
    exact = disj_rrr_soundness_exact(inst_i, honest_i, params)
    reject_ok = exact == 0 and all(
        disj_rrr_run(inst_i, honest_i, params, RandomSource(seed, 1004).derive(1, t))[0]
        is Verdict.REJECT
        for t in range(200)
    )
    ok = complete_ok and reject_ok
    return ok, (
        f"c={params.samples_per_player} (scale {params.sample_scale}), q={params.field.q}"
        f"{' (enlarged)' if params.q_enlarged else ''}; disjoint acceptance {p_hat:.4f} "
        f">= 0.9-CI({ci:.4f}); intersecting exact acceptance {exact} (rejected always)"
    )


def crit_11_disj_soundness(seed: int) -> tuple[bool, str]:
    """1000 zero-sum wrong polynomials: agreement count <= deg(s - s');
    Monte Carlo acceptance matches the exact evaluator within 3 stderr."""
    params = DisjParams.create(64, sample_scale=DISJ_DESK_SCALE)
    x, y = sample_instance(InstanceKind.INTERSECT_PAIR, 64, RandomSource(seed, 1100))
    inst = DisjInstance.encode(x, y, params)
    s_true = adv.DisjHonest().polynomial(inst, params, None)
    q = params.field.q
    max_agree = 0
    for t in range(1000):
        s_prime = adv.disj_wrong_poly(s_true, params, RandomSource(seed, 1101 + t))
        total = sum(poly_eval(s_prime, i) for i in range(1, params.rows + 1)) % q
        if total != 0 or s_prime == s_true:
            return False, f"wrong-poly construction broke at t={t}"
        agree = agreement_count(s_prime, s_true, params.eval_set)
        if agree > (s_prime - s_true).degree:
            return False, f"agreement {agree} exceeds degree at t={t}"
        max_agree = max(max_agree, agree)

    trials = 2000
    mc_ok = True
    details = []
    for k in range(3):
        s_prime = adv.DisjWrongPoly(seed=seed + k).polynomial(inst, params, None)
        claim = DisjClaim.of(s_prime, params)
        exact = float(disj_rrr_soundness_exact(inst, claim, params))
        accepts = sum(
            disj_rrr_run(inst, claim, params, RandomSource(seed, 1200 + k).derive(1, t))[0]
            is Verdict.ACCEPT
            for t in range(trials)
        )
        p_hat = accepts / trials
        tol = 3 * _freq_stderr(max(exact, p_hat), trials)
        mc_ok = mc_ok and abs(p_hat - exact) <= tol
        details.append(f"mc {p_hat:.4f} vs exact {exact:.4f}")
    return mc_ok, (
        f"max agreement over 1000 wrong polys: {max_agree} (degree bound "
        f"{params.degree_bound}); " + "; ".join(details)
    )


def crit_12_code_distance(seed: int, spec_factory=CodeSpec.create) -> tuple[bool, str]:
    """Exhaustive relative distance >= 1/3 for every n <= 10."""
    worst = None
    for n in range(2, 11):
        spec = spec_factory(n)
        cw = encode_all(spec)
        dist = _pairwise_distances(cw)
        iu = np.triu_indices(cw.shape[0], k=1)
        d_min = int(dist[iu].min())
        N = spec.block_len
        rel = Fraction(d_min, N)
        if worst is None or rel < worst[0]:
            worst = (rel, n, d_min, N)
        if d_min < math.ceil(N / 3):
            return False, f"n={n}: min distance {d_min} < N/3 = {N / 3:.1f}"
    rel, n, d_min, N = worst
    return True, f"worst relative distance {d_min}/{N} = {float(rel):.4f} at n={n} (>= 1/3)"


_LENGTH_CHECK_NS = (16, 64, 256)
_TRANSFER = ("uqst", "qrq-eq", "rrq-eq")


def _length_configs(n: int) -> list[ExperimentConfig]:
    alpha = 2.0 / 3.0 if n == 64 else 0.5
    config = functools.partial(ExperimentConfig, n=n, trials=1, seed=1)
    return [
        *(config(protocol=p) for p in ("eq-rr", "one-of-two", "ne-rrr", "eq-qq")),
        config(protocol="uqst", options={"a": max(1, n // 4)}),
        config(protocol="qrq-eq", scale=1e-7, options={"a": 16}),
        config(protocol="rrq-eq", options={"a": 16, "m_copies": 8}),
        config(protocol="disj-rrr", scale=DISJ_DESK_SCALE, options={"alpha": alpha}),
    ]


def _transfer_params(config: ExperimentConfig):
    """The transfer-family parameters of the configs above."""
    if config.protocol == "uqst":
        return UqstParams(n=config.n, a=config.options["a"], eps=0.5, delta=0.25,
                          scale=1.0 / 3200.0)
    fdim = 2 * CodeSpec.create(config.n).block_len
    if config.protocol == "qrq-eq":
        return UqstParams(n=fdim, a=16, eps=0.5, delta=0.25, scale=config.scale)
    return RrqParams(n=fdim, a=16, m_copies=8)


def _expected_lengths(config: ExperimentConfig) -> dict[str, int]:
    """Closed-form message lengths per protocol (the declared shape)."""
    n = config.n

    def idx_bits(k):
        return max(1, (k - 1).bit_length())

    if config.protocol in ("eq-rr", "one-of-two", "ne-rrr", "eq-qq"):
        spec = CodeSpec.create(n)
        k, c = spec.rows, spec.cols
        if config.protocol == "eq-rr":
            return {"alice": idx_bits(k) + c, "bob": idx_bits(c) + k}
        if config.protocol == "one-of-two":
            return {"alice": idx_bits(k) + 2 * k, "bob": idx_bits(k) + k}
        if config.protocol == "ne-rrr":
            return {
                "alice": idx_bits(c) + k,
                "bob": idx_bits(c) + k,
                "merlin": idx_bits(k) + 2 * c,
            }
        qubits = max(1, (2 * spec.block_len - 1).bit_length())
        return {"alice": qubits, "bob": qubits}
    if config.protocol in _TRANSFER:
        params = _transfer_params(config)
        if config.protocol != "qrq-eq":
            return params.expected_lengths()
        qubits = max(1, (params.n - 1).bit_length())
        return {
            "alice": qubits,
            "bob": 2 * params.a * params.bits,
            "merlin": params.m_copies * qubits,
        }
    if config.protocol == "disj-rrr":
        params = DisjParams.create(
            n, alpha=config.options["alpha"], sample_scale=config.scale
        )
        return params.expected_lengths()
    raise ValueError(config.protocol)


def _run_lengths(config: ExperimentConfig) -> dict[str, int]:
    """Message lengths measured from one run of the protocol's runner with an
    honest prover; its plan states the record's lengths in closed form instead."""
    n, rng, honest = config.n, RandomSource(config.seed, 7), adv.UqstHonest()
    if config.protocol == "uqst":
        phi = random_state(n, RandomSource(config.seed).generator())
        diag = uqst_run(phi, _transfer_params(config), honest, rng).diagnostics
        return {"alice": diag["alice_bits"], "merlin": diag["merlin_qubits"]}
    if config.protocol == "one-of-two":
        params = OneOutOfTwoParams.create(n)
        triple = sample_instance(InstanceKind.ONE_OUT_OF_TWO_TRIPLE, n, RandomSource(config.seed))
        inst = OneOutOfTwoInstance.encode(*triple, params)
        return one_out_of_two_run(inst, params, rng)[1].lengths()
    x, y = sample_instance(InstanceKind.EQ_PAIR, n, RandomSource(config.seed))
    if config.protocol == "disj-rrr":
        params = DisjParams.create(n, alpha=config.options["alpha"], sample_scale=config.scale)
        inst = DisjInstance.encode(x, y, params)
        claim = DisjClaim.of(adv.DisjHonest().polynomial(inst, params, None), params)
        return disj_rrr_run(inst, claim, params, rng)[1].lengths()
    spec = CodeSpec.create(n)
    if config.protocol == "eq-rr":
        _, transcript = eq_rr_run(grid_of(spec, x), grid_of(spec, y), rng)
    elif config.protocol == "ne-rrr":
        params = NeRrrParams.create(n)
        msg = adv.NeHonest().message(x, y, params, rng)
        _, transcript = ne_rrr_run(grid_of(spec, x), grid_of(spec, y), msg, params, rng)
    elif config.protocol == "eq-qq":
        _, transcript = eq_qq_run(x, y, eq_qq_round_prob(x, y, spec), spec, 1, rng)
    else:
        f_x, f_y = fingerprint(spec, x), fingerprint(spec, y)
        runner = qrq_eq_run if config.protocol == "qrq-eq" else rrq_eq_run
        _, transcript = runner(x, y, f_x, f_y, _transfer_params(config), honest, rng)
    return transcript.lengths()


def crit_13_message_lengths(seed: int) -> tuple[bool, str]:
    """Transcript lengths equal the declared (a, b, m) shapes for
    n in {16, 64, 256} across every protocol, and so do the lengths each
    run records."""
    checked = 0
    for n in _LENGTH_CHECK_NS:
        for config in _length_configs(n):
            expected = _expected_lengths(config)
            found = (("record", build_plan(config).lengths()), ("transcript", _run_lengths(config)))
            for source, actual in found:
                if actual != expected:
                    return False, (
                        f"{config.protocol} at n={n}: {source} lengths {actual} "
                        f"!= declared {expected}"
                    )
            checked += 1
    return True, f"{checked} protocol/size combinations match their declared shapes"


# ---------------------------------------------------------------------------


_CRITERIA = (
    (1, "one-out-of-two success >= 2/3", crit_1_one_out_of_two),
    (2, "not-equal completeness = 1", crit_2_ne_completeness),
    (3, "not-equal per-round soundness <= 2/3", crit_3_ne_soundness),
    (4, "swap-test circuit matches closed form", crit_4_swap_test),
    (5, "fingerprint equality bounds", crit_5_fingerprint_eq),
    (6, "subspace survival mean a/n", crit_6_survival_mean),
    (7, "projection lower tails", crit_7_projection_tails),
    (8, "dephasing preserves product statistics", crit_8_dephasing),
    (9, "state-transfer (eps, delta) contract", crit_9_uqst_contract),
    (10, "disjointness completeness", crit_10_disj_completeness),
    (11, "disjointness soundness", crit_11_disj_soundness),
    (12, "code distance >= 1/3", crit_12_code_distance),
    (13, "message-length accounting", crit_13_message_lengths),
)


def run_criterion(cid: int, seed: int = BASE_SEED, **kwargs) -> CriterionResult:
    for num, name, fn in _CRITERIA:
        if num == cid:
            t0 = time.perf_counter()
            passed, details = fn(seed, **kwargs)
            return CriterionResult(num, name, bool(passed), details, time.perf_counter() - t0)
    raise ValueError(f"no criterion {cid}")


def verify_suite(
    seed: int = BASE_SEED,
    only: list[int] | None = None,
    code_spec_factory=None,
) -> dict:
    """Run the battery and return the manifest; `code_spec_factory` lets the
    fault-injection test feed a deliberately weak code into criterion 12."""
    results = []
    for cid, name, fn in _CRITERIA:
        if only is not None and cid not in only:
            continue
        t0 = time.perf_counter()
        if cid == 12 and code_spec_factory is not None:
            passed, details = fn(seed, spec_factory=code_spec_factory)
        else:
            passed, details = fn(seed)
        results.append(
            CriterionResult(cid, name, bool(passed), details, time.perf_counter() - t0)
        )
    manifest = {
        "seed": seed,
        "all_passed": all(r.passed for r in results),
        "constants": {
            "code_rate": "1/3 outer Reed-Solomon, inner Hadamard",
            "uqst_desk_params": UQST_DESK,
            "disj_sample_scale": DISJ_DESK_SCALE,
            "length_check_ns": _LENGTH_CHECK_NS,
        },
        "criteria": [
            {
                "id": r.cid,
                "name": r.name,
                "passed": r.passed,
                "details": r.details,
                "elapsed_s": round(r.elapsed_s, 3),
            }
            for r in results
        ],
    }
    return manifest
