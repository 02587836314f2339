import dataclasses
import importlib
import json
import math
import os
import re

import pytest

from smplab import adversaries as adv
from smplab.acceptance import run_criterion, verify_suite
from smplab.codes import CodeSpec
from smplab.harness import (
    OPTIONAL_FIELDS,
    PROTOCOL_IDS,
    PROTOCOLS,
    ConfigError,
    ExperimentConfig,
    build_plan,
    hoeffding_half_width,
    persist,
    run,
    sweep,
)


MALFORMED = (
    ("uqst", {"variant": "UqstMixed", "components": 5}),
    ("ne-rrr", "NeHonest"),
    ("ne-rrr", {"variant": "QrqCrossFingerprint"}),
    ("ne-rrr", {"variant": "NeTamper", "u": 1, "v": 0, "bogus": 1}),
    ("disj-rrr", {"variant": "DisjWrongPoly", "seed": "four"}),
)


class TestConfig:
    def test_unknown_protocol(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(protocol="nope")

    def test_bad_mode_and_trials(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(protocol="eq-rr", mode="sideways")
        with pytest.raises(ConfigError):
            ExperimentConfig(protocol="eq-rr", trials=0)
        for protocol in ("ne-rrr", "eq-qq", "qrq-eq"):  # qrq-eq would accept every trial
            with pytest.raises(ConfigError, match="repetitions must be >= 1"):
                ExperimentConfig(protocol=protocol, repetitions=0)

    def test_unknown_instance_kind(self):
        with pytest.raises(ConfigError, match="unknown instance kind"):
            ExperimentConfig(protocol="ne-rrr", instance="bogus")
        with pytest.raises(ConfigError, match="unknown instance kind"):
            ExperimentConfig(protocol="ne-rrr", instance=["eq_pair"])

    def test_json_round_trip(self):
        cfg = ExperimentConfig(protocol="ne-rrr", n=64, adversary={"variant": "NeHonest"})
        assert ExperimentConfig.from_json(cfg.to_json()) == cfg

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json({"protocol": "eq-rr", "frobnicate": 1})

    def test_incompatible_adversary_detected_before_trials(self):
        for protocol, adversary in (
            ("ne-rrr", {"variant": "DisjHonest"}),
            ("disj-rrr", {"variant": "NeHonest"}),
            ("uqst", {"variant": "NeTamper", "u": 1, "v": 1}),
            ("uqst", {"variant": "UqstEntangledPair"}),
            ("qrq-eq", {"variant": "RrqOrthogonalJunk"}),
        ):
            cfg = ExperimentConfig(protocol=protocol, n=16, trials=10, adversary=adversary)
            with pytest.raises(ConfigError):
                run(cfg)

    @pytest.mark.parametrize("protocol,fields,accepted", [
        ("eq-rr", {"repetitions": 9}, "it reads instance"),
        ("eq-rr", {"scale": 0.5}, "it reads instance"),
        ("uqst", {"instance": "eq_pair"}, "it reads scale"),
        ("rrq-eq", {"options": {"m_copy": 8}}, "its options are a, m_copies"),
        ("qrq-eq", {"options": {"referee_mode": "swap"}}, "its options are a, eps, delta"),
        ("eq-rr", {"options": {"a": 4}}, "its options are none"),
        ("ne-rrr", {"options": 3}, "are not a JSON object"),
        ("eq-rr", {"options": [1]}, "are not a JSON object"),
    ])
    def test_unread_config_is_rejected_naming_what_is_read(self, protocol, fields, accepted):
        with pytest.raises(ConfigError, match=re.escape(accepted)):
            ExperimentConfig(protocol=protocol, **fields)

    def test_unread_fields_at_their_defaults_pass(self):
        ExperimentConfig(protocol="eq-rr", repetitions=1, scale=None)
        ExperimentConfig(protocol="uqst", instance=None)

    def test_eq_rr_rejects_adversary(self):
        with pytest.raises(ConfigError):
            run(ExperimentConfig(protocol="eq-rr", trials=1, adversary={"variant": "NeHonest"}))

    @pytest.mark.parametrize("protocol,adversary", MALFORMED)
    def test_malformed_adversary_is_config_error(self, count_calls, protocol, adversary):
        import smplab.harness

        trials = count_calls(smplab.harness._run_trials)
        cfg = ExperimentConfig(protocol=protocol, n=16, trials=10, adversary=adversary)
        with pytest.raises(ConfigError, match=f"{protocol} accepts") as err:
            run(cfg)
        assert "ProtocolResolved" not in str(err.value)
        assert not trials


# Which protocols can run each variant, written out independently of the
# registry, and one spec per variant.
DECLARED = {
    "NeHonest": ("ne-rrr",),
    "NeTamper": ("ne-rrr",),
    "NeArbitrary": ("ne-rrr",),
    "DisjHonest": ("disj-rrr",),
    "DisjWrongPoly": ("disj-rrr",),
    "UqstHonest": ("uqst", "qrq-eq", "rrq-eq"),
    "UqstFarProduct": ("uqst", "qrq-eq", "rrq-eq"),
    "UqstMixed": ("uqst", "qrq-eq", "rrq-eq"),
    "UqstWrongCount": ("uqst", "qrq-eq", "rrq-eq"),
    "QrqCrossFingerprint": ("qrq-eq",),
    "RrqOrthogonalJunk": ("rrq-eq",),
}
SPECS = {
    "NeTamper": {"u": 1, "v": 0},
    "NeArbitrary": {"k_row": 1, "r_row": "01", "s_row": "10"},
    "DisjWrongPoly": {"seed": 3},
    "UqstFarProduct": {"gamma": 0.5},
    "UqstMixed": {"components": [{"weight": 1.0, "gamma": 0.5}]},
    "UqstWrongCount": {"count": 3},
}
PROTOCOL_FIELDS = {
    "eq-rr": {"n": 16},
    "one-of-two": {"n": 16},
    "ne-rrr": {"n": 16},
    "eq-qq": {"n": 16},
    "uqst": {"n": 16, "options": {"a": 4}},
    "qrq-eq": {"n": 4},
    "rrq-eq": {"n": 4},
    "disj-rrr": {"n": 16, "options": {"alpha": 0.5}},
}


class TestRegistry:
    def test_registry_declares_the_paper_pairs(self):
        assert list(adv.VARIANTS) == list(DECLARED)
        assert {p for v in adv.VARIANTS.values() for p in v.protocols} <= set(PROTOCOL_IDS)

    @pytest.mark.parametrize("protocol", PROTOCOL_IDS)
    @pytest.mark.parametrize("variant", list(DECLARED))
    def test_plan_builds_exactly_for_declared_pairs(self, variant, protocol):
        cfg = ExperimentConfig(protocol=protocol, trials=1, **PROTOCOL_FIELDS[protocol],
                               adversary={"variant": variant, **SPECS.get(variant, {})})
        if protocol in DECLARED[variant]:
            build_plan(cfg)
            return
        accepted = [v for v, protocols in DECLARED.items() if protocol in protocols]
        message = (f"{protocol} accepts {', '.join(accepted)}" if accepted
                   else f"{protocol} takes no adversary")
        with pytest.raises(ConfigError, match=re.escape(message)):
            build_plan(cfg)


class _ReadOptions(dict):
    """Options that record each name read; a planner must read them by name."""

    def __init__(self, data):
        super().__init__(data)
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)

    def __iter__(self):
        raise AssertionError("planners read options by name")

    keys = items = values = copy = __iter__


class _ReadConfig:
    """An ExperimentConfig that records each field a planner reads."""

    def __init__(self, config):
        self._config, self.read, self.options = config, set(), _ReadOptions(config.options)

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self._config, name)


class TestProtocolTable:
    def test_table_is_the_one_list_of_protocols(self):
        from smplab.cli import build_parser

        assert PROTOCOL_IDS == tuple(PROTOCOLS)
        commands = next(a for a in build_parser()._actions if a.dest == "command")
        for name in ("run", "sweep"):
            flag = next(a for a in commands.choices[name]._actions if a.dest == "protocol")
            assert tuple(flag.choices) == PROTOCOL_IDS

    @pytest.mark.parametrize("protocol", PROTOCOL_IDS)
    def test_entry_declares_exactly_what_its_planner_reads(self, protocol):
        entry = PROTOCOLS[protocol]
        config = _ReadConfig(ExperimentConfig(protocol=protocol, **PROTOCOL_FIELDS[protocol]))
        entry.plan(config, None)
        assert config.read & set(OPTIONAL_FIELDS) == set(entry.fields)
        assert config.options.read == set(entry.options)

    @pytest.mark.parametrize("protocol", PROTOCOL_IDS)
    def test_record_takes_protocol_type_from_the_table(self, protocol):
        config = ExperimentConfig(protocol=protocol, trials=1, workers=1,
                                  **PROTOCOL_FIELDS[protocol])
        assert run(config).protocol_type == PROTOCOLS[protocol].protocol_type

    @pytest.mark.parametrize("protocol,module,runner", [
        ("eq-rr", "classical", "eq_rr_run"),
        ("one-of-two", "classical", "one_out_of_two_run"),
        ("ne-rrr", "classical", "ne_rrr_run"),
        ("eq-qq", "quantum", "eq_qq_run"),
        ("disj-rrr", "classical", "disj_rrr_run"),
    ])
    def test_runner_runs_once_per_trial_and_never_for_lengths(
        self, count_calls, protocol, module, runner
    ):
        calls = count_calls(getattr(importlib.import_module(f"smplab.{module}"), runner))
        for mode, expected in (("monte_carlo", 7), ("exact", 0)):
            calls.clear()
            run(ExperimentConfig(protocol=protocol, trials=7, seed=2, mode=mode, workers=1,
                                 **PROTOCOL_FIELDS[protocol]))
            assert len(calls) == expected

    def test_malformed_ne_message_records_the_declared_merlin_length(self):
        adversary = {"variant": "NeArbitrary", **SPECS["NeArbitrary"]}
        report = run(ExperimentConfig(protocol="ne-rrr", n=16, trials=5, seed=1, mode="both",
                                      workers=1, adversary=adversary))
        assert report.lengths == {"alice": 18, "bob": 18, "merlin": 32}
        assert report.p_hat == 0.0 and report.exact == 0


class TestHoeffding:
    def test_formula_value(self):
        assert hoeffding_half_width(10_000, 0.01) == pytest.approx(
            math.sqrt(math.log(200) / 20_000)
        )
        assert hoeffding_half_width(10_000, 0.01) == pytest.approx(0.0163, abs=2e-4)


BASE = ExperimentConfig(
    protocol="ne-rrr",
    n=64,
    trials=800,
    seed=9,
    adversary={"variant": "NeTamper", "u": 16, "v": 0},
    mode="both",
)


class TestRun:
    def test_byte_identical_records(self):
        assert run(BASE).json_line() == run(BASE).json_line()

    def test_parallel_matches_serial_aggregates(self):
        serial = run(BASE)
        parallel = run(dataclasses.replace(BASE, workers=2))
        assert serial.p_hat == parallel.p_hat
        assert serial.exact == parallel.exact
        assert serial.lengths == parallel.lengths
        assert serial.extras == parallel.extras

    def test_exact_within_ci(self):
        report = run(dataclasses.replace(BASE, trials=10_000))
        assert report.within_ci is True
        assert abs(report.p_hat - float(report.exact)) <= report.ci_half_width

    def test_exact_mode_skips_sampling(self):
        report = run(dataclasses.replace(BASE, mode="exact"))
        assert report.p_hat is None and report.exact is not None

    def test_lengths_reported(self):
        report = run(dataclasses.replace(BASE, trials=5))
        assert report.lengths == {"alice": 52, "bob": 52, "merlin": 98}
        assert report.protocol_type == "RRR"

    def test_uqst_extras_track_far_outputs(self):
        cfg = ExperimentConfig(
            protocol="uqst",
            n=16,
            trials=200,
            seed=3,
            options={"a": 4},
            adversary={"variant": "UqstFarProduct", "gamma": 0.9},
        )
        report = run(cfg)
        assert "accept_and_far" in report.extras or report.p_hat == 0.0


class TestOncePerRun:
    """What the instance fixes is computed when the plan is built, never per trial."""

    ENCODED = (
        ("eq-rr", {"instance": "ne_pair"}),
        ("one-of-two", {}),
        ("ne-rrr", {"instance": "ne_pair"}),
        ("ne-rrr", {"instance": "eq_pair", "adversary": {"variant": "NeTamper", "u": 7, "v": 0}}),
        ("eq-qq", {"instance": "ne_pair"}),
    )

    @pytest.mark.parametrize("protocol,fields", ENCODED)
    def test_encode_count_independent_of_trials(self, count_calls, protocol, fields):
        import smplab.codes

        calls = count_calls(smplab.codes.encode_array)
        counts = []
        for trials in (1, 50):
            calls.clear()
            run(ExperimentConfig(protocol=protocol, n=16, trials=trials, seed=4,
                                 mode="both", workers=1, **fields))
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    @pytest.mark.parametrize("variant,instance", [
        ("DisjHonest", "disj_pair"),
        ("DisjHonest", "intersect_pair"),
        ("DisjWrongPoly", "intersect_pair"),
    ])
    def test_disj_polynomial_count_independent_of_trials(
        self, count_calls, monkeypatch, variant, instance
    ):
        import smplab.field

        s_calls = count_calls(smplab.field.s_polynomial)
        lde_calls = count_calls(smplab.field.lde_eval_points)
        strategy = getattr(adv, variant)
        original = strategy.polynomial
        poly_calls = []

        def polynomial(self, *args):
            poly_calls.append(1)
            return original(self, *args)

        monkeypatch.setattr(strategy, "polynomial", polynomial)
        counts = []
        for trials in (1, 50):
            for calls in (s_calls, lde_calls, poly_calls):
                calls.clear()
            run(ExperimentConfig(protocol="disj-rrr", n=16, trials=trials, seed=4,
                                 mode="both", scale=0.0232, options={"alpha": 0.5},
                                 instance=instance, adversary={"variant": variant},
                                 workers=1))
            counts.append((len(poly_calls), len(s_calls), len(lde_calls)))
        assert counts[0] == counts[1]
        # one polynomial per run, interpolated from the encoding's s-values
        assert counts[0][:2] == (1, 0)

    def test_serial_run_builds_its_plan_once(self, count_calls):
        import smplab.harness

        calls = count_calls(smplab.harness.build_plan)
        run(dataclasses.replace(BASE, trials=20, workers=1))
        assert len(calls) == 1


class TestSweep:
    def test_tamper_sweep_strictly_decreasing(self):
        template = dataclasses.replace(BASE, trials=10, mode="exact")
        m = 46
        points = [
            {"adversary": {"variant": "NeTamper", "u": u, "v": 0}}
            for u in (math.ceil(m / 3), math.ceil(m / 2), m)
        ]
        values = [float(r.exact) for r in sweep(template, points)]
        assert values[0] > values[1] > values[2]

    def test_single_point_equals_run(self):
        template = dataclasses.replace(BASE, trials=50)
        only = sweep(template, [{}])
        assert len(only) == 1
        assert only[0].json_line() == run(dataclasses.replace(BASE, trials=50)).json_line()

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            sweep(BASE, [])

    @pytest.mark.parametrize("bad", [
        {"adversary": {"variant": "NeTamper", "u": 1}},
        {"adversary": {"variant": "DisjHonest"}},
        {"frobnicate": 1},
        5,
        {"options": 3},
        {"instance": "bogus"},
        {"options": {"m_copies": 8}},
        {"scale": 0.5},
    ])
    def test_bad_last_point_fails_before_any_run(self, count_calls, bad):
        import smplab.harness

        runs = count_calls(smplab.harness.run)
        good = {"adversary": {"variant": "NeTamper", "u": 16, "v": 0}}
        with pytest.raises(ConfigError):
            sweep(dataclasses.replace(BASE, trials=5), [good, good, bad])
        assert not runs


class TestPersist:
    def test_files_written_and_reproducible(self, tmp_path):
        out = str(tmp_path / "res")
        report = run(dataclasses.replace(BASE, trials=50))
        jsonl, csv = persist([report], out)
        assert os.path.exists(jsonl) and os.path.exists(csv)
        first = open(jsonl).read()
        persist([run(dataclasses.replace(BASE, trials=50))], out)
        assert open(jsonl).read() == first
        line = json.loads(first)
        assert "wall_time_s" not in line  # volatile fields stay out of records
        header = open(csv).read().splitlines()[0]
        assert header.startswith("protocol,n,trials")


@dataclasses.dataclass(frozen=True)
class _WeakSpec(CodeSpec):
    """Rate-1 outer code: relative distance collapses below 1/3."""

    def __post_init__(self):  # skip the construction-time guarantees on purpose
        pass


def _weak_factory(n: int) -> CodeSpec:
    good = CodeSpec.create(n)
    n_rs = max(2, good.n_sym)  # no outer redundancy at all
    return _WeakSpec(
        n=n, s=good.s, n_sym=good.n_sym, n_rs=n_rs, rows=good.rows, cols=good.cols
    )


class TestVerifySuite:
    def test_fault_injection_fails_distance_criterion(self):
        manifest = verify_suite(only=[12], code_spec_factory=_weak_factory)
        entry = manifest["criteria"][0]
        assert entry["id"] == 12 and entry["passed"] is False
        assert manifest["all_passed"] is False

    def test_seed_perturbation_keeps_fast_criteria_green(self):
        for cid in (1, 2, 4, 5, 12, 13):
            assert run_criterion(cid).passed
            assert run_criterion(cid, seed=cid + 123456).passed

    def test_manifest_shape(self):
        manifest = verify_suite(only=[4])
        assert set(manifest) >= {"seed", "all_passed", "criteria", "constants"}
        json.dumps(manifest)


class TestWorkerEnv:
    def test_env_variable_sets_default_worker_count(self, monkeypatch):
        from smplab.harness import default_workers

        monkeypatch.setenv("SMPLAB_WORKERS", "3")
        assert default_workers() == 3
        monkeypatch.delenv("SMPLAB_WORKERS")
        assert default_workers() == 1
