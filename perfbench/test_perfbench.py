"""Self-test of the benchmark, run from the repository root with

    python3 -m pytest perfbench

A one-cycle pass over each workload must print every metric BENCHMARK.json
names, with its unit, and pass its own correctness gate; the gate must reject
reports with a wrong exact value, wrong lengths or a broken uqst contract.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parents[1]
run.load_smplab(ROOT)

import gate  # noqa: E402
import hostspeed  # noqa: E402
from smplab import harness, qsim  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def _printed(capsys, result) -> tuple[list[str], dict]:
    run.report(result, {"seed": 1})
    lines = capsys.readouterr().out.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_pass_prints_every_end_to_end_metric(name, tmp_path, capsys):
    result = run.measure_untraced(name, 1, 0.0, str(tmp_path), passes=1, min_cycles=1)
    lines, final = _printed(capsys, result)
    assert (final["correct"], final["failed"]) == (True, 0)
    for metric in SPEC["end_to_end"]:
        name_, unit = metric["name"], metric["unit"]
        assert final["metrics"][name_]["unit"] == unit
        assert final["metrics"][name_]["value"] > 0
        assert any(line.split()[0] == name_ and line.split()[-1] == unit for line in lines)
    assert any(line.split() == ["failed_frac", "0", "ratio"] for line in lines)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_traced_pass_reports_every_layer_metric(name, tmp_path, capsys):
    store = getattr(qsim, "DEFAULT_STORE", None)
    store_before = len(store) if store is not None else 0
    result = run.measure_traced(name, 1, str(tmp_path), tmp_path, min_cycles=1)
    _, final = _printed(capsys, result)
    assert (final["correct"], final["failed"]) == (True, 0)
    metrics = {k: v["value"] for k, v in final["metrics"].items()}
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    field_metrics = [k for k in metrics if k.startswith("field.")]
    if name != "sweep-exact":
        assert all(metrics[k] == 0 for k in field_metrics)
    else:
        assert all(metrics[k] > 0 for k in field_metrics)
    assert (metrics["qsim.haar_subspace_calls"] > 0) == (name == "transfer-mc")
    if name == "grid-mc":
        assert metrics["codes.grid_of_per_trial"] >= 2
    if name == "grid-mc" and store is not None:
        eq_qq_trials = sum(
            s.template.trials for s in WORKLOADS[name].cycle(1, 0) if s.template.protocol == "eq-qq"
        )
        # untraced and traced pass: two store entries per eq-qq trial at least
        assert metrics["qsim.store_entries"] - store_before >= 2 * 2 * eq_qq_trials
    assert metrics["harness.build_plan_per_run"] == 2


def test_host_speed_scale_is_relative_to_the_reference():
    reference = hostspeed.REFERENCE_S
    doubled = {k: 2 * v for k, v in reference.items()}
    assert hostspeed.HostSpeed.scale([reference]) == pytest.approx(1)
    # each piece's median over the probes: one fast outlier does not count
    assert hostspeed.HostSpeed.scale([doubled, reference, doubled]) == pytest.approx(0.5)
    assert set(hostspeed.HostSpeed().time()) == set(reference)


def _report(**fields) -> harness.TrialReport:
    config = harness.ExperimentConfig(seed=3, workers=1, **fields)
    return harness.run(config)


def test_gate_rejects_wrong_exact_and_wrong_lengths():
    report = _report(protocol="eq-rr", n=16, trials=200, mode="both", instance="eq_pair")
    assert gate.problems(report, runs_gated=1) == []
    wrong_exact = dataclasses.replace(report, exact=Fraction(1, 2))
    assert any("exact" in p for p in gate.problems(wrong_exact, runs_gated=1))
    wrong_lengths = dataclasses.replace(
        report, lengths={k: v + 1 for k, v in report.lengths.items()}
    )
    assert any("lengths" in p for p in gate.problems(wrong_lengths, runs_gated=1))


def test_gate_checks_monte_carlo_records_against_an_exact_run():
    report = _report(protocol="eq-rr", n=16, trials=200, instance="eq_pair")
    assert report.exact is None
    exact = gate.reference_exact(report, runs_gated=1)
    assert exact == 1
    flipped = dataclasses.replace(report, p_hat=0.5)
    assert gate.problems(flipped, runs_gated=1, exact=exact)


def test_gate_rejects_a_broken_uqst_contract():
    report = _report(protocol="uqst", n=16, trials=50, scale=1.0 / 3200.0,
                     options={"a": 4, "eps": 0.5, "delta": 0.25})
    assert gate.problems(report, runs_gated=1) == []
    broken = dataclasses.replace(report, extras={"accept_and_far": 0.9})
    assert any("accept_and_far" in p for p in gate.problems(broken, runs_gated=1))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-mc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
