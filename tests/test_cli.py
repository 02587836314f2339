import json

import pytest

from smplab.cli import EXIT_CONFIG, EXIT_FAILURE, EXIT_OK, main


class TestRunCommand:
    def test_run_writes_outputs(self, tmp_path, capsys):
        out = str(tmp_path / "r")
        code = main(
            [
                "run",
                "--protocol",
                "ne-rrr",
                "--n",
                "64",
                "--trials",
                "300",
                "--seed",
                "5",
                "--mode",
                "both",
                "--adversary",
                '{"variant": "NeTamper", "u": 16, "v": 0}',
                "--out",
                out,
            ]
        )
        assert code == EXIT_OK
        lines = open(out + ".jsonl").read().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["config"]["protocol"] == "ne-rrr"
        assert "p_hat" in record and record["exact"] is not None
        assert open(out + ".csv").read().count("\n") == 2

    def test_missing_protocol_is_config_error(self):
        assert main(["run", "--n", "64"]) == EXIT_CONFIG

    def test_bad_adversary_is_config_error(self):
        code = main(
            ["run", "--protocol", "ne-rrr", "--adversary", '{"variant": "Nope"}',
             "--trials", "5"]
        )
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("protocol,adversary", [
        ("uqst", {"variant": "UqstMixed", "components": 5}),
        ("ne-rrr", "NeHonest"),
        ("ne-rrr", {"variant": "QrqCrossFingerprint"}),
        ("ne-rrr", {"variant": "NeTamper", "u": 1, "v": 0, "bogus": 1}),
    ])
    def test_malformed_adversary_exits_with_config_code(self, capsys, protocol, adversary):
        code = main(["run", "--protocol", protocol, "--adversary", json.dumps(adversary),
                     "--trials", "5"])
        assert code == EXIT_CONFIG
        assert f"{protocol} accepts" in capsys.readouterr().err

    @pytest.mark.parametrize("adversary", [
        {"variant": "UqstFarProduct", "gamma": 1.5},
        {"variant": "UqstMixed", "components": []},
        {"variant": "UqstMixed", "components": [{"weight": 0.7, "gamma": 0.0},
                                                {"weight": 0.7, "gamma": 0.9}]},
        {"variant": "UqstMixed", "components": [{"weight": 1.0, "gamma": -1.0}]},
    ])
    def test_out_of_range_transfer_strategy_exits_with_config_code(self, capsys, adversary):
        code = main(["run", "--protocol", "uqst", "--n", "16", "--trials", "3",
                     "--options", '{"a": 4}', "--adversary", json.dumps(adversary)])
        assert code == EXIT_CONFIG
        assert "uqst accepts" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["--protocol", "uqst", "--options", '{"referee_mode": "x"}'],
        ["--protocol", "uqst", "--options", '{"referee_mode": "x"}', "--mode", "exact"],
        ["--protocol", "ne-rrr", "--options", "3"],
        ["--protocol", "eq-rr", "--options", "[1]"],
        ["--protocol", "rrq-eq", "--n", "4", "--options", '{"m_copy": 8}'],
        ["--protocol", "eq-rr", "--repetitions", "9", "--scale", "0.5"],
        ["--protocol", "uqst", "--instance", "eq_pair"],
        ["--protocol", "qrq-eq", "--n", "4", "--options", '{"referee_mode": "swap"}'],
    ])
    def test_unread_or_malformed_config_exits_before_any_trial(self, count_calls, capsys, args):
        import smplab.harness

        plans = count_calls(smplab.harness.RunPlan)
        assert main(["run", *args, "--trials", "3"]) == EXIT_CONFIG
        assert not plans
        assert "configuration error" in capsys.readouterr().err

    def test_config_file_overrides_flags(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"protocol": "eq-rr", "n": 16, "trials": 20, "seed": 1}))
        code = main(["run", "--protocol", "ne-rrr", "--n", "64", "--config", str(cfg)])
        assert code == EXIT_OK
        assert "eq-rr n=16" in capsys.readouterr().out

    def test_missing_config_file(self):
        assert main(["run", "--config", "/nonexistent/cfg.json"]) == EXIT_CONFIG


class TestSweepCommand:
    def test_sweep_from_file(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(
            json.dumps(
                {
                    "template": {
                        "protocol": "ne-rrr",
                        "n": 64,
                        "trials": 10,
                        "seed": 2,
                        "mode": "exact",
                        "adversary": {"variant": "NeTamper", "u": 16, "v": 0},
                    },
                    "points": [
                        {"adversary": {"variant": "NeTamper", "u": 23, "v": 0}},
                        {"adversary": {"variant": "NeTamper", "u": 46, "v": 0}},
                    ],
                }
            )
        )
        out = str(tmp_path / "sweep_out")
        code = main(["sweep", "--config", str(cfg), "--out", out])
        assert code == EXIT_OK
        assert len(open(out + ".jsonl").read().splitlines()) == 2

    @pytest.mark.parametrize("points", [5, [5], [{"options": 3}], [{}, {"instance": "bogus"}]])
    def test_malformed_points_exit_with_config_code(self, tmp_path, points):
        cfg = tmp_path / "sweep.json"
        template = {"protocol": "ne-rrr", "n": 16, "trials": 5, "seed": 2}
        cfg.write_text(json.dumps({"template": template, "points": points}))
        assert main(["sweep", "--config", str(cfg)]) == EXIT_CONFIG

    def test_unread_option_on_last_point_runs_no_point(self, tmp_path, count_calls):
        import smplab.harness

        runs = count_calls(smplab.harness.run)
        cfg = tmp_path / "sweep.json"
        template = {"protocol": "rrq-eq", "n": 4, "trials": 2, "seed": 2}
        points = [{}, {"options": {"m_copies": 8}}, {"options": {"m_copy": 8}}]
        cfg.write_text(json.dumps({"template": template, "points": points}))
        assert main(["sweep", "--config", str(cfg)]) == EXIT_CONFIG
        assert not runs

    def test_sweep_requires_config(self):
        assert main(["sweep"]) == EXIT_CONFIG


class TestVerifyCommand:
    def test_single_criterion_pass(self, tmp_path, capsys):
        out = str(tmp_path / "manifest.json")
        code = main(["verify", "--criteria", "4", "--out", out])
        assert code == EXIT_OK
        manifest = json.load(open(out))
        assert manifest["all_passed"] is True
        assert "[PASS] criterion  4" in capsys.readouterr().out

    def test_failing_criterion_sets_exit_one(self, capsys):
        # criterion 3 implements the stated soundness bound, which the
        # protocol's balanced tampers genuinely exceed
        code = main(["verify", "--criteria", "3"])
        assert code == EXIT_FAILURE
        assert "[FAIL] criterion  3" in capsys.readouterr().out
