"""Tests for the command-line interface."""

import pytest

from repro.harness.cli import build_parser, main


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "resnet101" in out and "selsync" in out

    def test_run_requires_known_algorithm(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "--algorithm", "gossip"])

    def test_run_requires_known_workload(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "--workload", "bert"])

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestRunCommand:
    def test_run_selsync_prints_table(self, capsys):
        code = main([
            "run", "--workload", "resnet101", "--algorithm", "selsync",
            "--workers", "2", "--iterations", "8", "--delta", "0.3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "LSSR" in out and "simulated time" in out

    def test_run_bsp(self, capsys):
        code = main([
            "run", "--workload", "resnet101", "--algorithm", "bsp",
            "--workers", "2", "--iterations", "6",
        ])
        assert code == 0
        assert "bsp" in capsys.readouterr().out

    @pytest.mark.pool
    def test_run_with_pool_workers(self, capsys):
        # Each pool child runs the batched executor on its group's rows.
        code = main([
            "run", "--workload", "resnet101", "--algorithm", "bsp",
            "--workers", "2", "--iterations", "4", "--pool-workers", "2",
        ])
        assert code == 0
        assert "bsp" in capsys.readouterr().out

    def test_pool_start_method_choices_enforced(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "--pool-start-method", "threads"])

    def test_compare_outputs_table1_columns(self, capsys):
        code = main([
            "compare", "--workload", "resnet101", "--workers", "2",
            "--iterations", "8", "--delta", "0.3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Outperform BSP?" in out
        assert "Overall speedup" in out


class TestScenarioCommand:
    def test_listing_names_and_kinds(self, capsys):
        assert main(["scenario"]) == 0
        out = capsys.readouterr().out
        assert "fig6-delta-sweep" in out
        assert "throughput" in out

    def test_listing_filtered_by_tag(self, capsys):
        assert main(["scenario", "--tag", "paper-scale"]) == 0
        out = capsys.readouterr().out
        assert "deep-mlp-delta-n256" in out
        assert "fig1a-throughput" not in out

    def test_run_scenario_with_overrides_and_json(self, capsys, tmp_path):
        import json

        path = tmp_path / "report.json"
        code = main([
            "scenario", "fig6-delta-sweep", "--iterations", "4",
            "--workers", "2", "--json", str(path),
        ])
        assert code == 0
        assert "lssr" in capsys.readouterr().out
        payload = json.loads(path.read_text())
        assert payload["name"] == "fig6-delta-sweep"
        assert payload["meta"]["iterations"] == 4

    def test_run_verified_scenario_prints_parity(self, capsys):
        code = main([
            "scenario", "deep-mlp-delta-n64", "--iterations", "4",
            "--workers", "4",
        ])
        assert code == 0
        assert "endpoint parity" in capsys.readouterr().out

    def test_unknown_scenario_exits_cleanly(self, capsys):
        assert main(["scenario", "not-a-scenario"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_invalid_override_exits_cleanly(self, capsys):
        # Analytic throughput scenarios reject training overrides.
        assert main(["scenario", "fig1a-throughput", "--workers", "8"]) == 2
        assert "analytic" in capsys.readouterr().err


class TestScenarioExitCodes:
    def test_scenario_error_writes_structured_json(self, capsys, tmp_path):
        import json

        path = tmp_path / "error.json"
        assert main(["scenario", "not-a-scenario", "--json", str(path)]) == 2
        assert "unknown scenario" in capsys.readouterr().err
        payload = json.loads(path.read_text())
        assert payload["error"]["code"] == "scenario_error"
        assert payload["error"]["scenario"] == "not-a-scenario"
        assert "unknown scenario" in payload["error"]["message"]

    def test_exit_codes_are_a_stable_contract(self):
        from repro.harness.cli import EXIT_PARITY_FAILURE, EXIT_SCENARIO_ERROR

        assert EXIT_SCENARIO_ERROR == 2
        assert EXIT_PARITY_FAILURE == 3

    def test_parity_failure_exits_nonzero_with_json(self, capsys, tmp_path, monkeypatch):
        import json

        import repro.scenarios.runner as runner_module

        monkeypatch.setattr(runner_module, "_exact_match", lambda *a, **k: False)
        path = tmp_path / "parity.json"
        code = main([
            "scenario", "deep-mlp-delta-n64", "--iterations", "4",
            "--workers", "4", "--json", str(path),
        ])
        assert code == 3
        assert "endpoint parity verification failed" in capsys.readouterr().err
        payload = json.loads(path.read_text())
        assert payload["error"]["code"] == "endpoint_parity_failure"
        assert payload["error"]["failed_anchors"]


class TestServeAndSubmit:
    def test_serve_and_submit_parsers(self):
        from repro.harness.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["serve", "--port", "0", "--db", ":memory:"])
        assert args.port == 0 and args.db == ":memory:"
        args = parser.parse_args(["submit", "scenario", '{"name": "quickstart"}'])
        assert args.action == "scenario" and args.url.startswith("http://")

    def test_submit_round_trip_against_live_service(self, capsys, tmp_path):
        import json

        from repro.service import ExperimentService, QuotaManager

        service = ExperimentService(
            port=0, workers=1, quotas=QuotaManager(max_active_jobs=None, rate=None)
        )
        service.start()
        try:
            out_path = tmp_path / "result.json"
            code = main([
                "submit", "throughput",
                '{"workloads": ["resnet101"], "worker_counts": [1, 2]}',
                "--url", service.url, "--wait", "--json", str(out_path),
            ])
            assert code == 0
            payload = json.loads(out_path.read_text())
            assert payload["job"]["state"] == "DONE"
            assert len(payload["records"]) == 2
        finally:
            service.stop()

    def test_submit_validation_error_exits_2(self, capsys):
        from repro.service import ExperimentService, QuotaManager

        service = ExperimentService(
            port=0, workers=1, quotas=QuotaManager(max_active_jobs=None, rate=None)
        )
        service.start()
        try:
            code = main(["submit", "sweep", '{"bogus": true}', "--url", service.url])
            assert code == 2
            assert "bad_request" in capsys.readouterr().err
        finally:
            service.stop()

    def test_submit_unreachable_service_exits_2(self, capsys):
        code = main([
            "submit", "scenario", '{"name": "quickstart"}',
            "--url", "http://127.0.0.1:9",  # discard port: nothing listens
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err
