"""CLI contract tests: exit codes, file formats, determinism."""
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

import qlimits
from qlimits.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args, **kwargs):
    return runner.invoke(main, list(args), catch_exceptions=False, **kwargs)


def write_standard_swap(path):
    path.write_text(
        json.dumps(
            {
                "cats": [
                    {"particles": [1, 2], "bits": [0, 0], "sign": "+"},
                    {"particles": [3, 4], "bits": [0, 0], "sign": "+"},
                ],
                "measure": [2, 3],
            }
        )
    )


def test_version(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "0.1.0" in result.output


def test_cli_imports_no_scipy():
    # scipy is a test-only dependency; the CLI must start without it
    src = os.path.dirname(os.path.dirname(qlimits.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", "import sys, qlimits.cli; print('scipy' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True,
    )
    assert result.stdout.strip() == "False"


class TestJc:
    def test_csv_header_and_initial_row(self, runner):
        result = invoke(runner, "jc", "--dist", "fock:0", "--gamma0", "0", "--tmax", "1", "--points", "3")
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "gt,p_down"
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(1.0, abs=1e-9)

    def test_undamped_cosine_column(self, runner):
        result = invoke(runner, "jc", "--dist", "fock:0", "--gamma0", "0", "--tmax", "3.14159265", "--points", "5")
        rows = [line.split(",") for line in result.output.strip().splitlines()[1:]]
        for gt, p in rows:
            expected = 0.5 * (1 + math.cos(2 * float(gt)))
            assert float(p) == pytest.approx(expected, abs=1e-9)

    def test_oracle_column(self, runner):
        result = invoke(
            runner, "jc", "--dist", "fock:1", "--gamma0", "0.127", "--tmax", "2", "--points", "5", "--oracle"
        )
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "gt,p_down,p_down_oracle"
        last = [float(x) for x in lines[-1].split(",")]
        assert last[1] == pytest.approx(last[2], abs=0.02)

    def test_seconds_column(self, runner):
        result = invoke(runner, "jc", "--dist", "fock:0", "--g", "2e5", "--tmax", "1", "--points", "3")
        lines = result.output.strip().splitlines()
        assert lines[0] == "gt,t_s,p_down"
        gt, t_s, _ = (float(x) for x in lines[-1].split(","))
        assert t_s == pytest.approx(gt / 2e5, rel=1e-12)

    def test_fig2_configuration_runs(self, runner, tmp_path):
        out = tmp_path / "curve.csv"
        result = invoke(
            runner, "jc", "--dist", "coherent:3.0", "--d", "0.4", "--gamma0", "0.127",
            "--tmax", "25", "--out", str(out),
        )
        assert result.exit_code == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "gt,p_down"
        assert len(rows) == 502
        values = np.array([[float(x) for x in line.split(",")] for line in rows[1:]])
        late = values[values[:, 0] >= 12.0, 1]
        assert np.abs(late - 0.5).max() < 0.06

    def test_bad_distribution_exits_3(self, runner):
        result = runner.invoke(main, ["jc", "--dist", "squeezed:1"])
        assert result.exit_code == 3

    @pytest.mark.parametrize("spec", ["coherent:1e9", "thermal:1e9"])
    def test_huge_distribution_exits_3(self, runner, spec):
        result = runner.invoke(main, ["jc", "--dist", spec, "--points", "2"])
        assert result.exit_code == 3
        assert "MAX_LEVELS" in result.output

    def test_bad_grid_exits_2(self, runner):
        result = runner.invoke(main, ["jc", "--tmax", "-1"])
        assert result.exit_code == 2

    def test_unwritable_output_exits_3(self, runner, tmp_path):
        missing_dir = tmp_path / "nope" / "curve.csv"
        result = runner.invoke(main, ["jc", "--tmax", "1", "--points", "3", "--out", str(missing_dir)])
        assert result.exit_code == 3


class TestBudget:
    def test_reference_table(self, runner):
        result = invoke(runner, "budget", "--L", "4,40", "--epsilon", "500", "--eta", "1", "--ratio", "1e-16")
        assert result.exit_code == 0
        lines = result.output.splitlines()
        row4 = lines[3].split()
        row40 = lines[4].split()
        assert float(row4[1]) == pytest.approx(6.4e-3, rel=0.02)
        assert float(row40[1]) == pytest.approx(6.4e5, rel=0.02)
        assert float(row4[2]) == pytest.approx(7.73, abs=0.01)

    def test_factorization_annotation(self, runner):
        result = invoke(runner, "budget", "--L", "78")
        assert "3.6 years" in result.output
        assert "25 s" in result.output

    def test_json_output(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = invoke(runner, "budget", "--L", "4", "--out", str(out))
        assert result.exit_code == 0
        data = json.loads(out.read_text())
        assert data["rows"][0]["L"] == 4
        assert data["rows"][0]["T_bound_s"] == pytest.approx(6.4e-3, rel=0.02)

    def test_ion_config_flow(self, runner, tmp_path):
        ions = tmp_path / "ions.json"
        ions.write_text(
            json.dumps(
                [
                    {
                        "name": "testium",
                        "Gamma22": 1e8,
                        "Gamma33": 1e7,
                        "Delta2": 1e15,
                        "Delta13": 1e15,
                        "omega12": 2e15,
                        "omega13": 4e15,
                        "beta": 1.0,
                    }
                ]
            )
        )
        result = invoke(runner, "budget", "--L", "7", "--ions", str(ions), "--N", "1e6")
        assert result.exit_code == 0
        assert "testium" in result.output

    def test_bad_ion_config_exits_3(self, runner, tmp_path):
        ions = tmp_path / "ions.json"
        ions.write_text(json.dumps([{"name": "x"}]))
        result = runner.invoke(main, ["budget", "--L", "4", "--ions", str(ions)])
        assert result.exit_code == 3


class TestSwap:
    def test_standard_swap_outcomes(self, runner, tmp_path):
        scenario = tmp_path / "swap.json"
        write_standard_swap(scenario)
        result = invoke(runner, "swap", str(scenario), "--verify")
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["polygon_counts"] == [2, 2]
        assert len(data["outcomes"]) == 4
        assert all(o["probability"] == 0.25 for o in data["outcomes"])

    def test_malformed_scenario_exits_3(self, runner, tmp_path):
        scenario = tmp_path / "bad.json"
        scenario.write_text("{\"cats\": []}")
        result = runner.invoke(main, ["swap", str(scenario)])
        assert result.exit_code == 3

    def test_byte_identical_reruns(self, runner, tmp_path):
        scenario = tmp_path / "swap.json"
        write_standard_swap(scenario)
        a = invoke(runner, "swap", str(scenario)).output
        b = invoke(runner, "swap", str(scenario)).output
        assert a == b

    def test_exchange_scenario_file(self, runner, tmp_path):
        scenario = tmp_path / "exchange.json"
        scenario.write_text(json.dumps({"users": ["A", "B", "C", "D"], "request": ["A", "B", "C"]}))
        result = invoke(runner, "swap", str(scenario))
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["measure"] == [2, 3, 5]

    def test_verify_mismatch_exits_4(self, runner, tmp_path, monkeypatch):
        import qlimits.cli as cli_module

        scenario = tmp_path / "swap.json"
        write_standard_swap(scenario)
        monkeypatch.setattr(
            cli_module.catswap, "verify_against_oracle", lambda coll, spec: (False, "forced")
        )
        result = runner.invoke(main, ["swap", str(scenario), "--verify"])
        assert result.exit_code == 4

    def test_verify_above_dense_limit_exits_3(self, runner, tmp_path):
        scenario = tmp_path / "big.json"
        cats = [{"particles": [2 * i, 2 * i + 1], "bits": [0, 0], "sign": "+"} for i in range(9)]
        scenario.write_text(json.dumps({"cats": cats, "measure": [1, 2]}))
        result = runner.invoke(main, ["swap", str(scenario), "--verify"])
        assert result.exit_code == 3
        assert "dense limit" in result.output


class TestExchange:
    def test_fig6_request(self, runner):
        result = invoke(runner, "exchange", "--users", "A,B,C,D", "--request", "A,B,C", "--verify")
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["measure"] == [2, 3, 5]
        assert all(o["residual"]["particles"] == [1, 4, 6] for o in data["outcomes"])

    def test_verify_above_dense_limit_exits_3(self, runner):
        # eight users hold 16 particles, above the dense oracle's limit of 14
        result = runner.invoke(
            main, ["exchange", "--users", "A,B,C,D,E,F,G,H", "--request", "A,B", "--verify"]
        )
        assert result.exit_code == 3
        assert "dense limit" in result.output

    def test_unknown_user_exits_3(self, runner):
        result = runner.invoke(main, ["exchange", "--users", "A,B", "--request", "Z"])
        assert result.exit_code == 3


class TestRee:
    def write_bell(self, path):
        matrix = [
            [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]],
            [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
            [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]],
        ]
        path.write_text(json.dumps({"matrix": matrix, "dims": [2, 2]}))

    def test_bell_value(self, runner, tmp_path):
        state = tmp_path / "bell.json"
        self.write_bell(state)
        result = invoke(runner, "ree", str(state))
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["value_nats"] == pytest.approx(math.log(2), abs=1e-3)
        assert data["value_bits"] == pytest.approx(1.0, abs=2e-3)

    def test_product_state_near_zero(self, runner, tmp_path):
        state = tmp_path / "product.json"
        matrix = [[[0.0, 0.0]] * 4 for _ in range(4)]
        matrix[0][0] = [1.0, 0.0]
        state.write_text(json.dumps({"matrix": matrix, "dims": [2, 2]}))
        result = invoke(runner, "ree", str(state))
        data = json.loads(result.output)
        assert data["value_nats"] < 1e-3

    def test_non_density_input_exits_3(self, runner, tmp_path):
        state = tmp_path / "bad.json"
        matrix = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]  # trace 2
        state.write_text(json.dumps({"matrix": matrix, "dims": [2]}))
        result = runner.invoke(main, ["ree", str(state)])
        assert result.exit_code == 3

    def test_missing_input_exits_2(self, runner):
        result = runner.invoke(main, ["ree"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("restarts", ["0", "-3"])
    def test_restarts_below_one_exits_2(self, runner, tmp_path, restarts):
        state = tmp_path / "bell.json"
        self.write_bell(state)
        for args in ([str(state)], ["--axioms"]):
            result = runner.invoke(main, ["ree", *args, "--restarts", restarts])
            assert result.exit_code == 2, result.output
            assert "--restarts" in result.output
            assert "Traceback" not in result.output

    def test_closed_form_reports_no_restarts(self, runner, tmp_path):
        state = tmp_path / "bell.json"
        self.write_bell(state)
        data = json.loads(invoke(runner, "ree", str(state)).output)
        assert data["restarts"] == 0
        assert data["converged"] is True
        assert sorted(data) == ["converged", "restarts", "value_bits", "value_nats"]

    def test_seed_env_fallback(self, runner, tmp_path, monkeypatch):
        state = tmp_path / "bell.json"
        self.write_bell(state)
        monkeypatch.setenv("QLIMITS_SEED", "7")
        a = invoke(runner, "ree", str(state), "--restarts", "3").output
        b = invoke(runner, "ree", str(state), "--restarts", "3").output
        assert a == b

    def test_axiom_report(self, runner, tmp_path, monkeypatch):
        # a fast harness pass through the CLI would still take minutes;
        # exercise the wiring with a tiny configuration instead
        import qlimits.cli as cli_module
        from qlimits.entanglement import HarnessConfig

        captured = {}
        original = cli_module.axiom_harness

        def tiny_harness(measure=None, config=None):
            captured["seed"] = config.seed
            small = HarnessConfig(
                seed=config.seed,
                n_separable=2,
                n_unitaries=2,
                n_instruments=1,
                n_pure=2,
                n_perturbations=1,
                include_additivity=False,
                ree_config=config.ree_config,
            )
            return original(measure, small)

        monkeypatch.setattr(cli_module, "axiom_harness", tiny_harness)
        result = invoke(runner, "ree", "--axioms", "--seed", "3", "--restarts", "6")
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["passed"] is True
        assert captured["seed"] == 3
