"""CLI contract tests: exit codes, file formats, determinism."""
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from click.testing import CliRunner

import qlimits
import qlimits.cli as cli_module
from helpers import random_swap_scenario
from qlimits import catswap
from qlimits.cli import MAX_POINTS, main
from qlimits.jc import (
    CouplingModel,
    DecoherenceParams,
    VibrationalDistribution,
    oracle_population_lower,
    population_lower,
)


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

    @pytest.mark.parametrize("tmax", ["inf", "nan"])
    def test_nonfinite_tmax_exits_2(self, runner, tmax):
        result = runner.invoke(main, ["jc", "--tmax", tmax])
        assert result.exit_code == 2
        assert "finite tmax" in result.output

    def test_points_above_cap_exit_2(self, runner):
        result = runner.invoke(main, ["jc", "--points", str(MAX_POINTS + 1)])
        assert result.exit_code == 2
        assert "--points" in result.output

    @pytest.mark.parametrize("args", [["--gamma0", "nan"], ["--gamma0", "inf"], ["--d", "nan"],
                                      ["--g", "nan"], ["--g", "inf"]])
    def test_nonfinite_parameters_exit_3(self, runner, args):
        result = runner.invoke(main, ["jc", *args, "--points", "3"])
        assert result.exit_code == 3, result.output
        assert "finite" in result.output

    def test_csv_matches_per_cell_format(self, runner):
        # the reference formats each cell with format(x, '.12g') on its own
        rng = np.random.default_rng(8)
        cases = [[], ["--g", "2e5"], ["--oracle"], ["--g", "2e5", "--oracle"],
                 ["--dist", "fock:0", "--gamma0", "0", "--tmax", "1e-300", "--points", "2"]]
        for _ in range(200):
            kind = ["fock:", "coherent:", "thermal:"][int(rng.integers(3))]
            mean = int(rng.integers(0, 6)) if kind == "fock:" else float(rng.uniform(0.1, 8.0))
            args = ["--dist", f"{kind}{mean!r}", "--model", ["di", "vi"][int(rng.integers(2))],
                    "--gamma0", repr(float(rng.uniform(0.0, 0.5))), "--d", repr(float(rng.uniform(0.2, 3.0))),
                    "--tmax", repr(float(10.0 ** rng.uniform(-3, 2))), "--points", str(int(rng.integers(2, 60)))]
            if rng.random() < 0.5:
                args += ["--g", repr(float(10.0 ** rng.uniform(-300, 300)))]
            if rng.random() < 0.3:
                args.append("--oracle")
            cases.append(args)
        for args in cases:
            opts = dict(zip(args[::2], args[1::2]))
            distribution = VibrationalDistribution.parse(opts.get("--dist", "coherent:3.0"))
            params = DecoherenceParams(float(opts.get("--gamma0", 0.127)), float(opts.get("--d", 0.4)))
            coupling = CouplingModel(opts.get("--model", "di"))
            grid = np.linspace(0.0, float(opts.get("--tmax", 25.0)), int(opts.get("--points", 501)))
            columns = {"gt": grid}
            if "--g" in opts:
                columns["t_s"] = grid / float(opts["--g"])
            columns["p_down"] = population_lower(grid, distribution, params, coupling)
            if "--oracle" in args:
                columns["p_down_oracle"] = oracle_population_lower(grid, distribution, params, coupling)
            rows = [",".join(columns)]
            rows += [",".join(format(float(col[i]), ".12g") for col in columns.values())
                     for i in range(grid.size)]
            assert invoke(runner, "jc", *args).output == "\n".join(rows) + "\n", args

    def test_percent_format_matches_format(self):
        # the CSV writer relies on '%.12g' % x == format(x, '.12g') for every double
        rng = np.random.default_rng(9)
        values = rng.integers(0, 2**64, size=200_000, dtype=np.uint64).view(np.float64).tolist()
        values += [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, math.nan, -math.nan,
                   math.inf, -math.inf, 1e16, 123456789012.5, 0.1]
        assert ["%.12g" % x for x in values] == [format(x, ".12g") for x in values]

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

    @pytest.mark.parametrize("args", [
        ["--eta", "0"], ["--ratio", "0"], ["--epsilon", "0"], ["--N", "0"],
        ["--eta", "-1"], ["--ratio", "nan"], ["--epsilon", "inf"], ["--N", "-5"],
    ])
    def test_nonpositive_or_nonfinite_exits_3(self, runner, tmp_path, args):
        ions = tmp_path / "ions.json"
        ions.write_text(json.dumps([{
            "name": "testium", "Gamma22": 1e8, "Gamma33": 1e7, "Delta2": 1e15,
            "Delta13": 1e15, "omega12": 2e15, "omega13": 4e15, "beta": 1.0,
        }]))
        result = runner.invoke(main, ["budget", "--L", "4", "--ions", str(ions), *args])
        assert result.exit_code == 3, result.output
        assert "finite and > 0" in result.output

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

    @pytest.mark.parametrize("content", [
        {"cats": [{"particles": [1, 2], "bits": [0, 0], "sign": "+"}], "measure": 5},
        {"users": 5, "request": ["A"]},
        {"users": ["A", "B"], "request": 5},
    ])
    def test_wrong_shape_exits_3(self, runner, tmp_path, content):
        scenario = tmp_path / "bad.json"
        scenario.write_text(json.dumps(content))
        result = runner.invoke(main, ["swap", str(scenario)])
        assert result.exit_code == 3, result.output
        assert "bad scenario" in result.output

    def test_verify_above_dense_limit_exits_3(self, runner, tmp_path):
        scenario = tmp_path / "big.json"
        cats = [{"particles": [2 * i, 2 * i + 1], "bits": [0, 0], "sign": "+"} for i in range(9)]
        scenario.write_text(json.dumps({"cats": cats, "measure": [1, 2]}))
        result = runner.invoke(main, ["swap", str(scenario), "--verify"])
        assert result.exit_code == 3
        assert "dense limit" in result.output


def reference_json(blob):
    """The stdlib encoding every JSON document of the CLI must match."""
    return json.dumps(cli_module._round12(blob), indent=2, sort_keys=True) + "\n"


class TestOutcomeEmitter:
    def emitted(self, tmp_path, blob, outcomes):
        path = tmp_path / "out.json"
        cli_module._dump_outcomes_json(blob, outcomes, str(path))
        return path.read_text(encoding="utf-8")

    def test_matches_stdlib_encoder_on_scenarios(self, tmp_path):
        bell = [{"particles": [1, 2], "bits": [0, 0], "sign": "+"},
                {"particles": [3, 4], "bits": [0, 0], "sign": "+"}]
        scenarios = [
            catswap.scenario_from_dict({"cats": bell, "measure": [2, 3]}),
            catswap.scenario_from_dict({"cats": bell, "measure": [1, 2, 3, 4]}),
            catswap.scenario_from_dict({"cats": bell + [{"particles": [5, 6, 7], "bits": [1, 0, 1],
                                                         "sign": "-"}], "measure": [2, 3, 5]}),
        ]
        rng = np.random.default_rng(41)
        for _ in range(250):
            max_particles = int(rng.integers(2, 18))
            scenarios.append(random_swap_scenario(rng, max_particles, min(6, max_particles)))
        consumed = 0
        for coll, spec in scenarios:
            outcomes = catswap.enumerate_outcomes(coll, spec)
            consumed += outcomes[0].residual is None
            expected = reference_json(catswap.outcomes_to_jsonable(coll, spec, outcomes))
            assert self.emitted(tmp_path, catswap.outcomes_to_jsonable(coll, spec, ()), outcomes) == expected
        assert consumed >= 10
        coll, spec = scenarios[0]
        empty = catswap.outcomes_to_jsonable(coll, spec, ())
        assert self.emitted(tmp_path, empty, ()) == reference_json(empty)

    @pytest.mark.parametrize("users, request_", [
        ("A", "A"), ("A,B,C,D", "A,B,C"), ("A,B,C,D,E,F,G,H", "H,B"),
        ("u1,u2,u3,u4,u5,u6,u7,u8,u9", "u9,u1,u2,u3,u4,u5,u6,u7,u8"),
        ('Zed,\u00e9,"q",b\\s,outcomes,A', 'outcomes,\u00e9,"q"'),
    ])
    def test_exchange_matches_stdlib_encoder(self, runner, users, request_):
        output = invoke(runner, "exchange", "--users", users, "--request", request_).output
        result = catswap.telephone_exchange(users.split(","), request_.split(","))
        blob = catswap.outcomes_to_jsonable(
            result.collection, catswap.MeasurementSpec.of(result.measured), result.outcomes
        )
        blob.update(users=list(result.users), request=list(result.request),
                    user_particles=result.user_particles, hub_particles=result.hub_particles)
        assert output == reference_json(blob)


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

    def test_outcome_cap_exits_3(self, runner):
        # 17 users, all requested, would give 2^17 outcomes; refused before enumerating
        names = ",".join(f"u{i}" for i in range(17))
        start = time.process_time()
        result = runner.invoke(main, ["exchange", "--users", names, "--request", names])
        assert time.process_time() - start < 1.0
        assert result.exit_code == 3
        assert "MAX_OUTCOMES" in result.output

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

    @pytest.mark.parametrize("dims", [[1, 1], [2, 2]])
    def test_pure_product_prints_positive_zero(self, runner, tmp_path, dims):
        d = int(np.prod(dims))
        matrix = [[[1.0 if i == j == 0 else 0.0, 0.0] for j in range(d)] for i in range(d)]
        state = tmp_path / "product.json"
        state.write_text(json.dumps({"matrix": matrix, "dims": dims}))
        result = invoke(runner, "ree", str(state))
        assert result.exit_code == 0
        assert "-0.0" not in result.output
        assert json.loads(result.output)["value_nats"] == 0.0

    @pytest.mark.parametrize("cell", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_cell_exits_3(self, runner, tmp_path, cell):
        state = tmp_path / "bad.json"
        state.write_text('{"matrix": [[[%s,0],[0,0]],[[0,0],[0.5,0]]], "dims": [2,1]}' % cell)
        result = runner.invoke(main, ["ree", str(state)])
        assert result.exit_code == 3, result.output
        assert "non-finite" in result.output

    def test_non_density_input_exits_3(self, runner, tmp_path):
        state = tmp_path / "bad.json"
        matrix = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]  # trace 2
        state.write_text(json.dumps({"matrix": matrix, "dims": [2]}))
        result = runner.invoke(main, ["ree", str(state)])
        assert result.exit_code == 3

    def test_missing_input_exits_2(self, runner):
        result = runner.invoke(main, ["ree"])
        assert result.exit_code == 2

    def test_closed_form_reports_no_restarts(self, runner, tmp_path):
        state = tmp_path / "bell.json"
        self.write_bell(state)
        data = json.loads(invoke(runner, "ree", str(state)).output)
        assert data["restarts"] == 0
        assert data["converged"] is True
        assert sorted(data) == ["converged", "restarts", "value_bits", "value_nats"]

    def test_seed_env_fallback(self, runner, tmp_path, monkeypatch):
        # an NPT Werner state (p = 0.8) has no closed form, so both runs
        # search; the seed only drives --axioms and must not move a solve
        state = tmp_path / "werner.json"
        matrix = 0.8 * np.outer([1, 0, 0, 1], [1, 0, 0, 1]) / 2 + 0.2 * np.eye(4) / 4
        state.write_text(json.dumps({"matrix": [[[x, 0.0] for x in row] for row in matrix.tolist()],
                                     "dims": [2, 2]}))
        a = invoke(runner, "ree", str(state)).output
        monkeypatch.setenv("QLIMITS_SEED", "7")
        b = invoke(runner, "ree", str(state)).output
        assert a == b
        data = json.loads(a)
        assert data["restarts"] == 1
        assert data["value_nats"] == pytest.approx(
            math.log(2) + 0.85 * math.log(0.85) + 0.15 * math.log(0.15), abs=2e-5
        )

    @pytest.mark.parametrize("content", [
        {"matrix": [[[1.0, 0.0]]], "dims": 1},
        {"matrix": [[[1.0, 0.0]]], "dims": None},
        {"matrix": [[{"re": 1.0, "im": 0.0}]], "dims": [1, 1]},
        {"matrix": [[[1.0, 0.0]]], "dims": [[1], [1]]},
    ])
    def test_wrong_shape_exits_3(self, runner, tmp_path, content):
        state = tmp_path / "bad.json"
        state.write_text(json.dumps(content))
        result = runner.invoke(main, ["ree", str(state)])
        assert result.exit_code == 3, result.output
        assert "bad state file" in result.output

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
            )
            return original(measure, small)

        monkeypatch.setattr(cli_module, "axiom_harness", tiny_harness)
        result = invoke(runner, "ree", "--axioms", "--seed", "3")
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["passed"] is True
        assert captured["seed"] == 3
        # QLIMITS_SEED is the fallback for --seed
        monkeypatch.setenv("QLIMITS_SEED", "7")
        assert invoke(runner, "ree", "--axioms").exit_code == 0
        assert captured["seed"] == 7
