"""CLI contract tests: exit codes, file formats, determinism."""
import dataclasses
import importlib
import json
import math
import os
import pkgutil
import resource
import stat
import subprocess
import sys
import time

import numpy as np
import pytest
from click.testing import CliRunner

import qlimits
import qlimits.cli as cli_module
from helpers import LARGE_SWAP_SCENARIO, outcome_document, random_swap_scenario, werner_matrix
from qlimits import catswap, feasibility
from qlimits.cli import CSV_BLOCK_ROWS, MAX_CELLS, MAX_ORACLE_CELLS, MAX_POINTS, main
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


def write_bell(path):
    matrix = [
        [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]],
        [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
        [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
        [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]],
    ]
    path.write_text(json.dumps({"matrix": matrix, "dims": [2, 2]}))


@pytest.mark.parametrize("argv", [["swap", "{}"], ["ree", "{}"], ["budget", "--ions", "{}"]])
def test_deeply_nested_json_exits_3(runner, tmp_path, argv):
    # json.load raises RecursionError on nesting deeper than the recursion limit
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    result = runner.invoke(main, [arg.format(path) for arg in argv])
    assert result.exit_code == 3, result.output
    assert "recursion" in result.output


def test_version(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "0.1.0" in result.output


def run_python(*args, check=True):
    """Run a fresh interpreter with this package's source on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(qlimits.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=check)


def test_exchange_verify_worst_case():
    # 16 users, all requested: 65536 outcomes, the most MAX_OUTCOMES allows.
    # The run takes 1.6-2.4 s of CPU on a 2-core x86-64 host; the bound
    # leaves about three times that.
    names = ",".join(f"u{i}" for i in range(16))
    argv = ["-m", "qlimits.cli", "exchange", "--users", names, "--request", names]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    verified = run_python(*argv, "--verify")
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
    assert cpu < 7.0
    assert verified.stdout == run_python(*argv).stdout


def peak_kib(argv):
    """Run the CLI on ``argv`` in a fresh interpreter; (stdout, the child's
    own peak RSS in KiB).  A child's ru_maxrss also counts the pages of the
    process that started it, so the child reads VmHWM itself."""
    script = (
        "import atexit, sys\n"
        "from qlimits.cli import main\n"
        "def peak():\n"
        "    with open('/proc/self/status') as status:\n"
        "        kib = next(int(line.split()[1]) for line in status if line.startswith('VmHWM:'))\n"
        "    sys.stderr.write(f'peak_kib={kib}\\n')\n"
        "atexit.register(peak)\n"
        f"main({argv!r})\n"
    )
    result = run_python("-c", script)
    return result.stdout, int(result.stderr.rsplit("peak_kib=", 1)[1])


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc")
def test_exchange_verify_worst_case_in_bounded_memory():
    # the outcome document is written in blocks of outcomes; held whole,
    # its text took the 16-user run to 176 MB
    names = ",".join(f"u{i}" for i in range(16))
    stdout, kib = peak_kib(["exchange", "--users", names, "--request", names, "--verify"])
    assert stdout.count('"basis_sign"') == catswap.MAX_OUTCOMES
    assert kib < 110 * 1024, kib


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc")
def test_oracle_near_cell_cap_in_bounded_memory():
    # thermal:12.5 has 240 doublets, so 8700 points are 2088000 cells, just
    # under MAX_ORACLE_CELLS
    stdout, kib = peak_kib(["jc", "--dist", "thermal:12.5", "--points", "8700", "--oracle"])
    assert len(stdout.splitlines()) == 8701
    assert kib < 100 * 1024, kib


def test_cli_imports_no_scipy():
    # scipy is a test-only dependency; the CLI must start without it
    result = run_python("-c", "import sys, qlimits.cli; print('scipy' in sys.modules)")
    assert result.stdout.strip() == "False"


@pytest.mark.parametrize("argv, loaded, not_loaded", [
    (["budget"], {"qlimits.feasibility"}, {"numpy", "qlimits.jc"}),
    (["exchange", "--users", "A,B,C", "--request", "A,B"], {"qlimits.catswap"}, {"numpy"}),
    (["swap", "{swap}"], {"qlimits.catswap"}, {"numpy"}),
    (["exchange", "--users", "A,B,C", "--request", "A,B", "--verify"], {"qlimits.catswap"}, {"numpy"}),
    (["swap", "{swap}", "--verify"], {"qlimits.catswap"}, {"numpy"}),
    (["ree", "{state}"], {"qlimits.entanglement"}, {"qlimits.catswap", "qlimits.feasibility"}),
    (["jc", "--points", "3"], {"qlimits.jc"},
     {"qlimits.catswap", "qlimits.entanglement", "qlimits.feasibility"}),
], ids=["budget", "exchange", "swap", "exchange-verify", "swap-verify", "ree", "jc"])
def test_each_command_imports_only_what_it_runs(tmp_path, argv, loaded, not_loaded):
    write_standard_swap(tmp_path / "swap.json")
    write_bell(tmp_path / "state.json")
    argv = [arg.format(swap=tmp_path / "swap.json", state=tmp_path / "state.json") for arg in argv]
    result = run_python("-X", "importtime", "-m", "qlimits.cli", *argv)
    # -X importtime writes "import time: self | cumulative | name" to stderr
    modules = {line.rsplit("|", 1)[1].strip() for line in result.stderr.splitlines()
               if line.startswith("import time:") and "|" in line}
    assert loaded <= modules
    assert not (not_loaded & modules)


PUBLIC_MODULES = [
    mod for mod in (importlib.import_module(f"qlimits.{m.name}") for m in pkgutil.iter_modules(qlimits.__path__))
    if hasattr(mod, "__all__")
]


@pytest.mark.parametrize("mod", PUBLIC_MODULES, ids=lambda mod: mod.__name__)
def test_module_all_names_resolve(mod):
    # the benchmark's tracer walks each engine's __all__
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, missing
    assert len(set(mod.__all__)) == len(mod.__all__)


# Each command with the engine it runs.  The --out tests make that engine
# raise, so they fail if --out is checked only after the work.
OUT_CASES = [
    pytest.param(["jc", "--points", "3"], "qlimits.jc.population_lower", id="jc"),
    pytest.param(["budget"], "qlimits.feasibility.feasibility_report", id="budget"),
    pytest.param(["swap", "{swap}"], "qlimits.catswap.enumerate_outcomes", id="swap"),
    pytest.param(["exchange", "--users", "A,B", "--request", "A,B"], "qlimits.catswap.telephone_exchange",
                 id="exchange"),
    pytest.param(["ree", "{state}"], "qlimits.entanglement.relative_entropy_of_entanglement", id="ree"),
    pytest.param(["ree", "--axioms"], "qlimits.entanglement.axiom_harness", id="ree-axioms"),
]


def invoke_without_engine(runner, monkeypatch, tmp_path, argv, engine, out,
                          reason="ran before --out was checked"):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{engine} {reason}")

    monkeypatch.setattr(engine, refuse)
    write_standard_swap(tmp_path / "swap.json")
    write_bell(tmp_path / "state.json")
    argv = [arg.format(swap=tmp_path / "swap.json", state=tmp_path / "state.json") for arg in argv]
    return runner.invoke(main, [*argv, "--out", str(out)])


@pytest.mark.parametrize("argv, engine", OUT_CASES)
def test_out_naming_a_directory_exits_3(runner, monkeypatch, tmp_path, argv, engine):
    target = tmp_path / "target"
    target.mkdir()
    (target / "keep.txt").write_text("kept")
    result = invoke_without_engine(runner, monkeypatch, tmp_path, argv, engine, target)
    assert result.exit_code == 3, result.output
    assert "cannot write" in result.output
    assert result.stdout == ""
    # no .target.* temporary file is left beside it, and the directory is untouched
    assert sorted(p.name for p in tmp_path.iterdir()) == ["state.json", "swap.json", "target"]
    assert [(p.name, p.read_text()) for p in target.iterdir()] == [("keep.txt", "kept")]


@pytest.mark.parametrize("argv, engine", OUT_CASES)
def test_out_in_a_missing_directory_exits_3(runner, monkeypatch, tmp_path, argv, engine):
    out = tmp_path / "missing" / "x.json"
    result = invoke_without_engine(runner, monkeypatch, tmp_path, argv, engine, out)
    assert result.exit_code == 3, result.output
    assert "cannot write" in result.output
    assert result.stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["state.json", "swap.json"]


def test_out_naming_a_pipe_writes_into_it(runner, tmp_path):
    # a pipe or a device such as /dev/null is written in place, not replaced
    # by a regular file
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)
    try:
        result = runner.invoke(main, ["jc", "--points", "3", "--out", str(pipe)])
        assert result.exit_code == 0, result.output
        text = os.read(reader, 1 << 16).decode()
    finally:
        os.close(reader)
    assert text == invoke(runner, "jc", "--points", "3").output
    assert stat.S_ISFIFO(os.stat(pipe).st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["pipe"]


@pytest.mark.parametrize("argv, engine", OUT_CASES)
def test_failing_engine_keeps_the_old_out_file(runner, monkeypatch, tmp_path, argv, engine):
    out = tmp_path / "old.json"
    out.write_text("old bytes")
    result = invoke_without_engine(runner, monkeypatch, tmp_path, argv, engine, out, reason="failed")
    assert isinstance(result.exception, AssertionError)
    assert str(result.exception) == f"{engine} failed"
    # no .old.json.* temporary file is left beside it
    assert out.read_text() == "old bytes"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.json", "state.json", "swap.json"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("points", [3, 2 * CSV_BLOCK_ROWS], ids=["on-close", "on-write"])
def test_out_device_write_error_exits_3(runner, points):
    # /dev/full fails every write with ENOSPC: a short CSV when its buffer
    # is flushed on close, a long one while it is written
    result = runner.invoke(main, ["jc", "--points", str(points), "--out", "/dev/full"])
    assert result.exit_code == 3, result.output
    assert "cannot write '/dev/full'" in result.output


def test_failed_replace_exits_3_and_leaves_nothing(runner, monkeypatch, tmp_path):
    def refuse(src, dst):
        raise PermissionError(13, "Permission denied", dst)

    monkeypatch.setattr(os, "replace", refuse)
    out = tmp_path / "curve.csv"
    result = runner.invoke(main, ["jc", "--points", "3", "--out", str(out)])
    assert result.exit_code == 3, result.output
    assert "cannot write" in result.output
    assert "Permission denied" in result.output
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["jc", "--points", str(CSV_BLOCK_ROWS + 1)],
    ["swap", "{swap}"],
    ["exchange", "--users", "A,B,C,D", "--request", "A,B,C"],
    ["ree", "{state}"],
], ids=["jc", "swap", "exchange", "ree"])
def test_out_file_holds_the_stdout_bytes_through_one_temporary(runner, monkeypatch, tmp_path, argv):
    import tempfile

    write_standard_swap(tmp_path / "swap.json")
    write_bell(tmp_path / "state.json")
    argv = [arg.format(swap=tmp_path / "swap.json", state=tmp_path / "state.json") for arg in argv]
    made = []
    original = tempfile.NamedTemporaryFile

    def counting(*args, **kwargs):
        made.append(kwargs.get("prefix"))
        return original(*args, **kwargs)

    monkeypatch.setattr(tempfile, "NamedTemporaryFile", counting)
    out = tmp_path / "out.txt"
    assert invoke(runner, *argv, "--out", str(out)).exit_code == 0
    assert made == [".out.txt."]
    assert out.read_bytes() == invoke(runner, *argv).stdout_bytes
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt", "state.json", "swap.json"]


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

    @pytest.mark.parametrize("spec, message", [
        ("coherent:1e9", "MAX_LEVELS"),
        ("thermal:1e9", "MAX_LEVELS"),
        ("fock:-1", "Error: Fock index must be >= 0"),
    ], ids=["coherent:1e9", "thermal:1e9", "fock:-1"])
    def test_huge_distribution_exits_3(self, runner, spec, message):
        result = runner.invoke(main, ["jc", "--dist", spec, "--points", "2"])
        assert result.exit_code == 3
        assert message in result.output

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

    def test_oracle_above_cell_cap_exits_3(self, runner, monkeypatch):
        # fock:2 has 3 doublets and 3 x 699051 = MAX_ORACLE_CELLS + 1; the
        # cap is checked before any curve is computed
        assert 3 * 699051 == MAX_ORACLE_CELLS + 1

        def no_compute(*args):
            raise AssertionError("computed above the cap")

        monkeypatch.setattr("qlimits.jc.population_lower", no_compute)
        result = runner.invoke(main, ["jc", "--oracle", "--dist", "fock:2", "--points", "699051"])
        assert result.exit_code == 3, result.output
        assert "MAX_ORACLE_CELLS" in result.output
        # without --oracle the same grid is within bounds
        monkeypatch.undo()
        result = runner.invoke(main, ["jc", "--dist", "fock:2", "--points", "699051", "--out", os.devnull])
        assert result.exit_code == 0

    def test_curve_above_cell_cap_exits_3(self, runner, monkeypatch, tmp_path):
        # thermal:13.875 keeps 265 nonzero weights and 265 x 253241 = MAX_CELLS + 1;
        # the cap is checked before any curve is computed
        assert np.count_nonzero(VibrationalDistribution.parse("thermal:13.875").p_n) == 265
        assert 265 * 253241 == MAX_CELLS + 1

        def no_compute(*args):
            raise AssertionError("computed above the cap")

        monkeypatch.setattr("qlimits.jc.population_lower", no_compute)
        result = runner.invoke(main, ["jc", "--dist", "thermal:13.875", "--points", "253241"])
        assert result.exit_code == 3, result.output
        assert "MAX_CELLS" in result.output
        # thermal:13.375 keeps 256 nonzero weights, and 256 x 262144 is the cap itself
        assert np.count_nonzero(VibrationalDistribution.parse("thermal:13.375").p_n) == 256
        assert 256 * 262144 == MAX_CELLS
        monkeypatch.setattr("qlimits.jc.population_lower", lambda grid, *args: np.zeros_like(grid))
        out = tmp_path / "curve.csv"
        result = runner.invoke(main, ["jc", "--dist", "thermal:13.375", "--points", "262144",
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert out.read_text().count("\n") == 262145

    @pytest.mark.parametrize("args", [["--gamma0", "nan"], ["--gamma0", "inf"], ["--d", "nan"],
                                      ["--g", "nan"], ["--g", "inf"]])
    def test_nonfinite_parameters_exit_3(self, runner, args):
        result = runner.invoke(main, ["jc", *args, "--points", "3"])
        assert result.exit_code == 3, result.output
        assert "finite" in result.output

    @pytest.mark.parametrize("args", [["--d", "700"], ["--d", "700", "--oracle"], ["--tmax", "1e308"],
                                      ["--g", "1e-320"]])
    def test_curve_beyond_float_range_exits_3(self, runner, args):
        # a rate (n+1)**350.5, a Rabi phase B_n t or a t_s = t/g beyond the doubles
        result = runner.invoke(main, ["jc", *args, "--points", "3"])
        assert result.exit_code == 3, result.output
        assert "float range" in result.output

    @pytest.mark.parametrize("tmax", ["1e-300", "2e-8"])
    def test_seconds_column_underflow_exits_3(self, runner, tmax):
        # the first nonzero gt is tmax / 2, and t_s = gt / 1e300 is 0, or
        # 1e-308, below the smallest normal double
        result = runner.invoke(main, ["jc", "--g", "1e300", "--tmax", tmax, "--points", "3"])
        assert result.exit_code == 3, result.output
        assert "float range" in result.output
        # t_s = 5e-306 is a normal double
        assert invoke(runner, "jc", "--g", "1e300", "--tmax", "1e-5", "--points", "3").exit_code == 0

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

    @pytest.mark.parametrize("points", [CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1,
                                        2 * CSV_BLOCK_ROWS + 1])
    def test_csv_blocks_match_per_cell_format(self, runner, points):
        distribution = VibrationalDistribution.parse("fock:2")
        params = DecoherenceParams(0.127, 0.4)
        grid = np.linspace(0.0, 25.0, points)
        columns = [grid, grid / 2e5, population_lower(grid, distribution, params, CouplingModel("di")),
                   oracle_population_lower(grid, distribution, params, CouplingModel("di"))]
        rows = ["gt,t_s,p_down,p_down_oracle"]
        rows += [",".join(format(float(col[i]), ".12g") for col in columns) for i in range(points)]
        output = invoke(runner, "jc", "--dist", "fock:2", "--g", "2e5", "--oracle",
                        "--points", str(points)).output
        assert output == "\n".join(rows) + "\n"

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

    def test_unwritable_out_prints_no_table(self, runner, tmp_path):
        # --out is checked before the table goes to stdout
        result = runner.invoke(main, ["budget", "--out", str(tmp_path)])
        assert result.exit_code == 3, result.output
        assert result.stdout == ""

    def test_epsilon_default_is_the_worked_value(self):
        option = next(p for p in main.commands["budget"].params if p.name == "epsilon")
        assert option.default == feasibility.EPSILON_WORKED

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

    @pytest.mark.parametrize("args", [
        ["--eta", "1e-300"], ["--L", "1" + "0" * 36], ["--ratio", "1e300", "--eta", "1e-10"],
    ])
    def test_overflow_exits_3(self, runner, args):
        result = runner.invoke(main, ["budget", *args])
        assert result.exit_code == 3, result.output
        assert "float range" in result.output

    @pytest.mark.parametrize("fields", [
        '"Gamma33": 1e200', '"Gamma22": NaN, "Delta13": Infinity', '"beta": -Infinity',
    ])
    def test_unusable_ion_numbers_exit_3(self, runner, tmp_path, fields):
        entry = {"name": "testium", "Gamma22": 1e8, "Gamma33": 1e7, "Delta2": 1e15,
                 "Delta13": 1e15, "omega12": 2e15, "omega13": 4e15, "beta": 1.0}
        ions = tmp_path / "ions.json"
        # NaN and Infinity are not JSON, but json.load parses them
        ions.write_text("[{%s, %s}]" % (json.dumps(entry)[1:-1], fields))
        result = runner.invoke(main, ["budget", "--L", "4", "--ions", str(ions), "--N", "1e6"])
        assert result.exit_code == 3, result.output
        assert "p2=" not in result.output

    def test_bad_l_list_exits_2(self, runner):
        result = runner.invoke(main, ["budget", "--L", "4,x"])
        assert result.exit_code == 2, result.output
        assert "bad --L list" in result.output

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

    @pytest.mark.parametrize("users, request_", [("A,B,C,D", "A,B,C"), ("A", "A"), ("u1,u2,u3", "u3,u1")])
    def test_exchange_file_writes_the_exchange_document(self, runner, tmp_path, users, request_):
        scenario = tmp_path / "exchange.json"
        scenario.write_text(json.dumps({"users": users.split(","), "request": request_.split(",")}))
        swapped = invoke(runner, "swap", str(scenario), "--verify")
        assert swapped.exit_code == 0
        assert swapped.stdout == invoke(runner, "exchange", "--users", users, "--request", request_).stdout
        assert json.loads(swapped.stdout)["user_particles"]["A" if users[0] == "A" else "u1"] == 1

    @pytest.mark.parametrize("argv", [
        ["swap", "{swap}", "--verify"],
        ["swap", "{exchange}", "--verify"],
        ["exchange", "--users", "A,B,C,D", "--request", "A,B,C", "--verify"],
    ], ids=["swap", "swap-exchange-file", "exchange"])
    def test_verify_enumerates_once(self, runner, tmp_path, monkeypatch, argv):
        write_standard_swap(tmp_path / "swap.json")
        (tmp_path / "exchange.json").write_text(json.dumps({"users": ["A", "B"], "request": ["A", "B"]}))
        calls = []
        enumerate_outcomes = catswap.enumerate_outcomes

        def counted(coll, spec):
            calls.append(spec)
            return enumerate_outcomes(coll, spec)

        monkeypatch.setattr(catswap, "enumerate_outcomes", counted)
        argv = [arg.format(swap=tmp_path / "swap.json", exchange=tmp_path / "exchange.json") for arg in argv]
        assert invoke(runner, *argv).exit_code == 0
        assert len(calls) == 1

    def test_verify_mismatch_exits_4(self, runner, tmp_path, monkeypatch):
        scenario = tmp_path / "swap.json"
        write_standard_swap(scenario)
        monkeypatch.setattr(catswap, "check_outcomes", lambda coll, spec, outcomes: (False, "forced"))
        result = runner.invoke(main, ["swap", str(scenario), "--verify"])
        assert result.exit_code == 4

    def test_oracle_mismatch_exits_4(self, runner, tmp_path, monkeypatch):
        # the symbolic engine loses an outcome, so the real comparison fails
        scenario = tmp_path / "swap.json"
        write_standard_swap(scenario)
        enumerate_outcomes = catswap.enumerate_outcomes
        monkeypatch.setattr(catswap, "enumerate_outcomes", lambda coll, spec: enumerate_outcomes(coll, spec)[:-1])
        result = runner.invoke(main, ["swap", str(scenario), "--verify"])
        assert result.exit_code == 4
        assert result.stderr == "Error: verification mismatch: outcome counts differ: symbolic 3 vs oracle 4\n"
        assert result.stdout == ""

    def test_oracle_mismatch_above_dense_limit_exits_4(self, runner, tmp_path, monkeypatch):
        # 19 particles; the symbolic engine flips the residual sign of the last outcome
        scenario = tmp_path / "swap.json"
        scenario.write_text(json.dumps(LARGE_SWAP_SCENARIO))
        enumerate_outcomes = catswap.enumerate_outcomes

        def flip_last(coll, spec):
            *outcomes, last = enumerate_outcomes(coll, spec)
            residual = catswap.CatState(last.residual.particles, last.residual.bits, -last.residual.sign)
            return [*outcomes, dataclasses.replace(last, residual=residual)]

        monkeypatch.setattr(catswap, "enumerate_outcomes", flip_last)
        result = runner.invoke(main, ["swap", str(scenario), "--verify"])
        assert result.exit_code == 4
        assert result.stderr == (
            "Error: verification mismatch: residual mismatch at CatState(particles=(0, 1, 3, 5, 7, 9, 11), "
            "bits=(0, 1, 1, 1, 1, 1, 1), sign=-1): CatState(particles=(2, 4, 6, 8, 10, 12), "
            "bits=(0, 1, 1, 0, 1, 1), sign=-1)\n"
        )
        assert result.stdout == ""

    def test_verify_mismatch_prints_error_and_keeps_out(self, runner, tmp_path, monkeypatch):
        scenario = tmp_path / "swap.json"
        write_standard_swap(scenario)
        out = tmp_path / "out.json"
        out.write_text("old bytes")
        monkeypatch.setattr(catswap, "check_outcomes", lambda coll, spec, outcomes: (False, "forced"))
        result = runner.invoke(main, ["swap", str(scenario), "--verify", "--out", str(out)])
        assert result.exit_code == 4
        assert result.stderr == "Error: verification mismatch: forced\n"
        assert out.read_text() == "old bytes"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json", "swap.json"]

    @pytest.mark.parametrize("content, message", [
        ({"cats": [{"particles": [1, 2], "bits": [0, 0], "sign": "+"}], "measure": 5}, "bad scenario"),
        ({"users": 5, "request": ["A"]}, "bad scenario"),
        ({"users": ["A", "B"], "request": 5}, "bad scenario"),
        ({"cats": [{"particles": [], "bits": [], "sign": "+"}], "measure": [1]},
         "bad scenario: bad cat entry 0: a cat state needs at least one particle"),
        ({"cats": [{"particles": [-1, 2], "bits": [0, 0], "sign": "+"}], "measure": [2]},
         "bad scenario: bad cat entry 0: particle ids must be nonnegative"),
        # measure names each particle once, and request each user once
        ({"cats": [{"particles": [1, 2], "bits": [0, 0], "sign": "+"},
                   {"particles": [3, 4], "bits": [0, 0], "sign": "+"}], "measure": [2, 3, 3]},
         "bad scenario: duplicate particle ids in measure [2, 3, 3]"),
        ({"users": ["A", "B"], "request": ["A", "A"]}, "bad scenario: duplicate user names in request"),
    ], ids=["content0", "content1", "content2", "empty-cat", "negative-id", "repeated-measure",
            "repeated-request"])
    def test_wrong_shape_exits_3(self, runner, tmp_path, content, message):
        scenario = tmp_path / "bad.json"
        scenario.write_text(json.dumps(content))
        result = runner.invoke(main, ["swap", str(scenario)])
        assert result.exit_code == 3, result.output
        assert message in result.output

    @pytest.mark.parametrize("text", [
        '{"cats": [{"particles": [1, 2], "bits": [0, 0], "sign": "+"}], "measure": "12"}',
        '{"cats": [{"particles": [1.9, 2], "bits": [0, 0], "sign": "+"}], "measure": [1]}',
        '{"cats": [{"particles": [1, 2], "bits": [true, 0], "sign": "+"}], "measure": [1]}',
        '{"cats": [{"particles": [1, 2], "bits": [0, 0], "sign": true}], "measure": [1]}',
        '{"cats": [{"particles": [1, 2], "bits": [0, 0], "sign": 1.0}], "measure": [1]}',
        '{"cats": [{"particles": [1, 2], "bits": [0, 0], "sign": "+"}], "measure": [true]}',
        '{"cats": [{"particles": [Infinity, 2], "bits": [0, 0], "sign": "+"}], "measure": [2]}',
        '{"cats": {"particles": [1, 2]}, "measure": [1]}',
        '{"users": "ABC", "request": "AB"}',
        '{"users": ["A", "B"], "request": ["A", 2]}',
    ])
    def test_coercible_fields_exit_3(self, runner, tmp_path, text):
        scenario = tmp_path / "bad.json"
        scenario.write_text(text)
        result = runner.invoke(main, ["swap", str(scenario)])
        assert result.exit_code == 3, result.output
        assert "bad scenario" in result.output

    @pytest.mark.parametrize("text, spelling", [
        ('{"cats": [{"particles": [Infinity, 2], "bits": [0, 0], "sign": "+"}], "measure": [2]}',
         "got [Infinity, 2]"),
        ('{"cats": [{"particles": [1, 2], "bits": [0, 0], "sign": true}], "measure": [1]}',
         "got true"),
        ('{"cats": [{"particles": [1, 2], "bits": [0, 0], "sign": "+"}], "measure": ['
         + ", ".join(["0.5"] * 10**6) + "]}",
         "got [0.5, 0.5, "),
        ('{"users": ["A", null], "request": ["A"]}', 'got ["A", null]'),
    ], ids=["infinity", "true", "million-floats", "null-user"])
    def test_bad_values_echo_their_json_bounded(self, runner, tmp_path, text, spelling):
        scenario = tmp_path / "bad.json"
        scenario.write_text(text)
        result = runner.invoke(main, ["swap", str(scenario)])
        assert result.exit_code == 3, result.output
        assert spelling in result.stderr
        assert len(result.stderr.encode()) < 1024

    def test_integer_signs_accepted(self, runner, tmp_path):
        scenario = tmp_path / "swap.json"
        scenario.write_text('{"cats": [{"particles": [1, 2], "bits": [0, 0], "sign": -1}, '
                            '{"particles": [3, 4], "bits": [0, 1], "sign": 1}], "measure": [2, 3]}')
        assert invoke(runner, "swap", str(scenario), "--verify").exit_code == 0

    def test_verify_above_dense_limit_matches_plain_run(self, runner, tmp_path):
        # 18 particles, above the dense oracle's limit of 14
        scenario = tmp_path / "big.json"
        cats = [{"particles": [2 * i, 2 * i + 1], "bits": [0, 0], "sign": "+"} for i in range(9)]
        scenario.write_text(json.dumps({"cats": cats, "measure": [1, 2]}))
        verified = invoke(runner, "swap", str(scenario), "--verify")
        assert verified.exit_code == 0
        assert verified.stdout == invoke(runner, "swap", str(scenario)).stdout


def reference_json(blob):
    """The stdlib encoding every JSON document of the CLI must match."""
    return json.dumps(cli_module._round12(blob), indent=2, sort_keys=True) + "\n"


def outcomes_json(coll, spec, outcomes):
    """The outcome document as _outcomes_json writes it, with its writes joined."""
    pieces = []
    cli_module._outcomes_json(pieces.append, coll, spec, outcomes)
    return "".join(pieces)


class TestOutcomeEmitter:
    # blocks of 1, 2 and 3 outcomes put a block boundary after every outcome
    # of the scenarios below
    @pytest.mark.parametrize("block", [None, 1, 2, 3])
    def test_matches_stdlib_encoder_on_scenarios(self, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(cli_module, "JSON_BLOCK_OUTCOMES", block)
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
            expected = reference_json(outcome_document(coll, spec, outcomes))
            assert outcomes_json(coll, spec, outcomes) == expected
        assert consumed >= 10
        coll, spec = scenarios[0]
        assert outcomes_json(coll, spec, ()) == reference_json(outcome_document(coll, spec, ()))

    def test_writes_in_blocks_of_outcomes(self, monkeypatch):
        monkeypatch.setattr(cli_module, "JSON_BLOCK_OUTCOMES", 3)
        coll, spec = catswap.scenario_from_dict(LARGE_SWAP_SCENARIO)
        outcomes = catswap.enumerate_outcomes(coll, spec)
        pieces = []
        cli_module._outcomes_json(pieces.append, coll, spec, outcomes)
        # one write per full block, and one for the rest of the document
        assert len(pieces) == len(outcomes) // 3 + 1
        assert [piece.count('"basis_sign"') for piece in pieces[:-1]] == [3] * (len(pieces) - 1)

    @pytest.mark.parametrize("users, request_", [
        ("A", "A"), ("A,B,C,D", "A,B,C"), ("A,B,C,D,E,F,G,H", "H,B"),
        ("u1,u2,u3,u4,u5,u6,u7,u8,u9", "u9,u1,u2,u3,u4,u5,u6,u7,u8"),
        ('Zed,\u00e9,"q",b\\s,outcomes,A', 'outcomes,\u00e9,"q"'),
    ])
    def test_exchange_matches_stdlib_encoder(self, runner, users, request_):
        output = invoke(runner, "exchange", "--users", users, "--request", request_).output
        result = catswap.telephone_exchange(users.split(","), request_.split(","))
        outcomes = catswap.enumerate_outcomes(result.collection, result.spec)
        blob = outcome_document(result.collection, result.spec, outcomes)
        blob.update(users=users.split(","), request=request_.split(","),
                    user_particles=result.user_particles, hub_particles=result.hub_particles)
        assert output == reference_json(blob)


class TestExchange:
    def test_fig6_request(self, runner):
        result = invoke(runner, "exchange", "--users", "A,B,C,D", "--request", "A,B,C", "--verify")
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["measure"] == [2, 3, 5]
        assert all(o["residual"]["particles"] == [1, 4, 6] for o in data["outcomes"])

    def test_verify_above_dense_limit_matches_plain_run(self, runner):
        # eight users hold 16 particles, above the dense oracle's limit of 14
        argv = ["exchange", "--users", "A,B,C,D,E,F,G,H", "--request", "A,B"]
        verified = invoke(runner, *argv, "--verify")
        assert verified.exit_code == 0
        assert verified.stdout == invoke(runner, *argv).stdout

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

    def test_repeated_request_exits_3(self, runner):
        # a repeated user would leave residuals of fewer than len(request) particles
        result = runner.invoke(main, ["exchange", "--users", "A,B", "--request", "A,A"])
        assert result.exit_code == 3, result.output
        assert result.stderr == "Error: duplicate user names in request\n"
        assert result.stdout == ""


# the fifth state (index 4) of the seed-17 2x2 sweep in
# test_entanglement.py::TestClosedForms::test_separable_states_at_the_state_floor:
# separable up to rounding, with a partial transpose 2.65e-11 below 0
FLOOR_STATE_2X2 = [
    [[0.12716210959551572, -6.938893903907228e-18], [-0.14691918476431506, 0.18216075166336806],
     [0.013465359796709616, -0.048986527231762236], [0.0512305973195938, 0.07118270331395216]],
    [[-0.14691918476431506, -0.1821607516633681], [0.4929385390404294, 2.7755575615628914e-17],
     [-0.08041677353591166, 0.034995626682178545], [0.04979695033296404, -0.18115963482390854]],
    [[0.01346535979670962, 0.04898652723176224], [-0.08041677353591165, -0.03499562668217855],
     [0.0760353504646357, 0.0], [-0.09151054274170337, 0.11346121527758649]],
    [[0.051230597319593806, -0.07118270331395216], [0.049796950332964045, 0.18115963482390854],
     [-0.09151054274170337, -0.11346121527758649], [0.30386400085037124, -1.3877787807814457e-17]],
]


class TestRee:
    def test_bell_value(self, runner, tmp_path):
        state = tmp_path / "bell.json"
        write_bell(state)
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

    def test_product_space_prints_zero(self, runner, tmp_path):
        # an eigenvalue of -2e-12 is a state; this printed "value_nats":
        # -4.80000483793e-11 when such a state could reach the search
        state = tmp_path / "product.json"
        state.write_text('{"matrix": [[[0.999999999952, 0], [0, 0]], [[0, 0], [-2e-12, 0]]], "dims": [1, 2]}')
        result = invoke(runner, "ree", str(state))
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert (data["value_nats"], data["restarts"]) == (0.0, 0)
        assert result.output.endswith('"value_nats": 0.0\n}\n')

    def test_separable_state_at_the_floor_prints_no_negative_value(self, runner, tmp_path):
        # its partial transpose dips below 0 by less than the state floor
        # 1e-10, so it takes the "ppt" route; when the PPT test had its own
        # floor of -1e-12, the search printed "value_nats": -2.25572893697e-11
        # with "restarts": 1
        gamma = np.array([[complex(*z) for z in row] for row in FLOOR_STATE_2X2])
        gamma = gamma.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
        assert -1e-10 <= np.linalg.eigvalsh(gamma)[0] < -1e-12
        state = tmp_path / "floor.json"
        state.write_text(json.dumps({"matrix": FLOOR_STATE_2X2, "dims": [2, 2]}))
        result = invoke(runner, "ree", str(state))
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert (data["restarts"], data["converged"]) == (0, True)
        assert 0.0 <= data["value_nats"] <= math.log(1.0 + 4e-10)

    @pytest.mark.parametrize("dims", [[2, 2], [2, 3], [3, 3], [4, 4]])
    def test_random_product_pure_state_prints_zero(self, runner, tmp_path, dims):
        # (0.6|0> + 0.8i|1>) (x) |+> printed 1.11022302463e-16 before
        rng = np.random.default_rng(8)
        fixed = np.kron([0.6, 0.8j], [1.0, 1.0]) / math.sqrt(2.0)
        states = [fixed] if dims == [2, 2] else []
        for _ in range(3):
            a, b = (rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in dims)
            states.append(np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b)))
        state = tmp_path / "product.json"
        for psi in states:
            rho = np.outer(psi, psi.conj())
            matrix = [[[z.real, z.imag] for z in row] for row in rho]
            state.write_text(json.dumps({"matrix": matrix, "dims": dims}))
            result = invoke(runner, "ree", str(state))
            assert result.exit_code == 0
            data = json.loads(result.output)
            assert result.output.endswith('"value_nats": 0.0\n}\n')
            assert data["value_nats"] == 0.0 and data["value_bits"] == 0.0

    def test_werner_4x4_value(self, runner, tmp_path):
        # ln 2 + p ln p + (1 - p) ln(1 - p) at antisymmetric weight p = 0.55;
        # a 20-term mixture printed 0.0259708
        state = tmp_path / "werner.json"
        matrix = [[[x, 0.0] for x in row] for row in werner_matrix(4, 0.55)]
        state.write_text(json.dumps({"matrix": matrix, "dims": [4, 4]}))
        result = invoke(runner, "ree", str(state))
        assert result.exit_code == 0
        assert json.loads(result.output)["value_nats"] == pytest.approx(0.0050084, abs=1e-4)

    @pytest.mark.parametrize("cell", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_cell_exits_3(self, runner, tmp_path, cell):
        state = tmp_path / "bad.json"
        state.write_text('{"matrix": [[[%s,0],[0,0]],[[0,0],[0.5,0]]], "dims": [2,1]}' % cell)
        result = runner.invoke(main, ["ree", str(state)])
        assert result.exit_code == 3, result.output
        assert "non-finite" in result.output

    def test_infinite_cell_prints_no_warning(self, tmp_path):
        state = tmp_path / "bad.json"
        state.write_text('{"matrix": [[[Infinity,0],[0,0]],[[0,0],[0.5,0]]], "dims": [2,1]}')
        result = run_python("-m", "qlimits.cli", "ree", str(state), check=False)
        assert result.returncode == 3
        assert "non-finite" in result.stderr
        assert "RuntimeWarning" not in result.stderr

    @pytest.mark.parametrize("matrix, message", [
        # finite entries whose Hermiticity deviation, 2e308, overflows
        ("[[[0.5, 0], [0, 1e308]], [[0, 1e308], [0.5, 0]]]", "matrix is not Hermitian: max deviation inf"),
        # finite entries whose trace, 2e308, overflows
        ("[[[1e308, 0], [0, 0]], [[0, 0], [1e308, 0]]]", "trace is (inf+0j), expected 1"),
    ])
    def test_overflowing_state_prints_no_warning(self, tmp_path, matrix, message):
        state = tmp_path / "bad.json"
        state.write_text('{"matrix": %s, "dims": [2]}' % matrix)
        result = run_python("-m", "qlimits.cli", "ree", str(state), check=False)
        assert result.returncode == 3
        assert f"Error: bad state file: {message}\n" in result.stderr
        assert "RuntimeWarning" not in result.stderr

    def test_non_density_input_exits_3(self, runner, tmp_path):
        state = tmp_path / "bad.json"
        matrix = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]  # trace 2
        state.write_text(json.dumps({"matrix": matrix, "dims": [2]}))
        result = runner.invoke(main, ["ree", str(state)])
        assert result.exit_code == 3

    def test_file_without_matrix_exits_3(self, runner, tmp_path):
        state = tmp_path / "bad.json"
        state.write_text(json.dumps({"dims": [2, 2]}))
        result = runner.invoke(main, ["ree", str(state)])
        assert result.exit_code == 3, result.output
        assert "needs 'matrix'" in result.output

    def test_missing_input_exits_2(self, runner):
        result = runner.invoke(main, ["ree"])
        assert result.exit_code == 2

    def test_closed_form_reports_no_restarts(self, runner, tmp_path):
        state = tmp_path / "bell.json"
        write_bell(state)
        data = json.loads(invoke(runner, "ree", str(state)).output)
        assert data["restarts"] == 0
        assert data["converged"] is True
        assert sorted(data) == ["converged", "restarts", "value_bits", "value_nats"]

    def test_seed_never_moves_a_solve(self, runner, tmp_path):
        # an NPT state with unequal marginals (Werner p = 0.8 tilted toward
        # |00>) has no closed form, so both runs search; the seed only drives
        # --axioms and must not move a solve.  The Werner state itself takes
        # the Bell-diagonal closed form, ln 2 + F ln F + (1 - F) ln(1 - F)
        # at F = 0.85.
        from qlimits.core import DensityOperator
        from qlimits.entanglement import relative_entropy_of_entanglement

        werner = 0.8 * np.outer([1, 0, 0, 1], [1, 0, 0, 1]) / 2 + 0.2 * np.eye(4) / 4
        tilted = 0.95 * werner
        tilted[0, 0] += 0.05
        outputs = {}
        for name, matrix in (("werner", werner), ("tilted", tilted)):
            state = tmp_path / f"{name}.json"
            state.write_text(json.dumps({"matrix": [[[x, 0.0] for x in row] for row in matrix.tolist()],
                                         "dims": [2, 2]}))
            a = invoke(runner, "ree", str(state)).output
            b = invoke(runner, "ree", str(state), "--seed", "7").output
            assert a == b
            outputs[name] = json.loads(a)
        data = outputs["werner"]
        assert data["restarts"] == 0
        assert data["value_nats"] == pytest.approx(
            math.log(2) + 0.85 * math.log(0.85) + 0.15 * math.log(0.15), abs=1e-12
        )
        data = outputs["tilted"]
        assert data["restarts"] == 1
        expected = relative_entropy_of_entanglement(DensityOperator(tilted, (2, 2)))
        assert expected.stop_reason == "stall"
        assert data["value_nats"] == float(format(expected.value, ".12g"))

    def test_bad_dims_echo_their_json_bounded(self, runner, tmp_path):
        state = tmp_path / "bad.json"
        dims = "[true, " + ", ".join(["1e308"] * 10**5) + "]"
        state.write_text('{"matrix": [[[1.0, 0.0]]], "dims": ' + dims + "}")
        result = runner.invoke(main, ["ree", str(state)])
        assert result.exit_code == 3, result.output
        assert "got [true, 1e+308, " in result.stderr
        assert len(result.stderr.encode()) < 1024

    @pytest.mark.parametrize("content, message", [
        ({"matrix": [[[1.0, 0.0]]], "dims": 1}, "bad state file"),
        ({"matrix": [[[1.0, 0.0]]], "dims": None}, "bad state file"),
        ({"matrix": [[{"re": 1.0, "im": 0.0}]], "dims": [1, 1]}, "bad state file"),
        ({"matrix": [[[1.0, 0.0]]], "dims": [[1], [1]]}, "bad state file"),
        ({"matrix": [[[0.25 * (i == j), 0.0] for j in range(4)] for i in range(4)], "dims": [2, 3]},
         "bad state file: matrix of shape (4, 4) does not match dims (2, 3)"),
    ], ids=["content0", "content1", "content2", "content3", "dims-mismatch"])
    def test_wrong_shape_exits_3(self, runner, tmp_path, content, message):
        state = tmp_path / "bad.json"
        state.write_text(json.dumps(content))
        result = runner.invoke(main, ["ree", str(state)])
        assert result.exit_code == 3, result.output
        assert message in result.output

    @pytest.mark.parametrize("text", [
        '{"matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]], "dims": [2.9, 1]}',
        '{"matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]], "dims": [true, 2]}',
        '{"matrix": [[[1, 0]]], "dims": [Infinity]}',
        '{"matrix": [[[true, 0]]], "dims": [1, 1]}',
        '{"matrix": [[["1", 0]]], "dims": [1, 1]}',
        '{"matrix": [[[1, 0, 7]]], "dims": [1, 1]}',
        '{"matrix": [[[1%s, 0]]], "dims": [1, 1]}' % ("0" * 400),
    ])
    def test_coercible_fields_exit_3(self, runner, tmp_path, text):
        state = tmp_path / "bad.json"
        state.write_text(text)
        result = runner.invoke(main, ["ree", str(state)])
        assert result.exit_code == 3, result.output
        assert "bad state file" in result.output

    def test_axiom_report(self, runner, tmp_path, monkeypatch):
        # a fast harness pass through the CLI would still take minutes;
        # exercise the wiring with a tiny configuration instead
        from qlimits import entanglement

        captured = {}
        original = entanglement.axiom_harness

        def tiny_harness(seed):
            captured["seed"] = seed
            return original(seed)

        # cases of E1-E5 in order: separable, unitaries, instruments, perturbations, pure
        monkeypatch.setattr(entanglement, "_HARNESS_CASES", (2, 2, 1, 1, 2))
        monkeypatch.setattr(entanglement, "axiom_harness", tiny_harness)
        result = invoke(runner, "ree", "--axioms", "--seed", "3")
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["passed"] is True
        assert captured["seed"] == 3
        # --seed is the only spelling: the environment does not move it
        monkeypatch.setenv("QLIMITS_SEED", "7")
        assert invoke(runner, "ree", "--axioms").exit_code == 0
        assert captured["seed"] == 0

    def test_negative_seed_exits_2_before_the_harness(self, runner, tmp_path, monkeypatch):
        from qlimits import entanglement

        def refuse(seed):
            raise AssertionError("the axiom harness ran on a negative seed")

        monkeypatch.setattr(entanglement, "axiom_harness", refuse)
        out = tmp_path / "axioms.json"
        result = runner.invoke(main, ["ree", "--axioms", "--seed", "-1", "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "Invalid value for '--seed'" in result.stderr
        assert result.stdout == ""
        assert not out.exists()

    def test_failed_axiom_check_exits_4_after_writing_the_report(self, runner, tmp_path, monkeypatch):
        from qlimits import entanglement

        report = entanglement.AxiomReport((
            entanglement.AxiomCheck("E1", "separable states", True, 2, 0.0),
            entanglement.AxiomCheck("E3", "monotonicity", False, 1, 0.5),
        ))
        monkeypatch.setattr(entanglement, "axiom_harness", lambda seed: report)
        out = tmp_path / "axioms.json"
        result = runner.invoke(main, ["ree", "--axioms", "--out", str(out)])
        assert result.exit_code == 4
        assert result.stderr == "Error: axiom checks failed: E3\n"
        assert json.loads(out.read_text()) == report.to_json_dict()
        result = runner.invoke(main, ["ree", "--axioms"])
        assert result.exit_code == 4
        assert json.loads(result.stdout) == report.to_json_dict()
