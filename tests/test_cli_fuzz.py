"""Property test: every input the CLI is handed ends with a documented exit code.

Scenario, state and ion files, budget numbers and jc curve parameters are
drawn by hypothesis, from near-valid documents to arbitrary JSON, and run
in process.  The run must exit 0, 2, 3 or 4 and never end in a traceback.
Collections stay small (at most 12 particles, 10 users), states stay on
closed-form routes and jc grids at 40 points, so no case nears a cap or a
long search.
"""
import json
import math

import pytest
from click.testing import CliRunner

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qlimits.cli import main  # noqa: E402

# no example database, and the same cases on every run
FUZZ = settings(database=None, derandomize=True, deadline=None, max_examples=60)

numbers = (st.integers(-3, 40) | st.integers() | st.floats() | st.booleans())
json_values = st.recursive(
    st.none() | numbers | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
small_ints = st.lists(st.integers(-1, 30), max_size=4)
signs = st.sampled_from(["+", "-", 1, -1, 0, 2, True, 1.0, "x"])
cats = st.fixed_dictionaries({
    "particles": small_ints | json_values,
    "bits": st.lists(st.integers(-1, 2), max_size=4) | json_values,
    "sign": signs | json_values,
})
scenarios = (
    st.fixed_dictionaries({"cats": st.lists(cats, max_size=3) | json_values,
                           "measure": small_ints | json_values})
    | st.fixed_dictionaries({"users": st.lists(st.text(max_size=3), max_size=10) | json_values},
                            optional={"request": st.lists(st.text(max_size=3), max_size=10) | json_values})
    | json_values
)


@st.composite
def states(draw):
    """A diagonal (PPT, so closed-form) state on small dims, or arbitrary JSON."""
    # a diagonal state on at most 6 levels is PPT; a larger one would be searched
    dims = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3) | st.sampled_from([[2, 3], [3, 2]])
                | json_values)
    if not isinstance(dims, list) or not all(type(d) is int and d > 0 for d in dims):
        return {"matrix": draw(json_values), "dims": dims}
    d = 1
    for k in dims:
        d *= k
    weights = draw(st.lists(st.floats(0, 1), min_size=d, max_size=d))
    total = sum(weights) or 1.0
    cell = [0.0, 0.0] if draw(st.booleans()) else draw(json_values)
    matrix = [[[weights[i] / total, 0.0] if i == j else cell for j in range(d)] for i in range(d)]
    return {"matrix": matrix, "dims": dims}


ion_numbers = numbers | st.sampled_from([1e200, 1e-300, float("nan"), float("inf"), 10**400]) | json_values
ions = st.lists(
    st.fixed_dictionaries({"name": st.text(min_size=1, max_size=4) | json_values,
                           **{k: ion_numbers for k in ("Gamma22", "Gamma33", "Delta2", "Delta13",
                                                        "omega12", "omega13", "beta")}}),
    max_size=2,
) | json_values
number_texts = (st.floats().map(repr) | st.integers().map(str)
                | st.sampled_from(["1e-300", "1e300", "0", "-1", "nan", "x", ""]))


@pytest.fixture(scope="module")
def case_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "case.json"


def run(*args):
    result = CliRunner().invoke(main, [str(a) for a in args])
    assert result.exit_code in {0, 2, 3, 4}, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), repr(result.exception)
    return result


def write(path, document):
    # json.dumps writes NaN and Infinity, which json.load reads back
    path.write_text(json.dumps(document), encoding="utf-8")


@FUZZ
@given(scenario=scenarios, verify=st.booleans())
@example(scenario={"cats": [{"particles": [float("inf"), 2], "bits": [0, 0], "sign": "+"}],
                   "measure": [2]}, verify=False)
@example(scenario={"cats": [{"particles": [1, 2], "bits": [0, 0], "sign": "+"}], "measure": "12"},
         verify=True)
@example(scenario={"users": "ABC", "request": "AB"}, verify=False)
def test_swap_files(case_file, scenario, verify):
    write(case_file, scenario)
    # the symbolic engine and the stabilizer oracle agree on every accepted scenario
    assert run("swap", case_file, *(["--verify"] if verify else [])).exit_code != 4


@FUZZ
@given(state=states())
@example(state={"matrix": [[[1, 0]]], "dims": [float("inf")]})
@example(state={"matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]], "dims": [2.9, 1]})
@example(state={"matrix": [[[10**400, 0]]], "dims": [1, 1]})
def test_ree_files(case_file, state):
    write(case_file, state)
    run("ree", case_file)


@FUZZ
@given(ion_list=ions, n_ops=number_texts)
@example(ion_list=[{"name": "X", "Gamma22": 1, "Gamma33": 1e200, "Delta2": 1, "Delta13": 1,
                    "omega12": 1, "omega13": 1, "beta": 1}], n_ops="1e6")
@example(ion_list=[{"name": "X", "Gamma22": float("nan"), "Gamma33": 1, "Delta2": 1,
                    "Delta13": float("inf"), "omega12": 1, "omega13": 1, "beta": 1}], n_ops="1")
def test_budget_ion_files(case_file, ion_list, n_ops):
    write(case_file, ion_list)
    run("budget", "--L", "4,40", "--ions", case_file, "--N", n_ops)


@FUZZ
@given(l_list=st.lists(st.integers(-2, 10**40).map(str), max_size=3).map(",".join),
       epsilon=number_texts, eta=number_texts, ratio=number_texts)
@example(l_list="4,40", epsilon="500", eta="1e-300", ratio="1e-16")
@example(l_list="1" + "0" * 36, epsilon="500", eta="1", ratio="1e-16")
@example(l_list="4,40", epsilon="500", eta="1e-10", ratio="1e300")
@example(l_list="1", epsilon="1e-300", eta="1", ratio="1e-16")
def test_budget_numbers(l_list, epsilon, eta, ratio):
    run("budget", "--L", l_list, "--epsilon", epsilon, "--eta", eta, "--ratio", ratio)


jc_numbers = number_texts | st.sampled_from(["inf", "-inf", "-1e300", "1e-320", "700", "-700"])
dist_specs = (st.integers(-1, 60).map("fock:{}".format)
              | st.builds("{}:{}".format, st.sampled_from(["coherent", "thermal", "fock"]), jc_numbers)
              | st.text(max_size=8))


@FUZZ
@given(dist=dist_specs, gamma0=jc_numbers, d=jc_numbers, tmax=jc_numbers, g=st.none() | jc_numbers,
       oracle=st.booleans(), points=st.integers(2, 40))
@example(dist="coherent:3.0", gamma0="0.127", d="700", tmax="25", g=None, oracle=True, points=3)
@example(dist="coherent:3.0", gamma0="0.127", d="0.4", tmax="1e308", g=None, oracle=False, points=3)
@example(dist="coherent:3.0", gamma0="0.127", d="0.4", tmax="25", g="1e-320", oracle=False, points=3)
@example(dist="fock:2", gamma0="1e154", d="0.4", tmax="25", g=None, oracle=False, points=3)
@example(dist="fock:2", gamma0="1e154", d="0.4", tmax="1e300", g=None, oracle=True, points=3)
def test_jc_curves(dist, gamma0, d, tmax, g, oracle, points):
    args = ["jc", "--dist", dist, "--gamma0", gamma0, "--d", d, "--tmax", tmax, "--points", points]
    args += [] if g is None else ["--g", g]
    result = run(*args, *(["--oracle"] if oracle else []))
    if result.exit_code != 0:
        return
    header, *rows = result.output.splitlines()
    names = header.split(",")
    assert len(rows) == points
    for row in rows:
        for name, cell in zip(names, row.split(",")):
            if name.startswith("p_down"):
                value = float(cell)
                assert math.isfinite(value) and -1e-12 <= value <= 1.0 + 1e-12, (name, row)
