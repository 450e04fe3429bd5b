"""Command-line interface.

Subcommands: ``jc`` (decoherence curves), ``budget`` (feasibility
report), ``swap`` (scenario files), ``exchange`` (telephone-exchange
scenarios) and ``ree`` (relative entropy of entanglement).

Exit codes: 0 success, 2 usage error, 3 input error, 4 verification
mismatch.  Numeric output uses 12 significant digits and is
locale-independent; identical inputs and seeds give byte-identical
output.  Every command opens ``--out`` once, before any work, and writes
through it: a file atomically, by moving a temporary file onto it, and a
device or a pipe in place.

Each command imports only the engine it runs, when it runs: ``jc``
loads ``qlimits.jc``, ``budget`` ``qlimits.feasibility``, ``swap`` and
``exchange`` ``qlimits.catswap``, and ``ree`` ``qlimits.entanglement``.
numpy is loaded by ``jc`` and ``ree`` only, so ``budget``, ``swap`` and
``exchange`` start without it.
"""
from __future__ import annotations

import contextlib
import json
import math
import os
import sys
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING

import click

from . import __version__, _json_list

if TYPE_CHECKING:
    from .core import DensityOperator

EXIT_INPUT_ERROR = 3
EXIT_VERIFY_MISMATCH = 4
# Largest jc time grid; a larger one is a usage error.
MAX_POINTS = 1_000_000
# Largest jc curve, in time points x nonzero weights of the distribution;
# each cell costs 10-30 ns, so a curve at the cap takes about 2 s.  A larger
# one is an input error.
MAX_CELLS = 2**26
# Largest jc --oracle grid, in time points x doublets (points x (n_max + 1)).
# The oracle forms its populations a block of time points at a time, so a
# run just under the cap peaks at 41-69 MB and takes 0.5-1.5 s of CPU.  A
# larger one is an input error.
MAX_ORACLE_CELLS = 2**21
# jc formats and writes its CSV this many rows at a time, so the text it
# holds does not grow with the grid.
CSV_BLOCK_ROWS = 2**14
# swap and exchange write their outcome lists this many outcomes at a time.
JSON_BLOCK_OUTCOMES = 2**12


class InputError(click.ClickException):
    """Bad input file or value; exits with code 3."""

    exit_code = EXIT_INPUT_ERROR


class VerificationMismatch(click.ClickException):
    """A result that failed its cross-check; exits with code 4."""

    exit_code = EXIT_VERIFY_MISMATCH


def _round12(obj):
    """Clamp floats to 12 significant digits for stable JSON output."""
    if isinstance(obj, float):
        return float(format(obj, ".12g")) if math.isfinite(obj) else obj
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


@contextlib.contextmanager
def _output(out: str | None):
    """Yield a ``write(text)`` to ``out``: stdout for ``None`` or ``-``; a
    device or a pipe, opened in place so that it is not replaced by a regular
    file; else one temporary file beside ``out``, moved onto it when the body
    completes and removed by any exception.  Only the destination's own
    open, write and replace errors become InputError."""
    if out is None or out == "-":
        yield lambda text: click.echo(text, nl=False)
        return

    @contextlib.contextmanager
    def destination_errors():
        try:
            yield
        except OSError as exc:
            raise InputError(f"cannot write {out!r}: {exc}") from exc

    path = Path(out)
    if path.is_dir():
        raise InputError(f"cannot write {out!r}: it is a directory")
    in_place = path.exists() and not path.is_file()
    with destination_errors():
        fh = open(out, "w") if in_place else tempfile.NamedTemporaryFile(
            "w", dir=path.parent, prefix=f".{path.name}.", delete=False)

    def write(text: str):
        with destination_errors():
            fh.write(text)

    try:
        try:
            yield write
        except BaseException:
            # a close that flushes into a full disk must not hide the error
            with contextlib.suppress(OSError):
                fh.close()
            raise
        with destination_errors():
            fh.close()
            if not in_place:  # fails e.g. on a directory made at ``out`` meanwhile
                os.replace(fh.name, out)
    except BaseException:
        if not in_place:
            os.unlink(fh.name)
        raise


def _json_text(data) -> str:
    return json.dumps(_round12(data), indent=2, sort_keys=True) + "\n"


# One element of an "outcomes" list as json.dumps(indent=2, sort_keys=True)
# writes it at nesting depth 2; the residual cat sits at depth 3.
_OUTCOME_JSON = """\
    {
      "basis_bits": [
        %s
      ],
      "basis_sign": "%s",
      "probability": %s,
      "residual": %s
    }"""
_RESIDUAL_JSON = """\
{
        "bits": [
          %s
        ],
        "particles": [
          %s
        ],
        "sign": "%s"
      }"""


class _IntLists(dict):
    """Maps a tuple of ints to its items as json.dumps(indent=2) writes them
    ``indent`` spaces deep.  Outcomes share bit and particle tuples, so each
    is joined once per block of outcomes."""

    def __init__(self, indent: int):
        super().__init__()
        self.separator = ",\n" + " " * indent

    def __missing__(self, values):
        text = self[values] = self.separator.join(map(str, values))
        return text


def _outcomes_json(write, coll, spec, outcomes, **extra):
    """Write the outcome document of measuring ``spec`` on ``coll``, with the
    keys of ``extra`` added, as JSON text: byte for byte what
    :func:`_json_text` writes, but the outcome list is filled into a fixed
    template instead of going through the pure-Python indenting encoder,
    and written ``JSON_BLOCK_OUTCOMES`` outcomes at a time.  Cats are never
    empty, so no list in the template is.
    """
    from .catswap import polygon_counts, untouched_cats

    blob = {
        "measure": sorted(spec.selected),
        "polygon_counts": list(polygon_counts(coll, spec)),
        "untouched": [{"particles": list(cat.particles), "bits": list(cat.bits), "sign": cat.sign_char()}
                      for cat in untouched_cats(coll, spec)],
        **extra,
    }
    probability = {p: json.dumps(_round12(p)) for p in {o.probability for o in outcomes}}
    basis_ints, residual_ints = _IntLists(8), _IntLists(10)
    # pieces of text, joined and written once per block of outcomes; the
    # joined lists are kept for a block too, so memory does not grow with
    # the outcome count
    doc = ["{"]
    for key in sorted([*blob, "outcomes"]):
        doc.append(f"\n  {json.dumps(key)}: ")
        if key != "outcomes":
            doc.append(json.dumps(_round12(blob[key]), indent=2, sort_keys=True).replace("\n", "\n  "))
        elif not outcomes:
            doc.append("[]")
        else:
            separator = "[\n"
            for count, o in enumerate(outcomes, start=1):
                residual = o.residual
                if residual is not None:
                    residual = _RESIDUAL_JSON % (
                        residual_ints[residual.bits],
                        residual_ints[residual.particles],
                        residual.sign_char(),
                    )
                doc.append(separator)
                doc.append(_OUTCOME_JSON % (
                    basis_ints[o.basis.bits],
                    o.basis.sign_char(),
                    probability[o.probability],
                    "null" if residual is None else residual,
                ))
                separator = ",\n"
                if count % JSON_BLOCK_OUTCOMES == 0:
                    write("".join(doc))
                    doc.clear()
                    basis_ints.clear()
                    residual_ints.clear()
            doc.append("\n  ]")
        doc.append(",")
    doc[-1] = "\n}\n"
    write("".join(doc))


@click.group()
@click.version_option(version=__version__)
def main():
    """Trapped-ion decoherence, emission budgets, cat-state swapping and
    entanglement measures."""


# ---------------------------------------------------------------------------
# jc
# ---------------------------------------------------------------------------


@main.command("jc")
@click.option("--dist", default="coherent:3.0", show_default=True,
              help="Initial vibrational distribution: fock:N, coherent:X or thermal:X.")
@click.option("--model", type=click.Choice(["di", "vi"]), default="di", show_default=True,
              help="Reservoir coupling: imperfect dipole (di) or trap fluctuation (vi).")
@click.option("--gamma0", type=float, default=0.127, show_default=True,
              help="Normalized base decoherence rate.")
@click.option("--d", "exponent_d", type=float, default=0.4, show_default=True,
              help="Reservoir spectral exponent.")
@click.option("--tmax", type=float, default=25.0, show_default=True,
              help="End of the dimensionless g*t grid.")
@click.option("--points", type=click.IntRange(2, MAX_POINTS), default=501, show_default=True,
              help="Grid points.")
@click.option("--g", "g_rad_s", type=float, default=None,
              help="Rabi scale in rad/s; adds a seconds column t_s.")
@click.option("--oracle", is_flag=True,
              help="Add a column from the exact dephasing propagator.")
@click.option("--out", default="-", show_default=True, help="CSV destination ('-' = stdout).")
def cmd_jc(dist, model, gamma0, exponent_d, tmax, points, g_rad_s, oracle, out):
    """Write the damped Rabi curve P_down(gt) as CSV."""
    import numpy as np

    from .jc import (
        CouplingModel,
        DecoherenceParams,
        VibrationalDistribution,
        oracle_population_lower,
        population_lower,
    )

    try:
        distribution = VibrationalDistribution.parse(dist)
        params = DecoherenceParams(gamma0_tilde=gamma0, d=exponent_d, g=g_rad_s)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if not (math.isfinite(tmax) and tmax > 0):
        raise click.UsageError("need a finite tmax > 0")
    cells = points * (distribution.n_max + 1)
    if oracle and cells > MAX_ORACLE_CELLS:
        raise InputError(
            f"--oracle needs points x (n_max + 1) = {cells} cells, above MAX_ORACLE_CELLS={MAX_ORACLE_CELLS}"
        )
    curve_cells = points * int(np.count_nonzero(distribution.p_n))
    if curve_cells > MAX_CELLS:
        raise InputError(
            f"the curve needs points x nonzero weights = {curve_cells} cells, above MAX_CELLS={MAX_CELLS}"
        )
    coupling = CouplingModel(model)
    grid = np.linspace(0.0, tmax, points)
    columns = {"gt": grid}
    with _output(out) as write:
        try:
            p_down = population_lower(grid, distribution, params, coupling)
            if g_rad_s is not None:
                with np.errstate(over="ignore"):
                    columns["t_s"] = grid / g_rad_s
                if not math.isfinite(columns["t_s"][-1]):
                    raise ValueError("t_s = tmax / g leaves the float range")
                # t_s grows with gt, so the first nonzero gt has the smallest nonzero t_s
                if columns["t_s"][grid > 0.0][0] < sys.float_info.min:
                    raise ValueError("t_s = gt / g leaves the float range at the first nonzero gt")
            columns["p_down"] = p_down
            if oracle:
                columns["p_down_oracle"] = oracle_population_lower(grid, distribution, params, coupling)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        write(",".join(columns) + "\n")
        # '%.12g' % x is format(x, '.12g'), nan, inf and -0.0 included
        row = ",".join(["%.12g"] * len(columns)) + "\n"
        for start in range(0, points, CSV_BLOCK_ROWS):
            cells = np.column_stack([c[start:start + CSV_BLOCK_ROWS] for c in columns.values()])
            write((row * len(cells)) % tuple(cells.ravel().tolist()))


# ---------------------------------------------------------------------------
# budget
# ---------------------------------------------------------------------------


@main.command("budget")
@click.option("--L", "l_list", default="4,40", show_default=True,
              help="Comma-separated input sizes in bits.")
# 500.0 is feasibility.EPSILON_WORKED, written out so that building the
# option table loads no engine; a test keeps the two equal
@click.option("--epsilon", type=float, default=500.0, show_default=True,
              help="Elementary-step count constant.")
@click.option("--eta", type=float, default=1.0, show_default=True, help="Lamb-Dicke parameter.")
@click.option("--ratio", type=float, default=1e-16, show_default=True,
              help="Gamma_22/Omega_12^2 in seconds.")
@click.option("--ions", "ions_path", type=click.Path(), default=None,
              help="JSON file with ion spectroscopic constants.")
@click.option("--N", "n_ops", type=float, default=None,
              help="Operation count for emission probabilities.")
@click.option("--out", default=None, help="Also write the report as JSON to this path.")
def cmd_budget(l_list, epsilon, eta, ratio, ions_path, n_ops, out):
    """Print the spontaneous-emission budget table."""
    from . import feasibility

    try:
        l_values = [int(part) for part in l_list.split(",") if part.strip()]
    except ValueError as exc:
        raise click.UsageError(f"bad --L list: {exc}") from exc
    if not l_values:
        raise click.UsageError("--L needs at least one value")
    ions = ()
    if ions_path is not None:
        # json.load raises RecursionError on nesting deeper than the recursion limit
        try:
            ions = feasibility.load_ion_config(ions_path)
        except (OSError, ValueError, RecursionError) as exc:
            raise InputError(f"bad ion config: {exc}") from exc
    with _output(out) as write:
        try:
            report = feasibility.feasibility_report(
                l_values, epsilon=epsilon, eta=eta, ratio=ratio, ions=ions, n_ops=n_ops
            )
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        click.echo(report.to_text_table())
        if out is not None:
            write(_json_text(report.to_json_dict()))


# ---------------------------------------------------------------------------
# swap / exchange
# ---------------------------------------------------------------------------


def _write_outcomes(write, coll, spec, outcomes, verify, **extra):
    """Check ``outcomes`` against the stabilizer oracle if ``verify``, then
    write the outcome document with the keys of ``extra`` added."""
    from .catswap import check_outcomes

    if verify:
        ok, message = check_outcomes(coll, spec, outcomes)
        if not ok:
            raise VerificationMismatch(f"verification mismatch: {message}")
    _outcomes_json(write, coll, spec, outcomes, **extra)


def _scenario(data):
    """(collection, spec, extra document keys) of a parsed scenario: cat
    states and a measurement, or an exchange, whose document also echoes
    the users and the request and names each user's particle and its
    partner at the hub."""
    from . import catswap

    if not (isinstance(data, dict) and "users" in data):
        return (*catswap.scenario_from_dict(data), {})
    users = _json_list(data["users"], "users", str)
    request = _json_list(data.get("request", []), "request", str)
    result = catswap.telephone_exchange(users, request)
    return result.collection, result.spec, {
        "users": users, "request": request,
        "user_particles": result.user_particles, "hub_particles": result.hub_particles,
    }


@main.command("swap")
@click.argument("scenario", type=click.Path())
@click.option("--verify", is_flag=True, help="Cross-check against the stabilizer oracle.")
@click.option("--out", default="-", show_default=True, help="JSON destination.")
def cmd_swap(scenario, verify, out):
    """Enumerate cat-basis outcomes for a scenario file.

    The file either lists cat states and a measurement ("cats" and
    "measure") or describes an exchange scenario ("users" and
    "request"), which writes what ``exchange`` writes.
    """
    from . import catswap

    with _output(out) as write:
        try:
            with open(scenario, encoding="utf-8") as fh:
                data = json.load(fh)
            coll, spec, extra = _scenario(data)
            outcomes = catswap.enumerate_outcomes(coll, spec)
        except (OSError, ValueError, TypeError, RecursionError) as exc:
            raise InputError(f"bad scenario: {exc}") from exc
        _write_outcomes(write, coll, spec, outcomes, verify, **extra)


@main.command("exchange")
@click.option("--users", required=True, help="Comma-separated user names.")
@click.option("--request", "request_", required=True,
              help="Comma-separated subset of users to entangle.")
@click.option("--verify", is_flag=True, help="Cross-check against the stabilizer oracle.")
@click.option("--out", default="-", show_default=True, help="JSON destination.")
def cmd_exchange(users, request_, verify, out):
    """Entangle a requested user subset via one hub measurement."""
    from . import catswap

    user_list = [u.strip() for u in users.split(",") if u.strip()]
    request_list = [u.strip() for u in request_.split(",") if u.strip()]
    with _output(out) as write:
        try:
            coll, spec, extra = _scenario({"users": user_list, "request": request_list})
            outcomes = catswap.enumerate_outcomes(coll, spec)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        _write_outcomes(write, coll, spec, outcomes, verify, **extra)


# ---------------------------------------------------------------------------
# ree
# ---------------------------------------------------------------------------


def _load_density(path) -> DensityOperator:
    """Read ``{"matrix": [[[re, im], ...], ...], "dims": [...]}``; the schema is
    strict, and an integer cell beyond the float range raises OverflowError."""
    import numpy as np

    from .core import DensityOperator

    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "matrix" not in data or "dims" not in data:
        raise ValueError("input needs 'matrix' ([[re, im] pairs]) and 'dims'")
    dims = _json_list(data["dims"], "dims", int)
    raw = data["matrix"]
    if not isinstance(raw, list) or not all(
        isinstance(row, list) and all(_is_number_pair(cell) for cell in row) for row in raw
    ):
        raise ValueError("matrix must be a list of rows of [re, im] pairs of numbers")
    mat = np.array([[complex(re, im) for re, im in row] for row in raw])
    return DensityOperator(mat, tuple(dims))


def _is_number_pair(cell) -> bool:
    return isinstance(cell, list) and len(cell) == 2 and all(type(x) in (int, float) for x in cell)


@main.command("ree")
@click.argument("state_file", type=click.Path(), required=False)
@click.option("--axioms", is_flag=True, help="Run the E1-E6 axiom harness instead.")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True,
              help="Seed for the random cases of --axioms.")
@click.option("--out", default="-", show_default=True, help="JSON destination.")
def cmd_ree(state_file, axioms, seed, out):
    """Relative entropy of entanglement of a density operator."""
    from .core import nats_to_bits
    from .entanglement import axiom_harness, relative_entropy_of_entanglement

    if not axioms and state_file is None:
        raise click.UsageError("provide a state file or --axioms")
    with _output(out) as write:
        if axioms:
            report = axiom_harness(seed)
            write(_json_text(report.to_json_dict()))
        else:
            try:
                sigma = _load_density(state_file)
            except (OSError, ValueError, TypeError, OverflowError, RecursionError) as exc:
                raise InputError(f"bad state file: {exc}") from exc
            try:
                result = relative_entropy_of_entanglement(sigma)
            except ValueError as exc:
                raise InputError(str(exc)) from exc
            write(_json_text({
                "value_nats": result.value,
                "value_bits": nats_to_bits(result.value),
                "converged": result.converged,
                "restarts": result.restarts_used,
            }))
    # the report is written in full before a failed check exits
    if axioms and not report.passed:
        failed = ", ".join(c.axiom for c in report.checks if not c.passed)
        raise VerificationMismatch(f"axiom checks failed: {failed}")


if __name__ == "__main__":
    main()
