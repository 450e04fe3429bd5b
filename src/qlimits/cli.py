"""Command-line interface.

Subcommands: ``jc`` (decoherence curves), ``budget`` (feasibility
report), ``swap`` (scenario files), ``exchange`` (telephone-exchange
scenarios) and ``ree`` (relative entropy of entanglement).

Exit codes: 0 success, 2 usage error, 3 input error, 4 verification
mismatch.  Numeric output uses 12 significant digits and is
locale-independent; identical inputs and seeds give byte-identical
output.  Files are written atomically.
"""
from __future__ import annotations

import json
import math
import os
import sys
import tempfile
from pathlib import Path

import click
import numpy as np

from . import __version__, catswap, feasibility
from .core import DensityOperator
from .entanglement import HarnessConfig, axiom_harness, relative_entropy_of_entanglement
from .jc import (
    CouplingModel,
    DecoherenceParams,
    VibrationalDistribution,
    oracle_population_lower,
    population_lower,
)

EXIT_INPUT_ERROR = 3
EXIT_VERIFY_MISMATCH = 4
# Largest jc time grid; a larger one is a usage error.
MAX_POINTS = 1_000_000


class InputError(click.ClickException):
    """Bad input file or value; exits with code 3."""

    exit_code = EXIT_INPUT_ERROR


def _round12(obj):
    """Clamp floats to 12 significant digits for stable JSON output."""
    if isinstance(obj, float):
        return float(format(obj, ".12g")) if math.isfinite(obj) else obj
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _write_output(text: str, out: str | None):
    if out is None or out == "-":
        click.echo(text, nl=not text.endswith("\n"))
        return
    path = Path(out)
    try:
        handle = tempfile.NamedTemporaryFile(
            "w", dir=path.parent or Path("."), prefix=f".{path.name}.", delete=False
        )
    except OSError as exc:
        raise InputError(f"cannot write {out!r}: {exc}") from exc
    try:
        with handle as fh:
            fh.write(text)
        os.replace(handle.name, path)
    except BaseException:
        os.unlink(handle.name)
        raise


def _dump_json(data, out):
    _write_output(json.dumps(_round12(data), indent=2, sort_keys=True) + "\n", out)


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
    is joined once."""

    def __init__(self, indent: int):
        super().__init__()
        self.separator = ",\n" + " " * indent

    def __missing__(self, values):
        text = self[values] = self.separator.join(map(str, values))
        return text


def _dump_outcomes_json(blob, outcomes, out):
    """Write ``blob`` with its "outcomes" entry replaced by ``outcomes``.

    The text is byte for byte what :func:`_dump_json` writes for the
    document that :func:`catswap.outcomes_to_jsonable` builds, but the
    outcome list is filled into a fixed template instead of going
    through the pure-Python indenting encoder.  Cats are never empty, so
    no list in the template is.
    """
    probability = {p: json.dumps(_round12(p)) for p in {o.probability for o in outcomes}}
    basis_ints, residual_ints = _IntLists(8), _IntLists(10)
    # one list of pieces, joined once, so the document is copied only once
    doc = ["{"]
    for key in sorted(blob):
        doc.append(f"\n  {json.dumps(key)}: ")
        if key != "outcomes":
            doc.append(json.dumps(_round12(blob[key]), indent=2, sort_keys=True).replace("\n", "\n  "))
        elif not outcomes:
            doc.append("[]")
        else:
            separator = "[\n"
            for o in outcomes:
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
            doc.append("\n  ]")
        doc.append(",")
    doc[-1] = "\n}\n"
    _write_output("".join(doc), out)


seed_option = click.option(
    "--seed",
    type=int,
    default=0,
    envvar="QLIMITS_SEED",
    show_default=True,
    help="Seed for the random cases of --axioms (QLIMITS_SEED is the fallback).",
)


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
    try:
        distribution = VibrationalDistribution.parse(dist)
        params = DecoherenceParams(gamma0_tilde=gamma0, d=exponent_d, g=g_rad_s)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if not (math.isfinite(tmax) and tmax > 0):
        raise click.UsageError("need a finite tmax > 0")
    coupling = CouplingModel(model)
    grid = np.linspace(0.0, tmax, points)
    p_down = population_lower(grid, distribution, params, coupling)
    columns = {"gt": grid}
    if g_rad_s is not None:
        columns["t_s"] = grid / g_rad_s
    columns["p_down"] = p_down
    if oracle:
        columns["p_down_oracle"] = oracle_population_lower(grid, distribution, params, coupling)
    # '%.12g' % x is format(x, '.12g'), nan, inf and -0.0 included
    row = ",".join(["%.12g"] * len(columns))
    body = "\n".join([row] * points) % tuple(np.column_stack(list(columns.values())).ravel().tolist())
    _write_output(",".join(columns) + "\n" + body + "\n", out)


# ---------------------------------------------------------------------------
# budget
# ---------------------------------------------------------------------------


@main.command("budget")
@click.option("--L", "l_list", default="4,40", show_default=True,
              help="Comma-separated input sizes in bits.")
@click.option("--epsilon", type=float, default=feasibility.EPSILON_WORKED, show_default=True,
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
    try:
        l_values = [int(part) for part in l_list.split(",") if part.strip()]
    except ValueError as exc:
        raise click.UsageError(f"bad --L list: {exc}") from exc
    if not l_values:
        raise click.UsageError("--L needs at least one value")
    ions = ()
    if ions_path is not None:
        try:
            ions = feasibility.load_ion_config(ions_path)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            raise InputError(f"bad ion config: {exc}") from exc
    try:
        report = feasibility.feasibility_report(
            l_values, epsilon=epsilon, eta=eta, ratio=ratio, ions=ions, n_ops=n_ops
        )
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    click.echo(report.to_text_table())
    if out is not None:
        _dump_json(report.to_json_dict(), out)


# ---------------------------------------------------------------------------
# swap / exchange
# ---------------------------------------------------------------------------


def _verify_or_die(coll, spec):
    try:
        ok, message = catswap.verify_against_oracle(coll, spec)
    except ValueError as exc:  # above the dense oracle's particle limit
        raise InputError(f"cannot verify: {exc}") from exc
    if not ok:
        click.echo(f"verification mismatch: {message}", err=True)
        sys.exit(EXIT_VERIFY_MISMATCH)


@main.command("swap")
@click.argument("scenario", type=click.Path())
@click.option("--verify", is_flag=True, help="Cross-check against the dense oracle.")
@click.option("--out", default="-", show_default=True, help="JSON destination.")
def cmd_swap(scenario, verify, out):
    """Enumerate cat-basis outcomes for a scenario file.

    The file either lists cat states and a measurement ("cats" and
    "measure") or describes an exchange scenario ("users" and
    "request").
    """
    try:
        with open(scenario, encoding="utf-8") as fh:
            data = json.load(fh)
        if isinstance(data, dict) and "users" in data:
            result = catswap.telephone_exchange(data["users"], data.get("request", []))
            coll = result.collection
            spec = catswap.MeasurementSpec.of(result.measured)
            outcomes = result.outcomes
        else:
            coll, spec = catswap.scenario_from_dict(data)
            outcomes = catswap.enumerate_outcomes(coll, spec)
    except (OSError, ValueError, TypeError, json.JSONDecodeError) as exc:
        raise InputError(f"bad scenario: {exc}") from exc
    if verify:
        _verify_or_die(coll, spec)
    _dump_outcomes_json(catswap.outcomes_to_jsonable(coll, spec, ()), outcomes, out)


@main.command("exchange")
@click.option("--users", required=True, help="Comma-separated user names.")
@click.option("--request", "request_", required=True,
              help="Comma-separated subset of users to entangle.")
@click.option("--verify", is_flag=True, help="Cross-check against the dense oracle.")
@click.option("--out", default="-", show_default=True, help="JSON destination.")
def cmd_exchange(users, request_, verify, out):
    """Entangle a requested user subset via one hub measurement."""
    user_list = [u.strip() for u in users.split(",") if u.strip()]
    request_list = [u.strip() for u in request_.split(",") if u.strip()]
    try:
        result = catswap.telephone_exchange(user_list, request_list)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    spec = catswap.MeasurementSpec.of(result.measured)
    if verify:
        _verify_or_die(result.collection, spec)
    blob = catswap.outcomes_to_jsonable(result.collection, spec, ())
    blob["users"] = list(result.users)
    blob["request"] = list(result.request)
    blob["user_particles"] = dict(result.user_particles)
    blob["hub_particles"] = dict(result.hub_particles)
    _dump_outcomes_json(blob, result.outcomes, out)


# ---------------------------------------------------------------------------
# ree
# ---------------------------------------------------------------------------


def _load_density(path) -> DensityOperator:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "matrix" not in data or "dims" not in data:
        raise ValueError("input needs 'matrix' ([[re, im] pairs]) and 'dims'")
    raw = data["matrix"]
    try:
        mat = np.array([[complex(cell[0], cell[1]) for cell in row] for row in raw])
    except (TypeError, IndexError, KeyError) as exc:
        raise ValueError(f"matrix entries must be [re, im] pairs: {exc!r}") from exc
    return DensityOperator(mat, tuple(int(d) for d in data["dims"]))


@main.command("ree")
@click.argument("state_file", type=click.Path(), required=False)
@click.option("--axioms", is_flag=True, help="Run the E1-E6 axiom harness instead.")
@seed_option
@click.option("--out", default="-", show_default=True, help="JSON destination.")
def cmd_ree(state_file, axioms, seed, out):
    """Relative entropy of entanglement of a density operator."""
    if axioms:
        report = axiom_harness(config=HarnessConfig(seed=seed))
        _dump_json(report.to_json_dict(), out)
        if not report.passed:
            sys.exit(EXIT_VERIFY_MISMATCH)
        return
    if state_file is None:
        raise click.UsageError("provide a state file or --axioms")
    try:
        sigma = _load_density(state_file)
    except (OSError, ValueError, TypeError, json.JSONDecodeError) as exc:
        raise InputError(f"bad state file: {exc}") from exc
    try:
        result = relative_entropy_of_entanglement(sigma)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _dump_json(
        {
            "value_nats": result.value,
            "value_bits": result.value_bits,
            "converged": result.converged,
            "restarts": result.restarts_used,
        },
        out,
    )


if __name__ == "__main__":
    main()
