"""The benchmark's three workloads: seeded inputs, ops and output checks.

A workload is an endless generator of cycles; a cycle is a list of
groups; a group is one or more ops plus a check on their outputs.  Every
cycle of a workload has the same shape, and the seed changes only the
values fed to it, so throughput is comparable across seeds.  Inputs
depend on ``(seed, cycle index)`` only, so a fresh generator yields the
same cycles again.

Reference values are computed here with the benchmark's own numpy
code, never with the library under test: closed forms for REE
(Vedral & Plenio, PRA 57, 1619 (1998)), the doublet decay law A_n, the
analytic P_down, the feasibility formulas and the swapping outcome
counts.  Checks run outside the timed ops.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

LN2 = math.log(2.0)
REE_TOL = 1e-3       # REE acceptance tolerance (nats), as in the acceptance suite
# The solver returns an upper bound; on separable 2x3 mixtures it reaches
# up to 1.1e-3 (2.5% of inputs), so that class is gated here and its
# worst value is reported on its own.
REE_2X3_SEPARABLE_TOL = 5e-3
CC_TOL = 1e-4        # classical correlations vs mutual information
RATE_TOL = 0.02      # relative deviation of the oracle decay rate from A_n
UNDAMPED_TOL = 1e-8  # undamped oracle vs the exact unitary
CURVE_TOL = 1e-7     # P_down vs the closed-form sum (truncation tail is 1e-8)
FORMULA_RTOL = 1e-9  # CLI numbers are printed with 12 significant digits

# Tolerances and closed forms the checks compare against; the self-test
# corrupts one of them to prove a wrong output is counted as failed.
REFERENCE = {"ln2": LN2}


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    props: dict = field(default_factory=dict)


@dataclass
class Group:
    ops: list
    check: Callable[[list, "Tally"], bool]


class Tally:
    """Accuracy margins and input properties gathered by the checks of one pass."""

    def __init__(self):
        self.worst: dict[str, float] = {}
        self.values: dict[str, list] = {}

    def max(self, name, value):
        value = float(value)
        self.worst[name] = max(self.worst.get(name, -math.inf), value)

    def add(self, name, value):
        self.values.setdefault(name, []).append(value)

    def mean(self, name):
        values = self.values.get(name)
        return float(np.mean(values)) if values else 0.0

    def get(self, name):
        value = self.worst.get(name)
        return 0.0 if value is None else value


# ---------------------------------------------------------------------------
# Own numerics for inputs and references
# ---------------------------------------------------------------------------


def _ket(rng, d):
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return z / np.linalg.norm(z)


def _ginibre_state(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = z @ z.conj().T
    return m / np.trace(m).real


def _product_mixture(rng, d_a, d_b, terms):
    weights = rng.dirichlet(np.ones(terms))
    m = np.zeros((d_a * d_b, d_a * d_b), dtype=complex)
    for w in weights:
        v = np.kron(_ket(rng, d_a), _ket(rng, d_b))
        m += w * np.outer(v, v.conj())
    return m


def _bell_projector():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / math.sqrt(2.0)
    return np.outer(v, v.conj())


def _werner(fidelity):
    p = (4.0 * fidelity - 1.0) / 3.0
    return p * _bell_projector() + (1.0 - p) * np.eye(4) / 4.0


def _werner_ree(fidelity):
    f = fidelity
    return REFERENCE["ln2"] + f * math.log(f) + (1.0 - f) * math.log(1.0 - f)


def _entropy(m):
    lam = np.linalg.eigvalsh(m)
    lam = lam[lam > 1e-12]
    return float(-(lam * np.log(lam)).sum())


def _marginals(m, d_a, d_b):
    t = m.reshape(d_a, d_b, d_a, d_b)
    return np.einsum("ijkj->ik", t), np.einsum("ijil->jl", t)


def _mutual_information(m, d_a, d_b):
    rho_a, rho_b = _marginals(m, d_a, d_b)
    return _entropy(rho_a) + _entropy(rho_b) - _entropy(m)


def _partial_transpose_spectrum(m, d_a, d_b):
    t = m.reshape(d_a, d_b, d_a, d_b).transpose(0, 3, 2, 1).reshape(d_a * d_b, -1)
    return np.linalg.eigvalsh(t)


def _is_ppt(m, d_a, d_b):
    return bool(_partial_transpose_spectrum(m, d_a, d_b).min() >= -1e-12)


def _formation(m):
    """Entanglement of formation of a two-qubit state (Wootters, PRL 80, 2245 (1998)), in nats."""
    yy = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])
    lam = np.sqrt(np.clip(np.linalg.eigvals(m @ yy @ m.conj() @ yy).real, 0.0, None))
    lam = np.sort(lam)[::-1]
    concurrence = max(0.0, lam[0] - lam[1] - lam[2] - lam[3])
    x = 0.5 * (1.0 + math.sqrt(1.0 - concurrence**2))
    return -sum(p * math.log(p) for p in (x, 1.0 - x) if p > 0.0)


def _unitary(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _psd_sqrt(m):
    vals, vecs = np.linalg.eigh(m)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


def _local_instrument(rng, dims):
    """Two-outcome instrument on one random party: {U_i sqrt(E_i)} with E_1 + E_2 = 1."""
    party = int(rng.integers(0, 2))
    d = dims[party]
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    effect = z.conj().T @ z
    effect *= rng.uniform(0.2, 0.8) / np.linalg.eigvalsh(effect)[-1]
    kraus = [_unitary(rng, d) @ _psd_sqrt(e) for e in (effect, np.eye(d) - effect)]
    other = np.eye(dims[1 - party])
    return [np.kron(k, other) if party == 0 else np.kron(other, k) for k in kraus]


# ---------------------------------------------------------------------------
# ree-mix
# ---------------------------------------------------------------------------


# Ops call the library through its module attributes, so that the
# tracer's wrappers, installed after set-up, see the calls.


def ree_mix_cycles(seed):
    from qlimits import entanglement
    from qlimits.core import DensityOperator

    seen: set = set()

    def state(m, dims, eig_tol=1e-10):
        m = np.asarray(m, dtype=complex)
        m = 0.5 * (m + m.conj().T)
        m = m / np.trace(m).real
        return DensityOperator(m, dims, eig_tol=eig_tol)

    def ree_op(kind, rho, cls):
        d_a, d_b = rho.dims
        key = rho.matrix.tobytes()
        props = {
            "ppt": _is_ppt(rho.matrix, d_a, d_b),
            "pure": bool(np.linalg.eigvalsh(rho.matrix)[-1] > 1.0 - 1e-9),
            "two_qubit": rho.dims == (2, 2),
            "repeated": key in seen,
        }
        seen.add(key)
        return Op(kind, lambda: entanglement.relative_entropy_of_entanglement(rho), dict(props, cls=cls))

    def single(op, check):
        return Group([op], lambda outs, tally: check(outs[0], tally))

    def record_solver(result, tally):
        tally.add("restarts", result.restarts_used)
        tally.add("iterations", result.iterations)

    def near(name, expected):
        def check(result, tally):
            record_solver(result, tally)
            err = result.value - expected
            tally.max(name, abs(err))
            return abs(err) <= REE_TOL
        return check

    def separable_check(result, tally):
        record_solver(result, tally)
        tally.max("accuracy.ree.separable_max", result.value)
        return result.value <= REE_TOL

    bell = state(_bell_projector(), (2, 2))
    bell_pair = entanglement.pair_state(bell, bell)

    for c in itertools.count():
        rng = np.random.default_rng([seed, c])
        groups = []
        groups.append(single(ree_op("ree.bell", bell, "bell"),
                             near("accuracy.ree.bell_err", REFERENCE["ln2"])))
        f = float(rng.uniform(0.55, 0.98))
        groups.append(single(ree_op("ree.werner", state(_werner(f), (2, 2)), "werner"),
                             near("accuracy.ree.werner_err", _werner_ree(f))))
        sep = state(_product_mixture(rng, 2, 2, int(rng.integers(4, 9))), (2, 2))
        groups.append(single(ree_op("ree.separable", sep, "separable"), separable_check))
        psi = _ket(rng, 4)
        pure = state(np.outer(psi, psi.conj()), (2, 2))
        groups.append(single(ree_op("ree.pure", pure, "pure"),
                             near("accuracy.ree.pure_err", _entropy(_marginals(pure.matrix, 2, 2)[0]))))
        # one PPT and one NPT full-rank state per cycle keeps the class mix fixed
        ppt = _ginibre_state(rng, 4)
        while not _is_ppt(ppt, 2, 2):
            ppt = _ginibre_state(rng, 4)
        groups.append(single(ree_op("ree.mixed_ppt", state(ppt, (2, 2)), "mixed_ppt"),
                             separable_check))
        npt = _ginibre_state(rng, 4)
        while _is_ppt(npt, 2, 2):
            npt = _ginibre_state(rng, 4)
        # E_R is positive on NPT states and at most the mutual information (the
        # product of the marginals is separable) and the entanglement of formation
        upper = min(_mutual_information(npt, 2, 2), _formation(npt))

        def npt_check(result, tally, upper=upper):
            record_solver(result, tally)
            return 0.0 < result.value <= upper + REE_TOL

        groups.append(single(ree_op("ree.mixed_npt", state(npt, (2, 2)), "mixed_npt"), npt_check))
        # E3: expected entanglement after a local instrument cannot exceed the input's
        base = bell if c % 2 == 0 else state(_ginibre_state(rng, 4), (2, 2))
        kraus = _local_instrument(rng, (2, 2))
        branches = []
        for k in kraus:
            out = k @ base.matrix @ k.conj().T
            branches.append((float(np.trace(out).real), state(out, (2, 2), eig_tol=1e-9)))
        base_cls = "bell" if c % 2 == 0 else ("mixed_ppt" if _is_ppt(base.matrix, 2, 2) else "mixed_npt")
        ops = [ree_op("ree.e3_base", base, base_cls)]
        ops += [ree_op("ree.branch", rho, "branch") for _, rho in branches]

        def e3_check(outs, tally, probs=tuple(p for p, _ in branches)):
            for result in outs:
                record_solver(result, tally)
            gain = sum(p * r.value for p, r in zip(probs, outs[1:])) - outs[0].value
            tally.max("accuracy.ree.e3_worst_gain", gain)
            return gain <= REE_TOL

        groups.append(Group(ops, e3_check))
        for _ in range(2):
            m = _ginibre_state(rng, 4)
            mi = _mutual_information(m, 2, 2)

            def cc_check(result, tally, mi=mi):
                err = abs(result.value - mi)
                tally.max("accuracy.cc.mi_err", err)
                return err <= CC_TOL

            rho = state(m, (2, 2))
            groups.append(single(Op("cc", lambda rho=rho: entanglement.classical_correlations(rho), {"cls": "cc"}),
                                 cc_check))
        if c % 2 == 0:
            psi = _ket(rng, 6)
            qt = state(np.outer(psi, psi.conj()), (2, 3))
            qt_check = near("accuracy.ree.pure_err", _entropy(_marginals(qt.matrix, 2, 3)[0]))
        else:
            qt = state(_product_mixture(rng, 2, 3, int(rng.integers(6, 11))), (2, 3))

            def qt_check(result, tally):
                record_solver(result, tally)
                tally.max("accuracy.ree.qubit_qutrit_separable_max", result.value)
                return result.value <= REE_2X3_SEPARABLE_TOL
        groups.append(single(ree_op("ree.qubit_qutrit", qt, "qubit_qutrit"), qt_check))
        groups.append(single(ree_op("ree.bell_pair", bell_pair, "bell_pair"),
                             near("accuracy.ree.bell_pair_err", 2.0 * REFERENCE["ln2"])))
        yield groups


REE_CLASSES = ("bell", "werner", "separable", "pure", "mixed_ppt", "mixed_npt", "branch",
               "qubit_qutrit", "bell_pair")


def ree_mix_inputs(ops):
    ree = [op for op in ops if op.kind != "cc"]
    n = max(len(ree), 1)
    return {
        "input.ree.ppt_share": sum(op.props["ppt"] for op in ree) / n,
        "input.ree.pure_share": sum(op.props["pure"] for op in ree) / n,
        "input.ree.two_qubit_share": sum(op.props["two_qubit"] for op in ree) / n,
        "input.ree.repeated_share": sum(op.props["repeated"] for op in ree) / n,
    }


# ---------------------------------------------------------------------------
# oracle-check
# ---------------------------------------------------------------------------

ORACLE_SPAN = 4.0     # dimensionless g*t covered by each oracle trajectory
ORACLE_POINTS = 40
CURVE_POINTS = 20001
SWAP_SLOTS = ((10, 6), (12, 8), (14, 10)) * 2  # (particles, measured) per catswap op
CURVES_PER_CYCLE = 16
GAMMA_BANDS = ((0.05, 0.06), (0.12, 0.135), (0.28, 0.30))


def _rate(model, n, gamma0, d):
    exponent = (d + 1.0) / 2.0 if model == "di" else (d - 1.0) / 2.0
    return gamma0 * (n + 1) ** exponent


def _doublet_term(n, a_n, t):
    disc = 4.0 * (n + 1) - a_n * a_n
    if disc > 0:
        return np.cos(np.sqrt(disc) * t) * np.exp(-a_n * t)
    b = np.sqrt(-disc)
    return 0.5 * (np.exp((b - a_n) * t) + np.exp(-(b + a_n) * t))


def _weights(kind, mean):
    """Vibrational weights to a 1e-14 tail, computed independently of the library."""
    if kind == "thermal":
        r = mean / (1.0 + mean)
        n = np.arange(int(math.log(1e-14) / math.log(r)) + 1)
        return r**n / (1.0 + mean)
    n = np.arange(int(mean + 12.0 * math.sqrt(mean) + 20.0))
    return np.exp(-mean + n * math.log(mean) - np.array([math.lgamma(k + 1.0) for k in n]))


def _p_down(t, kind, mean, model, gamma0, d):
    p = _weights(kind, mean)
    acc = np.zeros_like(t)
    for n, w in enumerate(p):
        if w > 0.0:
            acc += w * _doublet_term(n, _rate(model, n, gamma0, d), t)
    return 0.5 * (1.0 + acc)


def _dressed(n, n_levels):
    plus = np.zeros(2 * n_levels, dtype=complex)
    minus = np.zeros(2 * n_levels, dtype=complex)
    plus[n_levels + n] = minus[n_levels + n] = 1.0 / math.sqrt(2.0)
    plus[n + 1] = 1.0 / math.sqrt(2.0)
    minus[n + 1] = -1.0 / math.sqrt(2.0)
    return plus, minus


def _random_scenario(rng, n_particles, n_measured):
    """Random cats of 1-5 particles with random ids, bits and signs, in the scenario-file format."""
    ids = rng.permutation(40)[:n_particles].tolist()
    cats = []
    while ids:
        size = int(rng.integers(1, min(5, len(ids)) + 1))
        particles, ids = ids[:size], ids[size:]
        cats.append({"particles": particles, "bits": rng.integers(0, 2, size=size).tolist(),
                     "sign": "+" if rng.random() < 0.5 else "-"})
    everyone = sorted(p for cat in cats for p in cat["particles"])
    return {"cats": cats, "measure": sorted(rng.permutation(everyone)[:n_measured].tolist())}


def oracle_check_cycles(seed):
    from qlimits import catswap, jc
    from qlimits.jc import CouplingModel, DecoherenceParams, VibrationalDistribution

    models = {"di": CouplingModel.IMPERFECT_DIPOLE, "vi": CouplingModel.TRAP_FLUCTUATION}
    d_bands = {"di": (0.35, 0.45), "vi": (2.3, 2.5)}
    grid = np.linspace(0.0, ORACLE_SPAN, ORACLE_POINTS)
    for c in itertools.count():
        rng = np.random.default_rng([seed, c])
        groups = []
        for n, model in ((n, model) for n in range(6) for model in ("di", "vi")):
            gamma0 = float(rng.uniform(*GAMMA_BANDS[(n + c + (model == "vi")) % 3]))
            d = float(rng.uniform(*d_bands[model]))
            params = DecoherenceParams(gamma0, d)
            dist = VibrationalDistribution.fock(n)
            a_n = _rate(model, n, gamma0, d)

            def call(dist=dist, params=params, model=models[model]):
                return jc.dephasing_oracle_trajectory(dist, params, model, grid)

            def check(outs, tally, n=n, a_n=a_n):
                states = outs[0]
                n_levels = states[0].dims[1]
                plus, minus = _dressed(n, n_levels)
                mags = [abs(plus.conj() @ s.matrix @ minus) for s in states]
                rate = -np.polyfit(grid, np.log(mags), 1)[0]
                deviation = abs(rate - a_n) / a_n
                tally.max("accuracy.jc.rate_dev", deviation)
                p_oracle = np.array([np.trace(s.matrix[:n_levels, :n_levels]).real for s in states])
                p_exact = 0.5 * (1.0 + _doublet_term(n, a_n, grid))
                tally.max("accuracy.jc.p_down_diff", np.abs(p_oracle - p_exact).max())
                return deviation < RATE_TOL

            groups.append(Group([Op("jc.oracle", call)], check))

        for n in (2 * c % 6, (2 * c + 1) % 6):
            t_final = float(rng.uniform(3.0, 5.0))
            undamped = (VibrationalDistribution.fock(n), DecoherenceParams(0.0, 0.4))

            def undamped_call(args=undamped, t_final=t_final):
                return jc.dephasing_oracle_trajectory(*args, models["di"], [t_final])

            def undamped_check(outs, tally, n=n, t_final=t_final):
                rho = outs[0][0].matrix
                n_levels = rho.shape[0] // 2
                h = np.zeros((2 * n_levels, 2 * n_levels))
                for k in range(n_levels - 1):
                    h[n_levels + k, k + 1] = h[k + 1, n_levels + k] = math.sqrt(k + 1)
                evals, vecs = np.linalg.eigh(h)
                u = (vecs * np.exp(-1j * evals * t_final)) @ vecs.conj().T
                err = float(np.abs(rho - np.outer(u[:, n + 1], u[:, n + 1].conj())).max())
                tally.max("accuracy.jc.undamped_err", err)
                return err < UNDAMPED_TOL

            groups.append(Group([Op("jc.oracle_undamped", undamped_call)], undamped_check))

        for j in range(CURVES_PER_CYCLE):
            kind = "coherent" if j % 2 == 0 else "thermal"
            # narrow bands keep each curve's cost (it grows with n_max) alike across seeds
            mean = float(rng.uniform(45.0, 55.0) if kind == "coherent" else rng.uniform(12.0, 13.0))
            model = "di" if (j // 2) % 2 == 0 else "vi"
            gamma0 = float(rng.uniform(0.05, 0.3))
            d = float(rng.uniform(*d_bands[model]))
            tmax = float(rng.uniform(30.0, 50.0))
            dist = VibrationalDistribution.coherent(mean) if kind == "coherent" \
                else VibrationalDistribution.thermal(mean)
            params = DecoherenceParams(gamma0, d)
            sample = np.sort(rng.choice(CURVE_POINTS, size=16, replace=False))

            # grids are built per call so that a cycle holds no large arrays
            def call(tmax=tmax, dist=dist, params=params, model=models[model]):
                return jc.population_lower(np.linspace(0.0, tmax, CURVE_POINTS), dist, params, model)

            def check(outs, tally, tmax=tmax, sample=sample, args=(kind, mean, model, gamma0, d)):
                curve = np.asarray(outs[0])
                t = np.linspace(0.0, tmax, CURVE_POINTS)
                expected = _p_down(t[sample], *args)
                err = float(np.abs(curve[sample] - expected).max())
                tally.max("accuracy.jc.curve_err", err)
                return curve.shape == t.shape and err < CURVE_TOL

            groups.append(Group([Op("jc.population_lower", call, {"n_max": dist.n_max})], check))

        for particles, measured in SWAP_SLOTS:
            coll, spec = catswap.scenario_from_dict(_random_scenario(rng, particles, measured))

            def call(coll=coll, spec=spec):
                return catswap.verify_against_oracle(coll, spec)

            def check(outs, tally):
                ok = bool(outs[0][0])
                tally.add("swap_mismatch", 0 if ok else 1)
                return ok

            groups.append(Group([Op("catswap.verify", call, {"particles": particles})], check))
        yield groups


def oracle_check_inputs(ops):
    n_max = [op.props["n_max"] for op in ops if "n_max" in op.props]
    particles = [op.props["particles"] for op in ops if "particles" in op.props]
    return {
        "input.jc.n_max_mean": float(np.mean(n_max)) if n_max else 0.0,
        "input.jc.n_max_max": float(max(n_max, default=0)),
        "input.catswap.particles_mean": float(np.mean(particles)) if particles else 0.0,
        "input.catswap.particles_max": float(max(particles, default=0)),
    }


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------

EXCHANGE_LARGE = 13   # users in the large exchange, all of them requested
JC_BROAD_POINTS = 20001


class SubprocessCLI:
    """Runs ``python -m qlimits.cli`` as a child process, like a user at a shell."""

    def __init__(self, env, cwd):
        self.env = env
        self.cwd = cwd

    def __call__(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "qlimits.cli", *argv],
            cwd=self.cwd, env=self.env, capture_output=True, timeout=120,
        )
        return proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8", "replace")


class InProcessCLI:
    """Runs the same click entry point inside this process, for tracing."""

    def __init__(self):
        import click

        from qlimits import cli

        self.click = click
        self.main = cli.main

    def __call__(self, argv):
        import contextlib
        import io

        out = io.StringIO()
        err = io.StringIO()
        code = 0
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                self.main.main(args=list(argv), prog_name="qlimits", standalone_mode=False)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except self.click.ClickException as exc:
                exc.show()
                code = exc.exit_code
        return code, out.getvalue(), err.getvalue()


def _close(a, b, rtol=FORMULA_RTOL):
    return abs(a - b) <= rtol * abs(b)


def _budget_rows(text):
    rows = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[0].isdigit():
            rows[int(parts[0])] = (float(parts[1]), float(parts[2]))
    return rows


def _check_budget_rows(rows, l_values, epsilon=500.0, eta=1.0, ratio=1e-16):
    if sorted(rows) != sorted(l_values):
        return False
    for L, (t_bound, gamma_bound) in rows.items():
        t_ref = 400.0 * math.pi**2 * (epsilon / eta) ** 2 * ratio * L**8
        g_ref = 1.0 / (ratio * 2000.0 * math.pi**2 * (epsilon / eta) ** 2 * L**9)
        if not (_close(t_bound, t_ref) and _close(gamma_bound, g_ref)):
            return False
    return True


def _gate_error(L, ion, eta=1.0):
    return (math.sqrt(320.0 * L / ion["beta"]) * math.pi * ion["Gamma33"] / (ion["Delta13"] * eta)
            * (ion["omega12"] / ion["omega13"]) ** 1.5)


def _outcome_counts(cats, measured):
    """Closed-form outcome count and probability of a cat-basis measurement."""
    touched = [particles for particles in cats if set(particles) & measured]
    rest = any(set(particles) - measured for particles in touched)
    t = len(touched) if rest else len(touched) - 1
    return 2**t, 0.5**t


def _check_outcomes(blob, cats, measured, tally):
    count, probability = _outcome_counts(cats, measured)
    outcomes = blob["outcomes"]
    tally.add("outcomes", len(outcomes))
    return (len(outcomes) == count
            and all(abs(o["probability"] - probability) <= 1e-12 for o in outcomes)
            and sorted(blob["measure"]) == sorted(measured))


def _csv_columns(text):
    lines = text.splitlines()
    header = lines[0].split(",")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, data


def cli_session_cycles(seed, workdir, runner):
    os.makedirs(workdir, exist_ok=True)
    for c in itertools.count():
        rng = np.random.default_rng([seed, c])
        groups = []

        def cli_op(cmd, argv, check):
            def op_check(outs, tally):
                code, stdout, stderr = outs[0]
                tally.add("stdout_bytes", len(stdout.encode("utf-8")))
                if code != 0:
                    print(f"qlimits {' '.join(argv)} exited {code}: {stderr.strip()[-300:]}",
                          file=sys.stderr)
                    return False
                return check(stdout, tally)
            return Group([Op("cli." + cmd, lambda: runner(argv))], op_check)

        def budget_default(stdout, tally):
            rows = _budget_rows(stdout)
            return _check_budget_rows(rows, [4, 40]) and abs(rows[4][0] / 6.4e-3 - 1.0) < 0.02

        groups.append(cli_op("budget", ["budget"], budget_default))

        ions = []
        for i in range(int(rng.integers(1, 3))):
            omega12 = float(rng.uniform(1.5e15, 2.5e15))
            ions.append({
                "name": f"ion{i}", "Gamma22": float(rng.uniform(5e7, 2e8)),
                "Gamma33": float(rng.uniform(5e6, 2e7)), "Delta2": float(rng.uniform(5e14, 2e15)),
                "Delta13": float(rng.uniform(5e14, 2e15)), "omega12": omega12,
                "omega13": omega12 * float(rng.uniform(1.5, 2.5)), "beta": float(rng.uniform(0.5, 1.5)),
            })
        ion_path = os.path.join(workdir, f"ions_{c}.json")
        with open(ion_path, "w", encoding="utf-8") as fh:
            json.dump(ions, fh)
        n_ops = float(10.0 ** rng.uniform(5.0, 7.0))
        band = list(range(75, 81))

        def budget_band(stdout, tally, ions=ions, n_ops=n_ops):
            rows = _budget_rows(stdout)
            if not _check_budget_rows(rows, band):
                return False
            if not any(1.0e8 <= rows[L][0] <= 1.6e8 for L in band):
                return False
            rates = {}
            p2 = {}
            for line in stdout.splitlines():
                parts = line.split()
                if line.startswith("  L=") and len(parts) >= 3 and parts[2].startswith("r="):
                    rates[(int(parts[0][2:]), parts[1])] = float(parts[2][2:])
                elif ": N=" in line and "p2=" in line:
                    name = line.split(":")[0].strip()
                    p2[name] = float(line.split("p2=")[1].split(",")[0])
            if len(rates) != len(band) * len(ions) or len(p2) != len(ions):
                return False
            for ion in ions:
                if not _close(p2[ion["name"]], 8.0 * ion["Gamma22"] * n_ops / ion["Delta2"]):
                    return False
                if not all(_close(rates[(L, ion["name"])], _gate_error(L, ion)) for L in band):
                    return False
            return True

        groups.append(cli_op("budget", ["budget", "--L", ",".join(map(str, band)), "--ions", ion_path,
                                        "--N", repr(n_ops)], budget_band))

        def jc_check(spec, model, gamma0, d, rows):
            kind, mean = spec.split(":")

            def check(stdout, tally):
                header, data = _csv_columns(stdout)
                if header != ["gt", "p_down"] or data.shape[0] != rows:
                    return False
                pick = np.linspace(0, rows - 1, 64).astype(int)
                expected = _p_down(data[pick, 0], kind, float(mean), model, gamma0, d)
                err = float(np.abs(data[pick, 1] - expected).max())
                tally.max("accuracy.jc.curve_err", err)
                return err < CURVE_TOL
            return check

        groups.append(cli_op("jc", ["jc"], jc_check("coherent:3.0", "di", 0.127, 0.4, 501)))
        mean = float(rng.uniform(10.0, 15.0))
        model = "di" if c % 2 == 0 else "vi"
        gamma0 = float(rng.uniform(0.05, 0.3))
        d = float(rng.uniform(0.35, 0.45) if model == "di" else rng.uniform(2.3, 2.5))
        tmax = float(rng.uniform(30.0, 50.0))
        spec = f"thermal:{mean!r}"
        groups.append(cli_op("jc", ["jc", "--dist", spec, "--model", model, "--gamma0", repr(gamma0),
                                    "--d", repr(d), "--tmax", repr(tmax),
                                    "--points", str(JC_BROAD_POINTS)],
                             jc_check(spec, model, gamma0, d, JC_BROAD_POINTS)))

        scenario = _random_scenario(rng, 12, 7)
        scenario_path = os.path.join(workdir, f"scenario_{c}.json")
        with open(scenario_path, "w", encoding="utf-8") as fh:
            json.dump(scenario, fh)
        cats = [tuple(cat["particles"]) for cat in scenario["cats"]]

        def swap_check(stdout, tally, cats=cats, measured=set(scenario["measure"])):
            return _check_outcomes(json.loads(stdout), cats, measured, tally)

        groups.append(cli_op("swap", ["swap", scenario_path, "--verify"], swap_check))

        for n_users, n_request, verify in ((int(rng.integers(4, 6)), 3, True),
                                           (EXCHANGE_LARGE, EXCHANGE_LARGE, False)):
            names = [f"u{int(x)}" for x in rng.choice(10_000, size=n_users, replace=False)]
            request = sorted(rng.choice(names, size=n_request, replace=False).tolist())
            argv = ["exchange", "--users", ",".join(names), "--request", ",".join(request)]
            if verify:
                argv.append("--verify")

            def exchange_check(stdout, tally, names=names, request=request):
                blob = json.loads(stdout)
                # wheel layout: user m shares the Bell pair (2m-1, 2m) with the hub
                pairs = [(2 * m - 1, 2 * m) for m in range(1, len(names) + 1)]
                hubs = {name: (b if m == 0 else a) for m, (name, (a, b)) in enumerate(zip(names, pairs))}
                measured = {hubs[name] for name in request}
                return (blob["hub_particles"] == hubs
                        and _check_outcomes(blob, pairs, measured, tally))

            groups.append(cli_op("exchange", argv, exchange_check))

        if c % 2 == 0:
            psi = _ket(rng, 4)
            m = np.outer(psi, psi.conj())
            expected = _entropy(_marginals(m, 2, 2)[0])
        else:
            f = float(rng.uniform(0.55, 0.98))
            m = _werner(f)
            expected = _werner_ree(f)
        state_path = os.path.join(workdir, f"state_{c}.json")
        with open(state_path, "w", encoding="utf-8") as fh:
            json.dump({"matrix": [[[z.real, z.imag] for z in row] for row in m.tolist()],
                       "dims": [2, 2]}, fh)

        def ree_check(stdout, tally, expected=expected):
            err = abs(json.loads(stdout)["value_nats"] - expected)
            tally.max("accuracy.ree.cli_err", err)
            return err <= REE_TOL

        groups.append(cli_op("ree", ["ree", state_path], ree_check))
        yield groups


WORKLOADS = ("ree-mix", "oracle-check", "cli-session")


def cycles(name, seed, workdir, runner=None):
    """The cycle generator of workload ``name``; nothing is built until a cycle is asked for."""
    if name == "ree-mix":
        return ree_mix_cycles(seed)
    if name == "oracle-check":
        return oracle_check_cycles(seed)
    return cli_session_cycles(seed, workdir, runner)
