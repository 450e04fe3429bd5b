"""Tests for the damped Jaynes-Cummings module."""
import functools
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.constants import hbar, k as k_B

import qlimits
from qlimits.core import DensityOperator, PureState
from qlimits.jc import (
    MAX_LEVELS,
    CouplingModel,
    DecoherenceParams,
    OverdampedError,
    VibrationalDistribution,
    _modal_amplitudes,
    _oracle_modes,
    calibrated_kappa0,
    coherent_frequency,
    damping_rate_dimensional,
    damping_rate_normalized,
    dephasing_oracle_trajectory,
    dressed_coherence,
    dressed_states,
    fit_rate_exponent,
    mean_reservoir_occupation,
    oracle_population_lower,
    population_lower,
    rate_exponent,
)

DI = CouplingModel.IMPERFECT_DIPOLE
VI = CouplingModel.TRAP_FLUCTUATION


def oracle_blocks(dist, params, model, grid):
    """The oracle's rho(t) on (|down,n+1>, |up,n>) for each doublet n, shape
    (T, n_max + 1, 2, 2), from its modes, and the motional truncation."""
    t, evals, vecs, coeffs, n_levels = _oracle_modes(dist, params, model, grid)
    blocks = np.einsum("ij,tkj->tki", vecs, _modal_amplitudes(evals, coeffs, t))
    return blocks.reshape(t.size, -1, 2, 2), n_levels


def reference_hamiltonian(n_levels, g=1.0):
    """Exchange Hamiltonian built independently from kron of ladder operators."""
    s_plus = np.zeros((2, 2))
    s_plus[1, 0] = 1.0  # |up><down| with spin order (down, up)
    a = np.zeros((n_levels, n_levels))
    for n in range(1, n_levels):
        a[n - 1, n] = math.sqrt(n)
    return g * (np.kron(s_plus, a) + np.kron(s_plus.T, a.T))


def unitary_evolution(h, rho0, t):
    """Closed-form e^{-iHt} rho0 e^{iHt} via eigendecomposition."""
    evals, vecs = np.linalg.eigh(h)
    phase = np.exp(-1j * evals * t)
    u = (vecs * phase) @ vecs.conj().T
    return u @ rho0 @ u.conj().T


def initial_state(dist, n_levels):
    """Weight p_n on the spin-down member |down, n+1> of doublet n."""
    rho = np.zeros((2 * n_levels, 2 * n_levels), dtype=complex)
    for n, p in enumerate(dist.p_n):
        rho[n + 1, n + 1] = p
    return rho


def fit_log_slope(t, values):
    """Slope of ln(values) against t."""
    t = np.asarray(t, float)
    y = np.log(np.asarray(values, float))
    slope, _ = np.polyfit(t, y, 1)
    return slope


def envelope_decay_rate(t, p_down):
    """Decay rate of the oscillation envelope of a P_down(t) curve."""
    signal = np.abs(np.asarray(p_down) - 0.5)
    peaks = [
        i
        for i in range(1, len(signal) - 1)
        if signal[i] >= signal[i - 1] and signal[i] >= signal[i + 1] and signal[i] > 1e-6
    ]
    assert len(peaks) >= 4, "not enough envelope peaks to fit"
    return -fit_log_slope(np.asarray(t)[peaks], signal[peaks])


class TestDressedStates:
    def test_ground_doublet(self):
        plus, minus = dressed_states(0, 2)
        h = reference_hamiltonian(plus.dims[1])
        np.testing.assert_allclose(h @ plus.amplitudes, plus.amplitudes, atol=1e-12)
        assert abs(np.vdot(plus.amplitudes, minus.amplitudes)) < 1e-12

    def test_sqrt_law_n3(self):
        plus, _ = dressed_states(3, 5)
        h = reference_hamiltonian(plus.dims[1])
        np.testing.assert_allclose(h @ plus.amplitudes, 2.0 * plus.amplitudes, atol=1e-12)

    @pytest.mark.parametrize("n", range(6))
    def test_eigenvalue_relation(self, n):
        plus, minus = dressed_states(n, n_levels=10)
        h = reference_hamiltonian(10, g=1.3)
        lam = 1.3 * math.sqrt(n + 1)
        assert np.abs(h @ plus.amplitudes - lam * plus.amplitudes).max() < 1e-10
        assert np.abs(h @ minus.amplitudes + lam * minus.amplitudes).max() < 1e-10

    def test_truncation_too_small(self):
        with pytest.raises(ValueError, match="truncation"):
            dressed_states(4, n_levels=5)


class TestMeanReservoirOccupation:
    def params(self, temperature, g=2 * math.pi * 1e5):
        return DecoherenceParams(gamma0_tilde=0.1, d=0.4, g=g, temperature=temperature)

    def test_low_temperature_limit(self):
        assert mean_reservoir_occupation(0, self.params(1e-9)) == 0.0

    def test_ln2_point(self):
        # 2 hbar g sqrt(n+1) / kB T = ln 2  ->  occupation exactly 1
        g = 2 * math.pi * 1e5
        n = 2
        t_star = 2 * hbar * g * math.sqrt(n + 1) / (k_B * math.log(2.0))
        assert mean_reservoir_occupation(n, self.params(t_star)) == pytest.approx(1.0, rel=1e-12)

    def test_high_temperature_series(self):
        g = 2 * math.pi * 1e5
        for n in (0, 3, 8):
            x = 2 * hbar * g * math.sqrt(n + 1) / k_B
            t_hot = 100.0 * x  # kB T = 100 * 2 hbar g sqrt(n+1)
            occ = mean_reservoir_occupation(n, self.params(t_hot))
            assert occ * (1.0 / 100.0) == pytest.approx(1.0, rel=0.01)

    def test_monotone_in_temperature(self):
        vals = [mean_reservoir_occupation(1, self.params(t)) for t in (1e-7, 1e-6, 1e-5)]
        assert vals[0] < vals[1] < vals[2]

    def test_missing_temperature(self):
        with pytest.raises(ValueError, match="temperature"):
            mean_reservoir_occupation(0, DecoherenceParams(0.1, 0.4, g=1e5))


@pytest.mark.parametrize("field, value", [
    ("gamma0_tilde", math.nan), ("gamma0_tilde", math.inf), ("gamma0_tilde", -0.1),
    ("d", math.nan), ("d", math.inf), ("d", -math.inf),
    ("g", math.nan), ("g", math.inf), ("temperature", math.nan), ("temperature", math.inf),
])
def test_decoherence_params_reject_bad_values(field, value):
    kwargs = {"gamma0_tilde": 0.127, "d": 0.4, field: value}
    with pytest.raises(ValueError, match=field):
        DecoherenceParams(**kwargs)


class TestNormalizedRates:
    def test_n0_is_gamma0_exactly(self):
        p = DecoherenceParams(0.127, 0.4)
        assert damping_rate_normalized(DI, 0, p) == 0.127
        assert damping_rate_normalized(VI, 0, DecoherenceParams(0.127, 2.4)) == 0.127

    def test_di_hand_value(self):
        p = DecoherenceParams(0.127, 0.4)
        assert damping_rate_normalized(DI, 3, p) == pytest.approx(0.127 * 4**0.7, rel=1e-12)
        assert damping_rate_normalized(DI, 3, p) == pytest.approx(0.33516, abs=2e-5)

    def test_vi_matches_di_at_shifted_exponent(self):
        di = damping_rate_normalized(DI, 3, DecoherenceParams(0.127, 0.4))
        vi = damping_rate_normalized(VI, 3, DecoherenceParams(0.127, 2.4))
        assert vi == pytest.approx(di, rel=1e-12)

    def test_monotone_in_n(self):
        p = DecoherenceParams(0.2, 0.4)
        rates = [damping_rate_normalized(DI, n, p) for n in range(6)]
        assert all(a < b for a, b in zip(rates, rates[1:]))

    @pytest.mark.parametrize("gamma0, d, n", [
        (0.127, 700.0, 7),   # (n+1)**350.5 raises OverflowError
        (1e300, 40.0, 3000),  # a finite power times gamma0 rounds to inf
    ])
    def test_rate_beyond_float_range(self, gamma0, d, n):
        with pytest.raises(ValueError, match="float range"):
            damping_rate_normalized(DI, n, DecoherenceParams(gamma0, d))


class TestDimensionalRates:
    def params(self):
        g = 2 * math.pi * 1e5
        return DecoherenceParams(0.127, 0.4, g=g, temperature=1e-4)

    def test_di_vi_ratio_for_shared_kappa(self):
        p = self.params()
        kappa0 = calibrated_kappa0(DI, p)
        for n in range(6):
            di = damping_rate_dimensional(DI, n, p, kappa0=kappa0)
            vi = damping_rate_dimensional(VI, n, p, kappa0=kappa0)
            assert di / vi == pytest.approx(2.0 * (n + 1), rel=1e-12)

    def test_zero_temperature_floor(self):
        # n_res -> 0: A_0(di) = kappa(0)/2
        p = DecoherenceParams(0.127, 0.4, g=2 * math.pi * 1e5, temperature=1e-12)
        assert damping_rate_dimensional(DI, 0, p, kappa0=3.0) == pytest.approx(1.5, rel=1e-12)

    @pytest.mark.parametrize("model,d", [(DI, 0.4), (VI, 2.4)])
    def test_high_temperature_calibration_identity(self, model, d):
        # calibrated dimensional rates, divided by g, recover the
        # normalized power law at high reservoir temperature
        g = 2 * math.pi * 1e5
        t_hot = 1000.0 * 2 * hbar * g * 3.0 / k_B  # kB T = 1000 * (2 hbar g sqrt(9))
        p = DecoherenceParams(0.127, d, g=g, temperature=t_hot)
        for n in range(9):
            dimensional = damping_rate_dimensional(model, n, p) / g
            normalized = damping_rate_normalized(model, n, p)
            assert dimensional == pytest.approx(normalized, rel=0.01)

    def test_calibration_anchors_n0(self):
        p = self.params()
        for model in (DI, VI):
            assert damping_rate_dimensional(model, 0, p) / p.g == pytest.approx(0.127, rel=1e-12)


class TestCoherentFrequency:
    def test_undamped_limit(self):
        assert coherent_frequency(0, 1.0, 0.0) == pytest.approx(2.0, rel=1e-15)
        assert coherent_frequency(3, 2.0, 0.0) == pytest.approx(8.0, rel=1e-15)

    def test_overdamped_boundary(self):
        with pytest.raises(OverdampedError):
            coherent_frequency(0, 1.0, 2.0)
        with pytest.raises(OverdampedError):
            coherent_frequency(2, 1.0, 5.0)

    def test_hand_value(self):
        assert coherent_frequency(0, 1.0, 0.254) == pytest.approx(math.sqrt(4.0 - 0.254**2), rel=1e-15)


class TestVibrationalDistribution:
    def test_fock(self):
        d = VibrationalDistribution.fock(3)
        assert d.n_max == 3
        assert d.p_n[3] == 1.0

    def test_coherent_moments(self):
        d = VibrationalDistribution.coherent(3.0)
        assert d.p_n.sum() == pytest.approx(1.0, abs=1e-8)
        mean = (np.arange(d.n_max + 1) * d.p_n).sum()
        assert mean == pytest.approx(3.0, abs=1e-6)

    def test_thermal_tail(self):
        d = VibrationalDistribution.thermal(2.0)
        assert 1.0 - d.p_n.sum() < 1e-8
        ratio = d.p_n[1] / d.p_n[0]
        assert ratio == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_coherent_large_mean(self):
        # exp(-800) underflows; the weights must still sum to 1
        d = VibrationalDistribution.coherent(800.0)
        assert 1.0 - d.p_n.sum() <= 1e-8
        mean = (np.arange(d.n_max + 1) * d.p_n).sum()
        assert mean == pytest.approx(800.0, abs=1e-3)

    @pytest.mark.parametrize("kind", ["coherent", "thermal"])
    def test_huge_mean_rejected_quickly(self, kind):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="MAX_LEVELS"):
            getattr(VibrationalDistribution, kind)(1e9)
        assert time.perf_counter() - start < 1.0

    def test_truncation_cap(self):
        assert VibrationalDistribution.fock(MAX_LEVELS - 1).n_max == MAX_LEVELS - 1
        with pytest.raises(ValueError, match="MAX_LEVELS"):
            VibrationalDistribution.fock(MAX_LEVELS)
        # the cap sits above the thermal truncation at mean 15, below the one at mean 300
        assert VibrationalDistribution.thermal(15.0).n_max < MAX_LEVELS
        with pytest.raises(ValueError, match="MAX_LEVELS"):
            VibrationalDistribution.thermal(300.0)
        for bad in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ValueError, match="finite"):
                VibrationalDistribution.coherent(bad)

    def test_parse(self):
        assert VibrationalDistribution.parse("fock:2").kind == "fock"
        assert VibrationalDistribution.parse("coherent:3.0").parameter == 3.0
        with pytest.raises(ValueError):
            VibrationalDistribution.parse("coherent")
        with pytest.raises(ValueError):
            VibrationalDistribution.parse("squeezed:1")


class TestPopulationLower:
    def test_initial_value(self):
        # the weights are renormalized over the truncation, so the dropped
        # tail mass leaves no gap at t = 0
        p = DecoherenceParams(0.127, 0.4)
        for spec in ("fock:2", "coherent:3.0", "coherent:50", "thermal:12.5", "thermal:200"):
            val = population_lower([0.0], VibrationalDistribution.parse(spec), p, DI)[0]
            assert val == pytest.approx(1.0, abs=1e-15), spec

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_pure_rabi_oscillation(self, n):
        p = DecoherenceParams(0.0, 0.4)
        t_zero = math.pi / (2.0 * math.sqrt(n + 1))
        grid = np.array([0.0, t_zero / 2, t_zero])
        vals = population_lower(grid, VibrationalDistribution.fock(n), p, DI)
        expected = 0.5 * (1.0 + np.cos(2.0 * math.sqrt(n + 1) * grid))
        np.testing.assert_allclose(vals, expected, atol=1e-12)
        assert vals[-1] == pytest.approx(0.0, abs=1e-12)

    def test_collapse_curve_shape(self):
        # coherent 3.0, d=0.4, gamma0=0.127: strong early oscillation,
        # envelope visibly gone by g t ~ 15
        p = DecoherenceParams(0.127, 0.4)
        dist = VibrationalDistribution.coherent(3.0)
        t = np.linspace(0.0, 25.0, 2001)
        vals = population_lower(t, dist, p, DI)
        early = np.abs(vals[t <= 3.0] - 0.5).max()
        late = np.abs(vals[t >= 12.0] - 0.5).max()
        assert early > 0.3
        assert late < 0.06

    def test_bounded_for_any_damping(self):
        rng = np.random.default_rng(5)
        t = np.linspace(0.0, 30.0, 400)
        for _ in range(25):
            gamma0 = float(rng.uniform(0.0, 5.0))  # includes overdamped doublets
            d = float(rng.uniform(-1.0, 3.0))
            model = DI if rng.random() < 0.5 else VI
            dist = VibrationalDistribution.thermal(float(rng.uniform(0.0, 4.0)))
            vals = population_lower(t, dist, DecoherenceParams(gamma0, d), model)
            assert (vals >= -1e-12).all() and (vals <= 1.0 + 1e-12).all()

    def test_empty_grid(self):
        with pytest.raises(ValueError, match="empty"):
            population_lower([], VibrationalDistribution.fock(0), DecoherenceParams(0.1, 0.4), DI)

    @pytest.mark.parametrize("grid", [[0.0, math.nan], [0.0, math.inf], [-1.0, 0.0]])
    def test_grid_must_be_finite_and_nonnegative(self, grid):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            population_lower(grid, VibrationalDistribution.fock(0), DecoherenceParams(0.1, 0.4), DI)

    def test_rabi_phase_beyond_float_range(self):
        # B_0 t = 2 * 1e308 overflows; A_0 t alone only rounds e^(-A t) to 0
        with pytest.raises(ValueError, match="B_n"):
            population_lower([0.0, 1e308], VibrationalDistribution.fock(0), DecoherenceParams(0.127, 0.4), DI)

    @pytest.mark.parametrize("n", [0, 2, 7])
    def test_overdamped_doublet_against_mpmath(self, n):
        # VI with d = 1 makes A_n = gamma0 exactly; from 2.1 sqrt(n+1) the
        # doublet is overdamped, up to A_n = 1e300 where A_n^2 overflows and
        # the largest double, where A_n + b does too
        mpmath = pytest.importorskip("mpmath")
        dist = VibrationalDistribution.fock(n)
        tau = np.array([0.0, 1e-3, 0.5, 3.0, 12.5, 25.0])
        for a_n in [*np.geomspace(2.1 * math.sqrt(n + 1), 1e300, 60), sys.float_info.max]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = population_lower(tau, dist, DecoherenceParams(float(a_n), 1.0), VI)
            assert got[0] == 1.0
            with mpmath.workdps(60):
                a = mpmath.mpf(float(a_n))
                b = mpmath.sqrt(a * a - 4 * (n + 1))
                for t, value in zip(tau, got):
                    t = mpmath.mpf(float(t))
                    term = (mpmath.exp((b - a) * t) + mpmath.exp(-(b + a) * t)) / 2
                    expected = (1 + term) / 2
                    assert abs(value - expected) <= 1e-12 * expected, (a_n, t)

    @staticmethod
    def reference_population_lower(tau, dist, params, model):
        # one fresh array per level and operation, as before the work buffers
        acc = np.zeros_like(tau)
        for n, p in enumerate(dist.p_n):
            if p == 0.0:
                continue
            a_n = damping_rate_normalized(model, n, params)
            disc = 4.0 * (n + 1) - a_n * a_n
            if disc > 0.0:
                term = np.cos(math.sqrt(disc) * tau) * np.exp(-a_n * tau)
            else:
                root = 2.0 * math.sqrt(n + 1)
                b = math.sqrt(max(a_n - root, 0.0)) * math.sqrt(a_n + root)
                term = 0.5 * (np.exp(-4.0 * (n + 1) / (a_n + b) * tau) + np.exp(-a_n * tau + -b * tau))
            acc += p * term
        return 0.5 * (1.0 + acc)

    @pytest.mark.parametrize("dist, gamma0, d, model, tmax, points", [
        ("thermal:12.5", 0.2, 2.4, VI, 40.0, 20001),
        ("coherent:50", 0.127, 0.4, DI, 25.0, 20001),
        ("coherent:3", 0.05, 0.4, VI, 60.0, 1001),
        ("thermal:4", 3.0, 1.5, DI, 30.0, 997),  # overdamped doublets
        ("fock:7", 0.3, 0.0, DI, 10.0, 1),
    ])
    def test_work_buffers_are_bit_identical(self, dist, gamma0, d, model, tmax, points):
        dist = VibrationalDistribution.parse(dist)
        params = DecoherenceParams(gamma0, d)
        tau = np.linspace(0.0, tmax, points)
        got = population_lower(tau, dist, params, model)
        assert np.array_equal(got, self.reference_population_lower(tau, dist, params, model))


class TestDephasingOracle:
    def test_no_damping_matches_closed_form(self):
        params = DecoherenceParams(0.0, 0.4)
        dist = VibrationalDistribution.fock(2)
        t = 7.0
        rho = dephasing_oracle_trajectory(dist, params, DI, [t])[0]
        n_levels = rho.dims[1]
        expected = unitary_evolution(
            reference_hamiltonian(n_levels), initial_state(dist, n_levels), t
        )
        assert np.abs(rho.matrix - expected).max() < 1e-8

    def test_energy_conserved_without_damping(self):
        params = DecoherenceParams(0.0, 0.4)
        dist = VibrationalDistribution.fock(3)
        states = dephasing_oracle_trajectory(dist, params, DI, np.linspace(0.0, 10.0, 6))
        h = reference_hamiltonian(states[0].dims[1])
        energies = [float(np.trace(s.matrix @ h).real) for s in states]
        assert max(energies) - min(energies) < 1e-9

    def test_trace_and_positivity(self):
        params = DecoherenceParams(0.2, 0.4)
        dist = VibrationalDistribution.coherent(1.0)
        rho = dephasing_oracle_trajectory(dist, params, DI, [5.0])[0]
        # the trajectory's states are checked together with the tolerances
        # of one DensityOperator: Hermiticity and unit trace within 1e-10,
        # positivity within the default eig_tol of 1e-10
        assert abs(np.trace(rho.matrix).real - 1.0) < 1e-10

    def test_fock0_coherence_decay_rate(self):
        params = DecoherenceParams(0.127, 0.4)
        dist = VibrationalDistribution.fock(0)
        a_0 = damping_rate_normalized(DI, 0, params)
        grid = np.linspace(0.0, 2.0 / a_0, 60)
        states = dephasing_oracle_trajectory(dist, params, DI, grid)
        mags = [abs(dressed_coherence(s, 0)) for s in states]
        rate = -fit_log_slope(grid, mags)
        assert rate == pytest.approx(a_0, rel=0.02)

    def test_envelope_rates_agree_with_analytic(self):
        # one spot check here; the full n<=5 sweep runs in acceptance
        params = DecoherenceParams(0.127, 0.4)
        n = 2
        dist = VibrationalDistribution.fock(n)
        a_n = damping_rate_normalized(DI, n, params)
        t = np.linspace(0.0, 3.0 / a_n, 3000)
        analytic = population_lower(t, dist, params, DI)
        numeric = oracle_population_lower(t, dist, params, DI)
        rate_analytic = envelope_decay_rate(t, analytic)
        rate_numeric = envelope_decay_rate(t, numeric)
        assert rate_analytic == pytest.approx(a_n, rel=0.05)
        assert rate_numeric == pytest.approx(rate_analytic, rel=0.05)

    def test_bad_time_grids_rejected(self):
        params = DecoherenceParams(0.1, 0.4)
        dist = VibrationalDistribution.fock(0)
        with pytest.raises(ValueError, match="empty"):
            dephasing_oracle_trajectory(dist, params, DI, [])
        with pytest.raises(ValueError, match="finite"):
            dephasing_oracle_trajectory(dist, params, DI, [0.0, math.nan])
        with pytest.raises(ValueError, match="nonnegative"):
            dephasing_oracle_trajectory(dist, params, DI, [1.0, -0.5])

    @pytest.mark.parametrize("spec", ["fock:3", "thermal:1.5"])
    def test_unsorted_grid_gives_the_sorted_states_permuted(self, spec):
        # the grid needs no order: each time is propagated on its own
        dist = VibrationalDistribution.parse(spec)
        params = DecoherenceParams(0.12, 0.4)
        grid = np.linspace(0.0, 25.0, 30)
        order = np.random.default_rng(3).permutation(grid.size)
        states = dephasing_oracle_trajectory(dist, params, DI, grid)
        shuffled = dephasing_oracle_trajectory(dist, params, DI, grid[order])
        for i, state in zip(order, shuffled):
            assert np.array_equal(state.matrix, states[i].matrix)
            assert state.eig_tol == states[i].eig_tol
        assert np.array_equal(oracle_population_lower(grid[order], dist, params, DI),
                              oracle_population_lower(grid, dist, params, DI)[order])

    def test_grids_and_rates_at_the_float_range(self):
        dist = VibrationalDistribution.fock(3)
        # the Rabi phase 2 sqrt(n+1) t, or a block sum of 2 A_n, beyond the doubles
        with pytest.raises(ValueError, match="Rabi phase"):
            oracle_population_lower([0.0, 1e308], dist, DecoherenceParams(0.0, 0.4), DI)
        with pytest.raises(ValueError, match="float range"):
            oracle_population_lower([0.0, 1.0], dist, DecoherenceParams(1e308, 1.0), VI)
        # an A_n t beyond them only rounds the coherences' decay to 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = oracle_population_lower([0.0, 1.0, 1e300], dist, DecoherenceParams(1e154, 1.0), VI)
        assert got.tolist() == pytest.approx([1.0, 0.5, 0.5], abs=1e-12)

    def test_invariants_on_every_state(self):
        # far out in time, for a mixed distribution, and at critical and
        # overdamped rates: every state keeps unit trace and is Hermitian
        # and positive (DensityOperator enforces both), and the population
        # view agrees with the dense states
        cases = [
            (VibrationalDistribution.fock(1), DecoherenceParams(0.2, 0.4), np.linspace(0.0, 200.0, 101)),
            (VibrationalDistribution.coherent(1.0), DecoherenceParams(0.2, 0.4), np.linspace(0.0, 20.0, 41)),
            (VibrationalDistribution.fock(0), DecoherenceParams(2.0, 0.4), np.linspace(0.0, 10.0, 41)),
            (VibrationalDistribution.fock(0), DecoherenceParams(5.0, 0.4), np.linspace(0.0, 10.0, 41)),
        ]
        for dist, params, grid in cases:
            states = dephasing_oracle_trajectory(dist, params, DI, grid)
            assert len(states) == grid.size
            assert states[0].dims == (2, dist.n_max + 3)
            n_levels = states[0].dims[1]
            for state in states:
                assert abs(np.trace(state.matrix).real - 1.0) < 1e-10
            spin_down = [np.trace(s.matrix[:n_levels, :n_levels]).real for s in states]
            np.testing.assert_allclose(
                oracle_population_lower(grid, dist, params, DI), spin_down, rtol=0, atol=1e-14
            )

    @pytest.mark.parametrize("dist", [VibrationalDistribution.fock(0), VibrationalDistribution.fock(5),
                                      VibrationalDistribution.coherent(3.0), VibrationalDistribution.thermal(0.5)])
    @pytest.mark.parametrize("model", [DI, VI])
    def test_population_blocks_match_trajectory(self, dist, model, monkeypatch):
        # the populations are formed a block of time points at a time; with
        # 13 cells a block, these 251-point grids run blocks of 13 points
        # (fock:0) and 2 points (fock:5), each ending in a partial block, and
        # of 1 point, and the sums equal the trajectory's summed |down,n+1>
        # populations to the bit
        import qlimits.jc as jc_module

        monkeypatch.setattr(jc_module, "_POPULATION_BLOCK_CELLS", 13)
        params = DecoherenceParams(0.127, 0.4)
        grid = np.linspace(0.0, 30.0, 251)
        states = dephasing_oracle_trajectory(dist, params, model, grid)
        lower = np.array([s.matrix.diagonal()[1:dist.n_max + 2].real for s in states])
        assert np.array_equal(oracle_population_lower(grid, dist, params, model), lower.sum(axis=1))

    @pytest.mark.parametrize("spec, grid", [
        *[(f"fock:{n}", np.linspace(0.0, 4.0, 40)) for n in (0, 1, 2, 3, 4, 5, 20)],
        ("thermal:1.5", np.linspace(0.0, 30.0, 7)),
        ("coherent:2.0", [0.0]),
    ], ids=lambda x: x if isinstance(x, str) else f"{len(x)}pts")
    @pytest.mark.parametrize("model", [DI, VI], ids=["di", "vi"])
    def test_states_match_single_construction(self, spec, grid, model):
        # the same matrices, dims and eig_tol, to the bit, as states built
        # one by one from each time's doublet blocks assembled densely
        dist = VibrationalDistribution.parse(spec)
        params = DecoherenceParams(0.12, 0.4)
        states = dephasing_oracle_trajectory(dist, params, model, grid)
        blocks, n_levels = oracle_blocks(dist, params, model, grid)
        assert len(states) == len(blocks)
        for state, blk in zip(states, blocks):
            rho = np.zeros((2 * n_levels, 2 * n_levels), dtype=complex)
            for n, pair in enumerate(blk):
                idx = [n + 1, n_levels + n]
                rho[np.ix_(idx, idx)] = pair
            single = DensityOperator(rho, (2, n_levels))
            assert np.array_equal(state.matrix, single.matrix)
            assert (state.dims, state.eig_tol) == (single.dims, single.eig_tol)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc")
    def test_long_trajectory_holds_one_copy_of_its_states(self):
        # 2000 states of dimension 46 take 67.7 MB; the child reads its own
        # peak RSS, which was 163 MB while the stack held a second copy
        script = (
            "import numpy as np\n"
            "from qlimits.jc import CouplingModel, DecoherenceParams, VibrationalDistribution,"
            " dephasing_oracle_trajectory\n"
            "states = dephasing_oracle_trajectory(VibrationalDistribution.fock(20),"
            " DecoherenceParams(0.127, 0.4), CouplingModel.IMPERFECT_DIPOLE, np.linspace(0.0, 30.0, 2000))\n"
            "assert len(states) == 2000 and states[0].dim == 46\n"
            "with open('/proc/self/status') as status:\n"
            "    print(next(int(line.split()[1]) for line in status if line.startswith('VmHWM:')))\n"
        )
        src = os.path.dirname(os.path.dirname(qlimits.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
                                capture_output=True, text=True, check=True)
        kib = int(result.stdout)
        assert kib < 130 * 1024, kib

    def test_noncommuting_dephasing_rejected(self, monkeypatch):
        # the propagator relies on D_n commuting with H; a D_n that does
        # not (here sigma_z in the bare basis) must fail loudly
        import qlimits.jc as jc_module

        def bare_pair(n, n_levels):
            up, down = np.zeros((2, 2 * n_levels), dtype=complex)
            up[n_levels + n] = down[n + 1] = 1.0
            return PureState(up, (2, n_levels)), PureState(down, (2, n_levels))

        monkeypatch.setattr(jc_module, "dressed_states", bare_pair)
        # the shared doublet forms are cached on first use: build them
        # afresh from the patched states, and restore the cached ones after
        monkeypatch.setattr(jc_module, "_doublet_forms", functools.cache(jc_module._doublet_forms.__wrapped__))
        with pytest.raises(RuntimeError, match="not diagonal"):
            dephasing_oracle_trajectory(
                VibrationalDistribution.fock(0), DecoherenceParams(0.2, 0.4), DI, [1.0]
            )

    @pytest.mark.parametrize("dist", [VibrationalDistribution.fock(4),
                                      VibrationalDistribution.coherent(3.0),
                                      VibrationalDistribution.thermal(2.5)])
    @pytest.mark.parametrize("model", [DI, VI])
    def test_blocks_match_per_doublet_construction(self, dist, model):
        # reference: each doublet's Liouvillian from its dressed states and
        # Kronecker products, diagonalized in the eigenbasis of its H_n
        params = DecoherenceParams(0.127, 0.4)
        t = np.linspace(0.0, 25.0, 11)
        n_levels = dist.n_max + 3
        eye = np.eye(2)
        expected = []
        for n, p in enumerate(dist.p_n / dist.p_n.sum()):
            plus, minus = (s.amplitudes[[n + 1, n_levels + n]] for s in dressed_states(n, n_levels))
            d_n = np.outer(plus, plus.conj()) - np.outer(minus, minus.conj())
            d_sq = d_n @ d_n
            h_n = reference_hamiltonian(n_levels)[np.ix_([n + 1, n_levels + n], [n + 1, n_levels + n])]
            liouvillian = (
                -1j * (np.kron(h_n, eye) - np.kron(eye, h_n.T))
                + 0.5 * damping_rate_normalized(model, n, params)
                * (np.kron(d_n, d_n.T) - 0.5 * (np.kron(d_sq, eye) + np.kron(eye, d_sq.T)))
            )
            _, u = np.linalg.eigh(h_n)
            vecs = np.kron(u, u.conj())
            evals = np.diag(vecs.conj().T @ liouvillian @ vecs)
            expected.append((vecs * (p * vecs[0].conj() * np.exp(np.outer(t, evals)))[:, None, :]).sum(-1))
        expected = np.stack(expected, axis=1).reshape(t.size, -1, 2, 2)
        blocks, levels = oracle_blocks(dist, params, model, t)
        assert levels == n_levels
        assert np.abs(blocks - expected).max() <= 1e-12

    def test_memory_linear_in_levels(self):
        # the doublet blocks are built one at a time; a dense exchange
        # Hamiltonian at coherent:2000 (about 2200 levels) alone takes
        # (2 x 2200)^2 x 8 bytes, about 150 MB
        dist = VibrationalDistribution.coherent(2000.0)
        tracemalloc.start()
        try:
            oracle_population_lower([0.0, 1.0], dist, DecoherenceParams(0.127, 0.4), DI)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6, peak

    def test_population_matches_analytic_weights(self):
        # mixed distribution: numeric P_down tracks the analytic formula
        # apart from the small damping-induced frequency shift
        params = DecoherenceParams(0.1, 0.4)
        dist = VibrationalDistribution.thermal(0.5)
        t = np.linspace(0.0, 4.0, 60)
        numeric = oracle_population_lower(t, dist, params, DI)
        analytic = population_lower(t, dist, params, DI)
        assert np.abs(numeric - analytic).max() < 0.02


class TestFitRateExponent:
    def test_exact_power_law_recovery(self):
        pts = [(n, 0.127 * (1 + n) ** 0.7) for n in range(9)]
        gamma0, exponent = fit_rate_exponent(pts)
        assert gamma0 == pytest.approx(0.127, abs=1e-10)
        assert exponent == pytest.approx(0.7, abs=1e-10)

    @pytest.mark.parametrize(
        "model,d,expected",
        [(DI, 0.4, 0.7), (VI, 2.4, 0.7), (DI, 1.0, 1.0), (VI, 1.0, 0.0)],
    )
    def test_exponent_identity(self, model, d, expected):
        params = DecoherenceParams(0.127, d)
        pts = [(n, damping_rate_normalized(model, n, params)) for n in range(9)]
        _, exponent = fit_rate_exponent(pts)
        assert exponent == pytest.approx(rate_exponent(model, d), abs=1e-9)
        if expected != 0.0:
            assert exponent == pytest.approx(expected, abs=1e-9)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="three"):
            fit_rate_exponent([(0, 1.0), (1, 2.0)])
        with pytest.raises(ValueError, match="positive"):
            fit_rate_exponent([(0, 1.0), (1, 0.0), (2, 2.0)])
