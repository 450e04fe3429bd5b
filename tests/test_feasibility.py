"""Tests for the spontaneous-emission feasibility budget."""
import json
import math

import pytest

from qlimits.feasibility import (
    EPSILON_WORKED,
    GATE_ERROR_THRESHOLD,
    MUCH_GREATER,
    MUCH_LESS,
    IonSpecies,
    computation_time_ion_trap,
    emission_prob_extraneous,
    emission_prob_level2,
    error_rate_per_gate,
    error_rate_vs_operations,
    feasibility_report,
    load_ion_config,
    max_decay_rate,
    min_total_time,
    qubit_overhead,
    rabi_decay_ratio_bound,
    raman_gate_sequence_time,
    register_decoherence_time,
    total_time_simple,
)


def synthetic_ion(**overrides):
    base = dict(
        name="testium",
        Gamma22=1e8,
        Gamma33=1e7,
        Delta2=1e15,
        Delta13=1e15,
        omega12=2.0e15,
        omega13=4.0e15,
        beta=1.0,
    )
    base.update(overrides)
    return IonSpecies(**base)


class TestTotalTimeSimple:
    def test_unit_L(self):
        assert total_time_simple(1, 400.0, 1e-6) == 400.0 * 1e-6

    def test_cubic_scaling_exact(self):
        for L in (2, 5, 11):
            assert total_time_simple(2 * L, 500.0, 1e-6) == 8.0 * total_time_simple(L, 500.0, 1e-6)

    def test_hand_value(self):
        # 400 * 1e-6 s * 1000 = 0.4 s
        assert total_time_simple(10, 400.0, 1e-6) == pytest.approx(0.4, rel=1e-12)


class TestRegisterDecoherenceTime:
    def test_values(self):
        assert register_decoherence_time(1.0, 1) == pytest.approx(0.2, rel=1e-15)
        assert register_decoherence_time(1.0, 40) == pytest.approx(5e-3, rel=1e-12)

    def test_inverse_scaling(self):
        assert register_decoherence_time(2.0, 10) * 10 == pytest.approx(
            register_decoherence_time(2.0, 7) * 7, rel=1e-15
        )

    def test_overhead(self):
        assert qubit_overhead(1) == 7
        assert qubit_overhead(40) == 202


class TestRabiDecayRatioBound:
    def test_field_squared_law(self):
        assert rabi_decay_ratio_bound(2e10, 1e15) == pytest.approx(
            4.0 * rabi_decay_ratio_bound(1e10, 1e15), rel=1e-14
        )

    def test_inverse_cubed_frequency(self):
        assert rabi_decay_ratio_bound(1e10, 2e15) == pytest.approx(
            rabi_decay_ratio_bound(1e10, 1e15) / 8.0, rel=1e-14
        )

    def test_codata_hand_evaluation(self):
        # tunnelling-ionization field strength for hydrogen, CODATA
        # constants typed independently of scipy
        c = 299792458.0
        eps0 = 8.8541878128e-12
        hbar = 1.054571817e-34
        e_field = 5.8e11
        omega = 2.5e15
        expected = 6.0 * math.pi * c**3 * eps0 * e_field**2 / (hbar * omega**3)
        assert rabi_decay_ratio_bound(e_field, omega) == pytest.approx(expected, rel=1e-9)


class TestComputationTimeIonTrap:
    def test_eta_halves(self):
        t1 = computation_time_ion_trap(4, 500.0, 1.0, 1e6)
        t2 = computation_time_ion_trap(4, 500.0, 2.0, 1e6)
        assert t2 == pytest.approx(t1 / 2.0, rel=1e-15)

    def test_hand_value(self):
        # 4 pi sqrt(20) / 1e6 * 500 * 64
        expected = 4.0 * math.pi * math.sqrt(20.0) / 1e6 * 500.0 * 64.0
        got = computation_time_ion_trap(4, 500.0, 1.0, 1e6)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(1.798, abs=2e-3)

    def test_omega_invariance(self):
        a = computation_time_ion_trap(4, 500.0, 1.0, 1e6) * 1e6
        b = computation_time_ion_trap(4, 500.0, 1.0, 3e7) * 3e7
        assert a == pytest.approx(b, rel=1e-14)


class TestMinTotalTime:
    def test_table_L4(self):
        bound = min_total_time(4, 500.0, 1.0, 1e-16)
        assert bound.relation == MUCH_GREATER
        expected = 400.0 * math.pi**2 * 500.0**2 * 1e-16 * 4**8
        assert bound.value == pytest.approx(expected, rel=1e-13)
        assert bound.value == pytest.approx(6.4e-3, rel=0.02)

    def test_table_L40(self):
        assert float(min_total_time(40, 500.0, 1.0, 1e-16)) == pytest.approx(6.4e5, rel=0.02)

    def test_factorization_band(self):
        assert float(min_total_time(78, 500.0, 1.0, 1e-16)) == pytest.approx(1.35e8, rel=0.01)

    def test_L8_scaling_exact(self):
        for L in (3, 4, 7):
            assert float(min_total_time(2 * L, 500.0, 1.0, 1e-16)) == 256.0 * float(
                min_total_time(L, 500.0, 1.0, 1e-16)
            )


class TestMaxDecayRate:
    def test_hand_value_L4(self):
        bound = max_decay_rate(4, 500.0, 1.0, 1e-16)
        assert bound.relation == MUCH_LESS
        expected = 1e16 / (2000.0 * math.pi**2 * 500.0**2 * 4**9)
        assert bound.value == pytest.approx(expected, rel=1e-13)
        assert bound.value == pytest.approx(7.73, abs=0.01)

    def test_hand_value_L40(self):
        assert float(max_decay_rate(40, 500.0, 1.0, 1e-16)) == pytest.approx(7.73e-9, abs=1e-11)

    def test_L9_scaling_exact(self):
        for L in (2, 4, 10):
            assert float(max_decay_rate(L, 500.0, 1.0, 1e-16)) == 512.0 * float(
                max_decay_rate(2 * L, 500.0, 1.0, 1e-16)
            )


class TestRamanGateSequenceTime:
    def test_hand_value(self):
        assert raman_gate_sequence_time(1, 1e9, 1e6) == pytest.approx(8.0 * math.pi * 1e-3, rel=1e-14)
        assert raman_gate_sequence_time(1, 1e9, 1e6) == pytest.approx(0.02513, abs=1e-5)

    def test_linear_in_N(self):
        assert raman_gate_sequence_time(7, 1e9, 1e6) == pytest.approx(
            7.0 * raman_gate_sequence_time(1, 1e9, 1e6), rel=1e-15
        )

    def test_inverse_square_rabi(self):
        assert raman_gate_sequence_time(1, 1e9, 2e6) == pytest.approx(
            raman_gate_sequence_time(1, 1e9, 1e6) / 4.0, rel=1e-14
        )


class TestEmissionProbabilities:
    def test_p2_hand_value(self):
        p = emission_prob_level2(1e6, 1e8, 1e15)
        assert p.value == pytest.approx(0.8, rel=1e-13)
        assert p.valid

    def test_p2_zero_and_linear(self):
        assert emission_prob_level2(0.0, 1e8, 1e15).value == 0.0
        assert emission_prob_level2(2e6, 1e8, 1e15).value == 2.0 * emission_prob_level2(1e6, 1e8, 1e15).value

    def test_p2_invalid_flag(self):
        p = emission_prob_level2(1e7, 1e8, 1e15)
        assert p.value > 1.0 and not p.valid

    def test_p3_hand_value(self):
        # 80 * (1e8)^2 * pi^2 * (1e6)^2 * 7 / (1e15)^2 * (1/2)^3
        ion = synthetic_ion(Gamma33=1e8, Delta13=1e15, omega12=1.0e15, omega13=2.0e15)
        p = emission_prob_extraneous(1e6, 7, ion, 1.0)
        expected = 80.0 * 1e16 * math.pi**2 * 1e12 * 7.0 / 1e30 * 0.125
        assert p.value == pytest.approx(expected, rel=1e-13)
        assert p.value == pytest.approx(6.909, abs=1e-3)
        assert not p.valid  # exceeds 1: regime breakdown is flagged, not raised

    def test_p3_quadratic_in_N(self):
        ion = synthetic_ion()
        assert emission_prob_extraneous(2e5, 7, ion, 1.0).value == pytest.approx(
            4.0 * emission_prob_extraneous(1e5, 7, ion, 1.0).value, rel=1e-14
        )

    def test_p3_equal_frequencies(self):
        a = emission_prob_extraneous(1e5, 7, synthetic_ion(omega12=3e15, omega13=3e15), 1.0)
        b = emission_prob_extraneous(1e5, 7, synthetic_ion(omega12=5e15, omega13=5e15), 1.0)
        assert a.value == pytest.approx(b.value, rel=1e-14)


class TestErrorRatePerGate:
    def test_sqrt_L_scaling_exact(self):
        ion = synthetic_ion()
        for L in (2, 7, 25):
            assert error_rate_per_gate(4 * L, ion, 1.0).value == 2.0 * error_rate_per_gate(L, ion, 1.0).value

    def test_synthetic_hand_value(self):
        # sqrt(320*7) * pi * 1e-8 with unit frequency ratio and beta=eta=1
        ion = synthetic_ion(Gamma33=1e7, Delta13=1e15, omega12=1e15, omega13=1e15)
        r = error_rate_per_gate(7, ion, 1.0)
        expected = math.sqrt(2240.0) * math.pi * 1e-8
        assert r.value == pytest.approx(expected, rel=1e-13)
        assert r.value == pytest.approx(1.487e-6, abs=1e-9)
        assert not r.within_threshold
        assert r.threshold == GATE_ERROR_THRESHOLD

    def test_threshold_flag(self):
        quiet = synthetic_ion(Gamma33=1.0, Delta13=1e15)
        assert error_rate_per_gate(7, quiet, 1.0).within_threshold


def test_error_rate_vs_operations_monotone():
    ion = synthetic_ion()
    rates = [error_rate_vs_operations(n, 7, ion, 1.0) for n in (1e4, 1e5, 1e6, 1e7)]
    assert all(a < b for a, b in zip(rates, rates[1:]))


class TestDomainTypes:
    def test_algorithm_cost(self):
        from qlimits.feasibility import AlgorithmCost

        cost = AlgorithmCost(epsilon=400.0, L=10)
        assert cost.qubits_required == 52
        assert cost.total_time(1e-6) == pytest.approx(0.4, rel=1e-12)
        with pytest.raises(ValueError):
            AlgorithmCost(epsilon=0.0, L=10)

    def test_trap_params_bounds(self):
        from qlimits.feasibility import AlgorithmCost, TrapParams

        trap = TrapParams(eta=1.0, ratio_gamma_over_omega2=1e-16, omega12=1e6)
        cost = AlgorithmCost(epsilon=500.0, L=4)
        assert float(trap.min_total_time(cost)) == float(min_total_time(4, 500.0, 1.0, 1e-16))
        assert float(trap.max_decay_rate(cost)) == float(max_decay_rate(4, 500.0, 1.0, 1e-16))
        assert trap.computation_time(cost) == computation_time_ion_trap(4, 500.0, 1.0, 1e6)
        bare = TrapParams(eta=1.0, ratio_gamma_over_omega2=1e-16)
        with pytest.raises(ValueError, match="omega12"):
            bare.computation_time(cost)


class TestIonConfig:
    def good_entry(self):
        return dict(
            name="barium",
            Gamma22=1e8,
            Gamma33=1e7,
            Delta2=1e15,
            Delta13=1e15,
            omega12=2e15,
            omega13=4e15,
            beta=1.0,
        )

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "ions.json"
        path.write_text(json.dumps([self.good_entry()]))
        ions = load_ion_config(path)
        assert len(ions) == 1 and ions[0].name == "barium"

    def test_wrapped_list(self):
        assert load_ion_config({"ions": [self.good_entry()]})[0].beta == 1.0

    def test_missing_field_rejected(self):
        entry = self.good_entry()
        del entry["beta"]
        with pytest.raises(ValueError, match="missing"):
            load_ion_config([entry])

    def test_unknown_field_rejected(self):
        entry = self.good_entry()
        entry["mass"] = 137.0
        with pytest.raises(ValueError, match="unknown"):
            load_ion_config([entry])

    def test_nonpositive_rejected(self):
        entry = self.good_entry()
        entry["Gamma22"] = 0.0
        with pytest.raises(ValueError, match="must be > 0"):
            load_ion_config([entry])

    def test_non_numeric_rejected(self):
        entry = self.good_entry()
        entry["Delta2"] = "1e15"
        with pytest.raises(ValueError, match="number"):
            load_ion_config([entry])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            load_ion_config([self.good_entry(), self.good_entry()])


class TestFeasibilityReport:
    def test_reproduces_reference_table(self):
        report = feasibility_report([4, 40], epsilon=EPSILON_WORKED, eta=1.0, ratio=1e-16)
        t_values = {row.L: row.t_bound.value for row in report.rows}
        assert t_values[4] == pytest.approx(6.4e-3, rel=0.02)
        assert t_values[40] == pytest.approx(6.4e5, rel=0.02)

    def test_decay_rate_annotation_present(self):
        report = feasibility_report([4])
        joined = " ".join(report.notes)
        assert "7.73" in joined and "0.77" in joined and "factor" in joined

    def test_factorization_note(self):
        report = feasibility_report([78])
        note = next(n for n in report.notes if "23-digit" in n)
        assert "3.6 years" in note and "25 s" in note
        assert "76-bit" in note

    def test_ion_data_missing_marker(self):
        report = feasibility_report([4])
        assert report.ion_data_missing
        assert any("ion data missing" in n for n in report.notes)

    def test_with_ions_and_operations(self):
        ion = synthetic_ion()
        report = feasibility_report([7], ions=[ion], n_ops=1e6)
        assert not report.ion_data_missing
        (row,) = report.rows
        (name, rate), = row.gate_errors
        assert name == "testium" and rate.value > 0
        (em,) = report.emissions
        assert em.p_total.value == pytest.approx(em.p2.value + em.p3.value, rel=1e-14)
        assert em.error_rate == pytest.approx(em.p_total.value / 1e6, rel=1e-14)

    def test_report_exposes_error_rate_function(self):
        report = feasibility_report([7], ions=[synthetic_ion()])
        values = [report.error_rate_vs_operations(n, "testium", 7) for n in (1e4, 1e6, 1e8)]
        assert values[0] < values[1] < values[2]
        with pytest.raises(KeyError):
            report.error_rate_vs_operations(1e6, "unobtainium", 7)

    def test_deterministic(self):
        a = feasibility_report([4, 40], ions=[synthetic_ion()], n_ops=1e6)
        b = feasibility_report([4, 40], ions=[synthetic_ion()], n_ops=1e6)
        assert a.to_json_dict() == b.to_json_dict()
        assert a.to_text_table() == b.to_text_table()

    def test_json_round_trip_serializable(self):
        report = feasibility_report([4], ions=[synthetic_ion()], n_ops=1e6)
        encoded = json.dumps(report.to_json_dict())
        assert json.loads(encoded)["rows"][0]["L"] == 4

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            feasibility_report([])

    @pytest.mark.parametrize("name", ["epsilon", "eta", "ratio", "n_ops"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_nonpositive_or_nonfinite(self, name, value):
        with pytest.raises(ValueError, match=name):
            feasibility_report([4], ions=[synthetic_ion()], **{name: value})
