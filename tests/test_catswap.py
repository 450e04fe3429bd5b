"""Tests for the cat-state swapping engine, its stabilizer oracle, and the
dense state-vector oracle that checks both up to 14 particles."""
import dataclasses
import itertools

import numpy as np
import pytest

import helpers
import qlimits.catswap as catswap_module
from helpers import (
    BRUTE_FORCE_LIMIT,
    LARGE_SWAP_SCENARIO,
    brute_force_oracle,
    cats_dense_vector,
    random_swap_scenario as random_scenario,
    verify_against_dense_oracle,
)
from qlimits.catswap import (
    MAX_OUTCOMES,
    CatCollection,
    CatState,
    MeasurementSpec,
    enumerate_outcomes,
    polygon_counts,
    SwapOutcome,
    scenario_from_dict,
    telephone_exchange,
    untouched_cats,
    verify_against_oracle,
)


def raw_cat_vector(particles, bits, sign):
    """Independent dense expansion of |bits> + sign |bits^c| over sorted particles."""
    order = sorted(range(len(particles)), key=lambda i: particles[i])
    bits = [bits[i] for i in order]
    n = len(bits)
    vec = np.zeros(2**n, dtype=complex)
    idx = int("".join(str(b) for b in bits), 2)
    cdx = int("".join(str(1 - b) for b in bits), 2)
    vec[idx] = 1.0
    vec[cdx] += sign
    return vec / np.linalg.norm(vec)


def standard_swap():
    coll = CatCollection((CatState((1, 2), (0, 0), +1), CatState((3, 4), (0, 0), +1)))
    return coll, MeasurementSpec({2, 3})


def fig5_scenario():
    """Two Bell pairs and a 3-particle GHZ; select one particle from each."""
    coll = CatCollection(
        (
            CatState((1, 2), (0, 0), +1),
            CatState((3, 4), (0, 0), +1),
            CatState((5, 6, 7), (0, 0, 0), +1),
        )
    )
    return coll, MeasurementSpec({2, 3, 5})


class TestCatState:
    def test_bell_phi_plus(self):
        cat = CatState((1, 2), (0, 0), "+")
        assert cat.particles == (1, 2)
        assert cat.bits == (0, 0)
        assert cat.sign == +1

    def test_bell_psi_minus(self):
        cat = CatState((1, 2), (0, 1), "-")
        assert cat.bits == (0, 1) and cat.sign == -1

    def test_complement_canonicalization(self):
        cat = CatState((1, 2), (1, 1), "+")
        assert cat.bits == (0, 0) and cat.sign == +1

    def test_particle_order_normalized(self):
        cat = CatState((5, 2), (1, 0), "+")
        assert cat.particles == (2, 5)
        assert cat.bits == (0, 1)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate particle ids"):
            CatState((3, 3), (0, 0), "+")

    def test_single_particle_degenerate(self):
        cat = CatState((4,), (1,), "-")
        assert cat.bits == (0,) and cat.sign == -1

    def test_canonicalize_idempotent(self):
        cat = CatState((1, 2, 3), (0, 1, 0), "-")
        again = CatState(cat.particles, cat.bits, cat.sign)
        assert again == cat
        assert CatState(again.particles, again.bits, again.sign) == cat

    def test_canonicalization_preserves_ray(self):
        # brute-force vectors of the raw and canonical forms agree up to
        # global phase
        for bits, sign in [((1, 0, 1), +1), ((1, 1, 0), -1), ((1,), -1)]:
            particles = tuple(range(10, 10 + len(bits)))
            raw = raw_cat_vector(particles, bits, sign)
            cat = CatState(particles, bits, sign)
            canon = cats_dense_vector([cat], cat.particles)
            assert abs(abs(np.vdot(raw, canon)) - 1.0) < 1e-12


class TestCollectionsAndSpecs:
    def test_disjointness_enforced(self):
        with pytest.raises(ValueError, match="more than one cat"):
            CatCollection((CatState((1, 2), (0, 0), "+"), CatState((2, 3), (0, 0), "+")))

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            MeasurementSpec(set())

    def test_unknown_particle_rejected(self):
        coll, _ = standard_swap()
        with pytest.raises(ValueError, match="not in the collection"):
            enumerate_outcomes(coll, MeasurementSpec({2, 9}))


class TestStandardSwap:
    def test_four_outcomes_quarter_each(self):
        coll, spec = standard_swap()
        outcomes = enumerate_outcomes(coll, spec)
        assert len(outcomes) == 4
        for o in outcomes:
            assert o.probability == pytest.approx(0.25, abs=1e-15)
            assert o.residual is not None
            assert o.residual.particles == (1, 4)
        assert sum(o.probability for o in outcomes) == pytest.approx(1.0, abs=1e-15)

    def test_probabilities_match_hand_expansion(self):
        # (|00>+|11>)(|00>+|11>)/2, reordered to (2,3;1,4), projected by hand
        coll, spec = standard_swap()
        psi = cats_dense_vector(coll.cats, (2, 3, 1, 4))
        matrix = psi.reshape(4, 4)
        for o in enumerate_outcomes(coll, spec):
            phi = raw_cat_vector((2, 3), o.basis.bits, o.basis.sign)
            amp = phi.conj() @ matrix
            assert float(np.vdot(amp, amp).real) == pytest.approx(o.probability, abs=1e-12)

    def test_oracle_agreement(self):
        coll, spec = standard_swap()
        ok, message = verify_against_oracle(coll, spec)
        assert ok, message


class TestFig5Scenario:
    def test_polygon_counts(self):
        coll, spec = fig5_scenario()
        assert polygon_counts(coll, spec) == (3, 4)

    def test_residuals_are_four_particle_cats(self):
        coll, spec = fig5_scenario()
        outcomes = enumerate_outcomes(coll, spec)
        assert len(outcomes) == 8
        for o in outcomes:
            assert o.probability == pytest.approx(0.125, abs=1e-15)
            assert o.residual.n_particles == 4
            assert o.residual.particles == (1, 4, 6, 7)

    def test_dense_agreement(self):
        coll, spec = fig5_scenario()
        ok, message = verify_against_oracle(coll, spec)
        assert ok, message


class TestPolygonCounts:
    def test_select_everything(self):
        coll, _ = standard_swap()
        assert polygon_counts(coll, MeasurementSpec({1, 2, 3, 4})) == (4, 0)

    def test_untouched_cats_not_counted(self):
        coll = CatCollection((CatState((1, 2), (0, 0), "+"), CatState((3, 4), (0, 0), "+")))
        assert polygon_counts(coll, MeasurementSpec({1})) == (1, 1)
        assert untouched_cats(coll, MeasurementSpec({1}))[0].particles == (3, 4)


class TestFullConsumption:
    def test_measure_whole_cat(self):
        cat = CatState((1, 2, 3), (0, 1, 1), "-")
        coll = CatCollection((cat,))
        outcomes = enumerate_outcomes(coll, MeasurementSpec({1, 2, 3}))
        # compatible pair: only the matching sign survives with probability 1
        assert len(outcomes) == 1
        assert outcomes[0].probability == pytest.approx(1.0, abs=1e-15)
        assert outcomes[0].basis == cat
        assert outcomes[0].residual is None

    def test_oracle_agreement(self):
        coll = CatCollection((CatState((1, 2, 3), (0, 1, 1), "-"), CatState((5, 6), (0, 1), "+")))
        ok, message = verify_against_oracle(coll, MeasurementSpec({1, 2, 3, 5}))
        assert ok, message

    def test_every_particle_of_two_bells(self):
        # both cats fully consumed: the expansion branches interfere,
        # leaving 2 outcomes at probability 1/2 each
        coll, _ = standard_swap()
        spec = MeasurementSpec({1, 2, 3, 4})
        outcomes = enumerate_outcomes(coll, spec)
        assert len(outcomes) == 2
        for o in outcomes:
            assert o.probability == pytest.approx(0.5, abs=1e-15)
            assert o.residual is None
            assert o.basis.sign == +1
        ok, message = verify_against_oracle(coll, spec)
        assert ok, message


class TestProjectOutcome:
    """Projections onto single cat-basis outcomes, read from the enumeration."""

    def test_incompatible_pattern_zero(self):
        # the GHZ cat has correlated bits; an anti-correlated basis pattern
        # on two of its particles cannot appear
        coll = CatCollection((CatState((1, 2, 3), (0, 0, 0), "+"),))
        spec = MeasurementSpec({1, 2})
        assert {o.basis.bits for o in enumerate_outcomes(coll, spec)} == {(0, 0)}
        assert {o.basis.bits for o in brute_force_oracle(coll, spec)} == {(0, 0)}
        ok, message = verify_against_oracle(coll, spec)
        assert ok, message

    def test_sign_bookkeeping_against_oracle(self):
        # initial signs (-, -) with a (+) basis: residual sign comes out
        # of the expansion; trust the dense algebra
        coll = CatCollection((CatState((1, 2), (0, 0), "-"), CatState((3, 4), (0, 0), "-")))
        spec = MeasurementSpec({2, 3})
        (outcome,) = [o for o in enumerate_outcomes(coll, spec)
                      if o.basis == CatState((2, 3), (0, 0), "+")]
        assert outcome.residual.sign == +1  # (+) basis times (-)(-) collection
        (dense,) = [o for o in brute_force_oracle(coll, spec) if o.basis == outcome.basis]
        expected = cats_dense_vector([outcome.residual], dense.residual_particles)
        assert abs(np.vdot(expected, dense.residual_vector)) == pytest.approx(1.0, abs=1e-12)
        ok, message = verify_against_oracle(coll, spec)
        assert ok, message


class TestBruteForceOracle:
    def test_dense_check_catches_a_flipped_residual(self, monkeypatch):
        original = helpers.enumerate_outcomes
        monkeypatch.setattr(helpers, "enumerate_outcomes",
                            lambda coll, spec: _flip_residual_signs(original(coll, spec)))
        ok, message = verify_against_dense_oracle(*standard_swap())
        assert not ok
        assert message.startswith(f"residual ray mismatch at {BASIS_00}: |overlap|=")

    def test_size_limit(self):
        cats = tuple(CatState((2 * i, 2 * i + 1), (0, 0), "+") for i in range(8))
        coll = CatCollection(cats)
        assert coll.n_particles > BRUTE_FORCE_LIMIT
        with pytest.raises(ValueError, match="dense limit"):
            brute_force_oracle(coll, MeasurementSpec({0}))

    def test_standard_swap_probabilities(self):
        coll, spec = standard_swap()
        dense = brute_force_oracle(coll, spec)
        assert [o.probability for o in dense] == pytest.approx([0.25] * 4, abs=1e-15)

    def test_residual_vectors_normalized(self):
        coll, spec = fig5_scenario()
        for o in brute_force_oracle(coll, spec):
            assert np.linalg.norm(o.residual_vector) == pytest.approx(1.0, abs=1e-12)

    def test_matches_per_basis_projection(self):
        # reference: the state and every canonical basis cat expanded by
        # raw_cat_vector, each basis projected on its own
        rng = np.random.default_rng(404)
        for _ in range(30):
            n = int(rng.integers(2, BRUTE_FORCE_LIMIT + 1))
            coll, spec = random_scenario(rng, n, min(4, n))
            sel = tuple(sorted(spec.selected))
            rest = tuple(p for p in coll.particles if p not in spec.selected)
            psi = np.ones(1, dtype=complex)
            axes = []
            for cat in coll.cats:
                psi = np.kron(psi, raw_cat_vector(cat.particles, cat.bits, cat.sign))
                axes.extend(cat.particles)
            psi = psi.reshape((2,) * len(axes)).transpose([axes.index(p) for p in sel + rest])
            matrix = psi.reshape(2 ** len(sel), -1)
            expected = []
            for tail in itertools.product((0, 1), repeat=len(sel) - 1):
                for sign in (+1, -1):
                    residual = raw_cat_vector(sel, (0, *tail), sign) @ matrix
                    probability = float(np.vdot(residual, residual).real)
                    if probability > 1e-12:
                        expected.append(((0, *tail), sign, probability, residual / np.sqrt(probability)))
            dense = brute_force_oracle(coll, spec)
            assert [(o.basis.bits, o.basis.sign) for o in dense] == [e[:2] for e in expected]
            for o, (_, _, probability, residual) in zip(dense, expected):
                assert o.basis.particles == sel and o.residual_particles == rest
                assert o.probability == pytest.approx(probability, abs=1e-12)
                if rest:
                    np.testing.assert_allclose(o.residual_vector, residual, atol=1e-12)
                else:
                    assert o.residual_vector is None


def reference_outcomes(coll, spec):
    """Outcomes by direct expansion, every cat through the validating CatState."""
    selected = spec.selected
    touched = [cat for cat in coll.cats if selected.intersection(cat.particles)]
    sel_order = tuple(sorted(selected))
    rest_order = tuple(sorted(p for cat in touched for p in cat.particles if p not in selected))
    sign_product = int(np.prod([cat.sign for cat in touched]))
    outcomes = []
    for tail in itertools.product((0, 1), repeat=len(touched) - 1):
        bit = {}
        for cat, flip in zip(touched, (0, *tail)):
            for p, b in zip(cat.particles, cat.bits):
                bit[p] = b ^ flip
        for sign in (+1, -1):
            basis = CatState(sel_order, tuple(bit[p] for p in sel_order), sign)
            if rest_order:
                residual = CatState(rest_order, tuple(bit[p] for p in rest_order), sign * sign_product)
                outcomes.append(SwapOutcome(basis, 0.5 ** len(touched), residual))
            elif sign == sign_product:
                outcomes.append(SwapOutcome(basis, 0.5 ** (len(touched) - 1), None))
    return sorted(outcomes, key=lambda o: (o.basis.bits, o.basis.sign_char()))


def _flip_residual_signs(outcomes):
    return [dataclasses.replace(o, residual=CatState(o.residual.particles, o.residual.bits, -o.residual.sign))
            for o in outcomes]


BASIS_00 = "CatState(particles=(2, 3), bits=(0, 0), sign=1)"

# One corruption per mismatch return of verify_against_oracle, applied to
# the standard swap's four outcomes.
ORACLE_MISMATCHES = [
    pytest.param(lambda out: out[:-1], "outcome counts differ: symbolic 3 vs oracle 4", id="count"),
    pytest.param(lambda out: [dataclasses.replace(out[0], basis=CatState((2, 4), (0, 0), +1)), *out[1:]],
                 "support mismatch at basis CatState(particles=(2, 4), bits=(0, 0), sign=1)", id="support"),
    pytest.param(lambda out: out[::-1],
                 "outcomes out of order at basis CatState(particles=(2, 3), bits=(0, 1), sign=1)", id="order"),
    pytest.param(lambda out: [out[0], *out[:-1]], f"outcomes out of order at basis {BASIS_00}", id="repeat"),
    pytest.param(lambda out: [dataclasses.replace(out[0], probability=0.5), *out[1:]],
                 f"probability mismatch at {BASIS_00}: 0.5 vs 0.25", id="probability"),
    pytest.param(lambda out: [dataclasses.replace(o, residual=None) for o in out],
                 f"residual particles at {BASIS_00}: () vs unmeasured (1, 4)", id="residual-particles"),
    pytest.param(_flip_residual_signs,
                 f"residual mismatch at {BASIS_00}: CatState(particles=(1, 4), bits=(0, 0), sign=-1)",
                 id="residual-ray"),
]


def large_scenario():
    return scenario_from_dict(LARGE_SWAP_SCENARIO)


def large_basis(bits, sign):
    return f"CatState(particles=(0, 1, 3, 5, 7, 9, 11), bits={bits}, sign={sign})"


def _flip_first_untouched(cats):
    return (CatState(cats[0].particles, cats[0].bits, -cats[0].sign), *cats[1:])


# Five corruptions above the dense oracle's particle limit: 19 particles, 64
# outcomes and three untouched cats.  Bit 1 of every basis is fixed by the
# GHZ cat, whose particles 0 and 1 are both measured.
LARGE_MISMATCHES = [
    pytest.param("enumerate_outcomes", lambda out: out[:-1],
                 "outcome counts differ: symbolic 63 vs oracle 64", id="lost-outcome"),
    pytest.param("enumerate_outcomes",
                 lambda out: [dataclasses.replace(out[0], basis=CatState(out[0].basis.particles, (0,) * 7, +1)),
                              *out[1:]],
                 f"support mismatch at basis {large_basis((0, 0, 0, 0, 0, 0, 0), 1)}", id="wrong-basis"),
    pytest.param("enumerate_outcomes",
                 lambda out: [*out[:5], dataclasses.replace(out[5], probability=2**-5), *out[6:]],
                 f"probability mismatch at {large_basis((0, 1, 0, 0, 0, 1, 0), -1)}: 0.03125 vs 0.015625",
                 id="wrong-probability"),
    pytest.param("enumerate_outcomes", lambda out: [*out[:9], *_flip_residual_signs(out[9:10]), *out[10:]],
                 f"residual mismatch at {large_basis((0, 1, 0, 0, 1, 0, 0), -1)}: "
                 "CatState(particles=(2, 4, 6, 8, 10, 12), bits=(0, 0, 0, 0, 0, 0), sign=-1)",
                 id="flipped-residual-sign"),
    pytest.param("untouched_cats", _flip_first_untouched,
                 f"residual mismatch at {large_basis((0, 1, 0, 0, 0, 0, 0), 1)}: "
                 "CatState(particles=(13, 14), bits=(0, 0), sign=-1)", id="wrong-untouched-cat"),
]


class TestVerifyMismatches:
    @pytest.mark.parametrize("corrupt, message", ORACLE_MISMATCHES)
    def test_each_mismatch_is_reported(self, monkeypatch, corrupt, message):
        original = catswap_module.enumerate_outcomes
        monkeypatch.setattr(catswap_module, "enumerate_outcomes", lambda coll, spec: corrupt(original(coll, spec)))
        assert verify_against_oracle(*standard_swap()) == (False, message)

    def test_large_scenario_passes(self):
        coll, spec = large_scenario()
        assert coll.n_particles > BRUTE_FORCE_LIMIT
        assert verify_against_oracle(coll, spec) == (True, "symbolic outcomes match the stabilizer oracle")

    @pytest.mark.parametrize("side, corrupt, message", LARGE_MISMATCHES)
    def test_each_corruption_above_the_dense_limit_is_caught(self, monkeypatch, side, corrupt, message):
        original = getattr(catswap_module, side)
        monkeypatch.setattr(catswap_module, side, lambda coll, spec: corrupt(original(coll, spec)))
        assert verify_against_oracle(*large_scenario()) == (False, message)


class TestRandomizedOracleEquivalence:
    def test_fifty_random_scenarios(self):
        # the full 200-scenario sweep runs in the acceptance suite
        rng = np.random.default_rng(2024)
        for _ in range(50):
            coll, spec = random_scenario(rng)
            for verify in (verify_against_oracle, verify_against_dense_oracle):
                ok, message = verify(coll, spec)
                assert ok, message

    def test_probability_completeness(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            coll, spec = random_scenario(rng)
            total = sum(o.probability for o in enumerate_outcomes(coll, spec))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_particle_conservation(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            coll, spec = random_scenario(rng)
            p, rest = polygon_counts(coll, spec)
            touched_total = sum(
                cat.n_particles
                for cat in coll.cats
                if any(q in spec.selected for q in cat.particles)
            )
            assert p + rest == touched_total
            for o in enumerate_outcomes(coll, spec):
                assert o.basis.n_particles == p
                if o.residual is not None:
                    assert o.residual.n_particles == rest

    def test_matches_validating_reference(self):
        # the reference builds every cat with the validating constructor
        rng = np.random.default_rng(31)
        consumed = with_untouched = 0
        for _ in range(250):
            max_particles = int(rng.integers(2, 18))
            coll, spec = random_scenario(rng, max_particles, min(6, max_particles))
            expected = reference_outcomes(coll, spec)
            assert enumerate_outcomes(coll, spec) == expected
            consumed += expected[0].residual is None
            with_untouched += len(untouched_cats(coll, spec)) > 0
        assert consumed >= 10 and with_untouched >= 10

    def test_enumeration_order_documented(self):
        rng = np.random.default_rng(15)
        coll, spec = random_scenario(rng)
        outcomes = enumerate_outcomes(coll, spec)
        keys = [(o.basis.bits, 0 if o.basis.sign > 0 else 1) for o in outcomes]
        assert keys == sorted(keys)


class TestTelephoneExchange:
    def test_figure_layout(self):
        result = telephone_exchange(["A", "B", "C", "D"], ["A", "B", "C"])
        assert result.spec == MeasurementSpec((2, 3, 5))
        assert [result.user_particles[u] for u in "ABC"] == [1, 4, 6]

    def test_result_is_a_scenario(self):
        # the exchange builds the scenario; outcomes come from the enumerator
        result = telephone_exchange(["A", "B"], ["A", "B"])
        assert [f.name for f in dataclasses.fields(result)] == [
            "collection", "spec", "user_particles", "hub_particles"]
        assert result.hub_particles == {"A": 2, "B": 3}

    def test_three_user_request_yields_ghz(self):
        result = telephone_exchange(["A", "B", "C", "D"], ["A", "B", "C"])
        for o in enumerate_outcomes(result.collection, result.spec):
            assert o.residual.particles == (1, 4, 6)
            assert o.residual.n_particles == 3
        # D's pair is untouched
        untouched = untouched_cats(result.collection, result.spec)
        assert untouched[0].particles == (7, 8)

    def test_single_user_request(self):
        result = telephone_exchange(["A", "B"], ["B"])
        outcomes = enumerate_outcomes(result.collection, result.spec)
        assert len(outcomes) == 2
        for o in outcomes:
            assert o.residual.n_particles == 1
            assert o.probability == pytest.approx(0.5, abs=1e-15)

    def test_all_users_oracle_check(self):
        for n in (2, 3, 5):
            names = [f"U{i}" for i in range(n)]
            result = telephone_exchange(names, names)
            ok, message = verify_against_oracle(result.collection, result.spec)
            assert ok, message
            outcomes = enumerate_outcomes(result.collection, result.spec)
            assert all(o.residual.n_particles == n for o in outcomes)

    def test_outcome_cap(self):
        # 16 users, all requested: 2^16 outcomes, exactly the cap
        names = [f"U{i}" for i in range(16)]
        result = telephone_exchange(names, names)
        assert len(enumerate_outcomes(result.collection, result.spec)) == MAX_OUTCOMES
        result = telephone_exchange(names + ["U16"], names + ["U16"])
        with pytest.raises(ValueError, match="MAX_OUTCOMES"):
            enumerate_outcomes(result.collection, result.spec)
        # consumed cats halve the count: 17 fully measured Bell pairs are allowed
        bells = CatCollection(tuple(CatState((2 * i, 2 * i + 1), (0, 0), +1) for i in range(18)))
        everything = MeasurementSpec(range(34))
        assert len(enumerate_outcomes(CatCollection(bells.cats[:17]), everything)) == MAX_OUTCOMES
        with pytest.raises(ValueError, match="MAX_OUTCOMES"):
            enumerate_outcomes(bells, MeasurementSpec(range(36)))

    def test_unknown_user(self):
        with pytest.raises(ValueError, match="unknown"):
            telephone_exchange(["A", "B"], ["C"])

    def test_empty_request(self):
        with pytest.raises(ValueError, match="at least one"):
            telephone_exchange(["A", "B"], [])

    @pytest.mark.parametrize("request_", [["A", "A"], ["A", "B", "A"]])
    def test_repeated_request_rejected(self, request_):
        # a repeated user names one hub particle twice, so the residual cat
        # would have fewer than len(request) particles
        with pytest.raises(ValueError, match="duplicate user names in request"):
            telephone_exchange(["A", "B", "C"], request_)


class TestScenarioSchema:
    def test_round_trip(self):
        data = {
            "cats": [
                {"particles": [1, 2], "bits": [0, 0], "sign": "+"},
                {"particles": [3, 4], "bits": [0, 0], "sign": "+"},
            ],
            "measure": [2, 3],
        }
        coll, spec = scenario_from_dict(data)
        outcomes = enumerate_outcomes(coll, spec)
        assert polygon_counts(coll, spec) == (2, 2)
        assert len(outcomes) == 4
        assert outcomes[0].residual.particles == (1, 4)

    def test_bad_scenarios_rejected(self):
        with pytest.raises(ValueError, match="'cats' and 'measure'"):
            scenario_from_dict({"cats": []})
        with pytest.raises(ValueError, match="bad cat entry"):
            scenario_from_dict({"cats": [{"particles": [1], "bits": [2], "sign": "+"}], "measure": [1]})

    def test_repeated_measure_id_rejected(self):
        # measure names each particle once, as a cat's particles do
        cats = [{"particles": [1, 2], "bits": [0, 0], "sign": "+"},
                {"particles": [3, 4], "bits": [0, 0], "sign": "+"}]
        with pytest.raises(ValueError, match=r"duplicate particle ids in measure \[2, 3, 3\]"):
            scenario_from_dict({"cats": cats, "measure": [2, 3, 3]})
