"""Tests for the cat-state swapping engine and its dense oracle."""
import itertools

import numpy as np
import pytest

from qlimits.catswap import (
    BRUTE_FORCE_LIMIT,
    MAX_OUTCOMES,
    CatCollection,
    CatState,
    MeasurementSpec,
    brute_force_oracle,
    canonicalize,
    cat_dense_vector,
    cats_dense_vector,
    enumerate_outcomes,
    make_bell,
    outcomes_to_jsonable,
    polygon_counts,
    project_outcome,
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
    coll = CatCollection((make_bell(1, 2, 0, 0, +1), make_bell(3, 4, 0, 0, +1)))
    return coll, MeasurementSpec.of({2, 3})


def fig5_scenario():
    """Two Bell pairs and a 3-particle GHZ; select one particle from each."""
    coll = CatCollection(
        (
            make_bell(1, 2, 0, 0, +1),
            make_bell(3, 4, 0, 0, +1),
            CatState((5, 6, 7), (0, 0, 0), +1),
        )
    )
    return coll, MeasurementSpec.of({2, 3, 5})


class TestCatState:
    def test_bell_phi_plus(self):
        cat = make_bell(1, 2, 0, 0, "+")
        assert cat.particles == (1, 2)
        assert cat.bits == (0, 0)
        assert cat.sign == +1

    def test_bell_psi_minus(self):
        cat = make_bell(1, 2, 0, 1, "-")
        assert cat.bits == (0, 1) and cat.sign == -1

    def test_complement_canonicalization(self):
        cat = make_bell(1, 2, 1, 1, "+")
        assert cat.bits == (0, 0) and cat.sign == +1

    def test_particle_order_normalized(self):
        cat = CatState((5, 2), (1, 0), "+")
        assert cat.particles == (2, 5)
        assert cat.bits == (0, 1)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            make_bell(3, 3, 0, 0, "+")

    def test_single_particle_degenerate(self):
        cat = CatState((4,), (1,), "-")
        assert cat.bits == (0,) and cat.sign == -1

    def test_canonicalize_idempotent(self):
        cat = CatState((1, 2, 3), (0, 1, 0), "-")
        assert canonicalize(cat) == cat
        assert canonicalize(canonicalize(cat)) == cat

    def test_canonicalization_preserves_ray(self):
        # brute-force vectors of the raw and canonical forms agree up to
        # global phase
        for bits, sign in [((1, 0, 1), +1), ((1, 1, 0), -1), ((1,), -1)]:
            particles = tuple(range(10, 10 + len(bits)))
            raw = raw_cat_vector(particles, bits, sign)
            canon = cat_dense_vector(CatState(particles, bits, sign))
            assert abs(abs(np.vdot(raw, canon)) - 1.0) < 1e-12


class TestCollectionsAndSpecs:
    def test_disjointness_enforced(self):
        with pytest.raises(ValueError, match="more than one cat"):
            CatCollection((make_bell(1, 2, 0, 0, "+"), make_bell(2, 3, 0, 0, "+")))

    def test_per_cat_counts(self):
        coll, spec = fig5_scenario()
        assert spec.per_cat_counts(coll) == (1, 1, 1)

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            MeasurementSpec.of(set())

    def test_unknown_particle_rejected(self):
        coll, _ = standard_swap()
        with pytest.raises(ValueError, match="not in the collection"):
            enumerate_outcomes(coll, MeasurementSpec.of({2, 9}))


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
        assert polygon_counts(coll, MeasurementSpec.of({1, 2, 3, 4})) == (4, 0)

    def test_untouched_cats_not_counted(self):
        coll = CatCollection((make_bell(1, 2, 0, 0, "+"), make_bell(3, 4, 0, 0, "+")))
        assert polygon_counts(coll, MeasurementSpec.of({1})) == (1, 1)
        assert untouched_cats(coll, MeasurementSpec.of({1}))[0].particles == (3, 4)


class TestFullConsumption:
    def test_measure_whole_cat(self):
        cat = CatState((1, 2, 3), (0, 1, 1), "-")
        coll = CatCollection((cat,))
        outcomes = enumerate_outcomes(coll, MeasurementSpec.of({1, 2, 3}))
        # compatible pair: only the matching sign survives with probability 1
        assert len(outcomes) == 1
        assert outcomes[0].probability == pytest.approx(1.0, abs=1e-15)
        assert outcomes[0].basis == cat
        assert outcomes[0].residual is None

    def test_projection_onto_wrong_sign_is_zero(self):
        cat = CatState((1, 2, 3), (0, 1, 1), "-")
        coll = CatCollection((cat,))
        spec = MeasurementSpec.of({1, 2, 3})
        flipped = CatState((1, 2, 3), (0, 1, 1), "+")
        assert project_outcome(coll, spec, flipped) is None

    def test_oracle_agreement(self):
        coll = CatCollection((CatState((1, 2, 3), (0, 1, 1), "-"), make_bell(5, 6, 0, 1, "+")))
        ok, message = verify_against_oracle(coll, MeasurementSpec.of({1, 2, 3, 5}))
        assert ok, message

    def test_every_particle_of_two_bells(self):
        # both cats fully consumed: the expansion branches interfere,
        # leaving 2 outcomes at probability 1/2 each
        coll, _ = standard_swap()
        spec = MeasurementSpec.of({1, 2, 3, 4})
        outcomes = enumerate_outcomes(coll, spec)
        assert len(outcomes) == 2
        for o in outcomes:
            assert o.probability == pytest.approx(0.5, abs=1e-15)
            assert o.residual is None
            assert o.basis.sign == +1
        ok, message = verify_against_oracle(coll, spec)
        assert ok, message


class TestProjectOutcome:
    def test_matches_enumeration(self):
        coll, spec = fig5_scenario()
        for outcome in enumerate_outcomes(coll, spec):
            got = project_outcome(coll, spec, outcome.basis)
            assert got == outcome

    def test_incompatible_pattern_zero(self):
        # both Bell pairs have correlated bits; an anti-correlated basis
        # pattern on particles of the same cat cannot appear
        coll = CatCollection((CatState((1, 2, 3), (0, 0, 0), "+"),))
        spec = MeasurementSpec.of({1, 2})
        basis = CatState((1, 2), (0, 1), "+")
        assert project_outcome(coll, spec, basis) is None

    def test_wrong_particle_set_rejected(self):
        coll, spec = standard_swap()
        with pytest.raises(ValueError, match="selects"):
            project_outcome(coll, spec, make_bell(1, 2, 0, 0, "+"))

    def test_sign_bookkeeping_against_oracle(self):
        # initial signs (-, -) with a (+) basis: residual sign comes out
        # of the expansion; trust the dense algebra
        coll = CatCollection((make_bell(1, 2, 0, 0, "-"), make_bell(3, 4, 0, 0, "-")))
        spec = MeasurementSpec.of({2, 3})
        outcome = project_outcome(coll, spec, CatState((2, 3), (0, 0), "+"))
        assert outcome is not None
        assert outcome.residual.sign == +1  # (+) basis times (-)(-) collection
        ok, message = verify_against_oracle(coll, spec)
        assert ok, message


class TestBruteForceOracle:
    def test_size_limit(self):
        cats = tuple(make_bell(2 * i, 2 * i + 1, 0, 0, "+") for i in range(8))
        coll = CatCollection(cats)
        assert coll.n_particles > BRUTE_FORCE_LIMIT
        with pytest.raises(ValueError, match="dense limit"):
            brute_force_oracle(coll, MeasurementSpec.of({0}))

    def test_standard_swap_probabilities(self):
        coll, spec = standard_swap()
        dense = brute_force_oracle(coll, spec)
        assert [o.probability for o in dense] == pytest.approx([0.25] * 4, abs=1e-15)

    def test_residual_vectors_normalized(self):
        coll, spec = fig5_scenario()
        for o in brute_force_oracle(coll, spec):
            assert np.linalg.norm(o.residual_vector) == pytest.approx(1.0, abs=1e-12)


from helpers import random_swap_scenario as random_scenario


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


class TestRandomizedOracleEquivalence:
    def test_fifty_random_scenarios(self):
        # the full 200-scenario sweep runs in the acceptance suite
        rng = np.random.default_rng(2024)
        for _ in range(50):
            coll, spec = random_scenario(rng)
            ok, message = verify_against_oracle(coll, spec)
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
        assert result.measured == (2, 3, 5)
        assert [result.user_particles[u] for u in "ABC"] == [1, 4, 6]

    def test_three_user_request_yields_ghz(self):
        result = telephone_exchange(["A", "B", "C", "D"], ["A", "B", "C"])
        for o in result.outcomes:
            assert o.residual.particles == (1, 4, 6)
            assert o.residual.n_particles == 3
        # D's pair is untouched
        untouched = untouched_cats(result.collection, MeasurementSpec.of(result.measured))
        assert untouched[0].particles == (7, 8)

    def test_single_user_request(self):
        result = telephone_exchange(["A", "B"], ["B"])
        assert len(result.outcomes) == 2
        for o in result.outcomes:
            assert o.residual.n_particles == 1
            assert o.probability == pytest.approx(0.5, abs=1e-15)

    def test_all_users_oracle_check(self):
        for n in (2, 3, 5):
            names = [f"U{i}" for i in range(n)]
            result = telephone_exchange(names, names)
            ok, message = verify_against_oracle(
                result.collection, MeasurementSpec.of(result.measured)
            )
            assert ok, message
            assert all(o.residual.n_particles == n for o in result.outcomes)

    def test_outcome_cap(self):
        # 16 users, all requested: 2^16 outcomes, exactly the cap
        names = [f"U{i}" for i in range(16)]
        assert len(telephone_exchange(names, names).outcomes) == MAX_OUTCOMES
        with pytest.raises(ValueError, match="MAX_OUTCOMES"):
            telephone_exchange(names + ["U16"], names + ["U16"])
        # consumed cats halve the count: 17 fully measured Bell pairs are allowed
        bells = CatCollection(tuple(make_bell(2 * i, 2 * i + 1, 0, 0, +1) for i in range(18)))
        everything = MeasurementSpec.of(range(34))
        assert len(enumerate_outcomes(CatCollection(bells.cats[:17]), everything)) == MAX_OUTCOMES
        with pytest.raises(ValueError, match="MAX_OUTCOMES"):
            enumerate_outcomes(bells, MeasurementSpec.of(range(36)))

    def test_unknown_user(self):
        with pytest.raises(ValueError, match="unknown"):
            telephone_exchange(["A", "B"], ["C"])

    def test_empty_request(self):
        with pytest.raises(ValueError, match="at least one"):
            telephone_exchange(["A", "B"], [])


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
        blob = outcomes_to_jsonable(coll, spec, outcomes)
        assert blob["polygon_counts"] == [2, 2]
        assert len(blob["outcomes"]) == 4
        assert blob["outcomes"][0]["residual"]["particles"] == [1, 4]

    def test_bad_scenarios_rejected(self):
        with pytest.raises(ValueError, match="'cats' and 'measure'"):
            scenario_from_dict({"cats": []})
        with pytest.raises(ValueError, match="bad cat entry"):
            scenario_from_dict({"cats": [{"particles": [1], "bits": [2], "sign": "+"}], "measure": [1]})
