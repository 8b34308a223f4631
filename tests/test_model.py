import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polykin.collide import pair_law
from polykin.model import (
    ContinuousEnergy,
    DiscreteLevels,
    MixtureSpec,
    Monatomic,
    PowerLawE,
    ResonantTensored,
    Species,
    eval_kernel,
    phi_weight,
    reduced_mass,
    single_species,
    spec_from_json,
    spec_to_json,
    validate,
)
from support import bl_spec, discrete_spec, mixture_cont_spec, resonant_spec


class TestPhiWeight:
    def test_delta_two_is_flat(self):
        assert phi_weight(0.0, 2.0) == 1.0
        assert phi_weight(3.7, 2.0) == 1.0

    def test_powers(self):
        assert phi_weight(4.0, 4.0) == pytest.approx(4.0, rel=1e-15)
        assert phi_weight(4.0, 3.0) == pytest.approx(2.0, rel=1e-15)
        assert phi_weight(0.0, 4.0) == 0.0

    def test_zero_energy_below_two_dof_is_domain_error(self):
        with pytest.raises(ValueError):
            phi_weight(0.0, 1.5)

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError):
            phi_weight(-1.0, 2.0)

    def test_vectorized(self):
        I = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(phi_weight(I, 6.0), I**2, rtol=1e-15)

    @given(
        I=st.floats(1e-8, 1e8),
        a=st.floats(1e-6, 1e6),
        delta=st.floats(0.5, 12.0),
    )
    @settings(max_examples=200)
    def test_homogeneous_scaling(self, I, a, delta):
        lhs = phi_weight(a * I, delta)
        rhs = a ** (0.5 * delta - 1.0) * phi_weight(I, delta)
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestReducedMass:
    @given(m=st.floats(-300.0, 300.0).map(lambda e: 10.0**e),
           m_star=st.floats(-300.0, 300.0).map(lambda e: 10.0**e))
    @example(m=1e300, m_star=1e300)
    @example(m=1e-300, m_star=1e-300)
    @example(m=1e-160, m_star=1e-160)
    @example(m=1e154, m_star=1.4e154)
    @settings(max_examples=500)
    def test_symmetric_exact_and_unchanged_where_the_product_is_normal(self, m, m_star):
        mu = reduced_mass(m, m_star)
        assert mu == reduced_mass(m_star, m)
        exact = Fraction(m) * Fraction(m_star) / (Fraction(m) + Fraction(m_star))
        assert abs(Fraction(mu) - exact) <= Fraction(1e-15) * exact
        product = m * m_star
        if math.isfinite(product) and product >= sys.float_info.min:
            assert mu == product / (m + m_star)

    def test_mixture_spec_reads_it(self):
        spec = mixture_cont_spec(m_a=1e-300, m_b=3e-300)
        assert spec.reduced_mass(0, 1) == reduced_mass(1e-300, 3e-300) > 0.0


class TestEvalKernel:
    def test_power_law(self):
        k = PowerLawE(C=2.0, zeta=1.0)
        assert eval_kernel(k, E=4.0) == pytest.approx(4.0)
        assert eval_kernel(PowerLawE(C=3.0, zeta=0.0), E=17.0) == 3.0

    def test_power_law_negative_energy(self):
        with pytest.raises(ValueError):
            eval_kernel(PowerLawE(C=1.0, zeta=1.0), E=-1.0)

    def test_power_law_missing_context(self):
        with pytest.raises(ValueError):
            eval_kernel(PowerLawE(C=1.0, zeta=1.0))

    def test_psi_default_matches_power_law(self):
        point = dict(E=9.0, r=0.3, R=0.7)
        a = eval_kernel(PowerLawE(C=1.5, zeta=1.0, psi=None), **point)
        b = eval_kernel(PowerLawE(C=1.5, zeta=1.0), E=9.0)
        assert a == b

    def test_psi_weight_applied(self):
        psi = lambda r, R: r * (1.0 - r) + R  # symmetric in r <-> 1-r
        point = dict(E=1.0, r=0.25, R=0.5)
        got = eval_kernel(PowerLawE(C=2.0, zeta=0.0, psi=psi), **point)
        assert got == pytest.approx(2.0 * (0.25 * 0.75 + 0.5))

    def test_resonant_indicator_cuts_off(self):
        k = ResonantTensored(C=1.0, zeta2=0.0)
        point = dict(
            rel_speed=2.0, cos_theta=0.0, I=1.0, I_star=1.0, I_prime=3.0, delta=2.0
        )
        assert eval_kernel(k, **point) == 0.0

    def test_resonant_default_value(self):
        # b_kin = |V|, b_int = (I+I_*)^(1 + zeta2/2 - delta) = 2^-1
        k = ResonantTensored(C=1.0, zeta2=0.0)
        point = dict(
            rel_speed=2.0, cos_theta=0.3, I=1.0, I_star=1.0, I_prime=1.0, delta=2.0
        )
        assert eval_kernel(k, **point) == pytest.approx(1.0)

    def test_resonant_optional_terms(self):
        k = ResonantTensored(C=1.0, zeta=0.5, zeta1=0.25, kin_terms=("speed", "sin_neg"))
        point = dict(
            rel_speed=4.0, cos_theta=0.6, I=0.5, I_star=1.5, I_prime=0.25, delta=2.0
        )
        sin = np.sqrt(1 - 0.36)
        expect = (4.0 + sin**-0.25) * 2.0**-1.0
        assert eval_kernel(k, **point) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("terms, kin", [
        # |V|^-zeta = 4^-0.5 and |sin theta| (|V|^2 + 1/|V|) = 0.8 * 16.25
        (("speed_neg",), 0.5),
        (("sin_quad",), 13.0),
        (("speed_neg", "sin_quad"), 13.5),
    ])
    def test_resonant_singular_terms(self, terms, kin):
        k = ResonantTensored(C=3.0, zeta=0.5, kin_terms=terms)
        got = eval_kernel(k, rel_speed=4.0, cos_theta=0.6, I=0.5, I_star=1.5,
                          I_prime=0.25, delta=2.0)
        # b_int = (I + I_*)^(1 + zeta2/2 - delta) = 2^-1
        assert got == pytest.approx(3.0 * kin * 0.5, rel=1e-12)


class TestValidate:
    def test_good_specs_pass(self):
        for spec in (bl_spec(), resonant_spec(), discrete_spec(), mixture_cont_spec()):
            assert validate(spec) == []

    def test_bad_mass(self):
        spec = single_species(ContinuousEnergy(2.0), PowerLawE(1.0, 0.0), mass=-1.0)
        assert any("mass" in e for e in validate(spec))

    @pytest.mark.parametrize("make, word", [
        (lambda: bl_spec(mass=np.inf), "mass"),
        (lambda: bl_spec(delta=np.inf), "delta"),
        (lambda: bl_spec(C=np.nan), "prefactor C"),
        (lambda: bl_spec(C=np.inf), "prefactor C"),
        (lambda: bl_spec(zeta=np.nan), "zeta"),
        (lambda: bl_spec(zeta=-np.inf), "zeta"),
        (lambda: single_species(ContinuousEnergy(2.0), ResonantTensored(1.0, zeta=np.nan)), "zeta"),
        (lambda: single_species(ContinuousEnergy(2.0), ResonantTensored(1.0, zeta1=np.nan)), "zeta1"),
        (lambda: single_species(ContinuousEnergy(2.0), ResonantTensored(1.0, zeta2=-np.inf)), "zeta2"),
    ])
    def test_non_finite_values_rejected(self, make, word):
        errs = validate(make())
        assert any(word in e and "finite" in e for e in errs), errs

    def test_asymmetric_kernels(self):
        ka, kb = PowerLawE(1.0, 0.0), PowerLawE(2.0, 0.0)
        spec = MixtureSpec(
            species=(
                Species("a", 1.0, Monatomic()),
                Species("b", 2.0, Monatomic()),
            ),
            kernels=((ka, ka), (kb, kb)),
        )
        assert any("symmetric" in e for e in validate(spec))

    def test_resonant_on_mixture_rejected(self):
        ker = ResonantTensored(C=1.0)
        spec = MixtureSpec(
            species=(
                Species("a", 1.0, ContinuousEnergy(2.0)),
                Species("b", 2.0, ContinuousEnergy(2.0)),
            ),
            kernels=((ker, ker), (ker, ker)),
        )
        assert any("resonant" in e for e in validate(spec))

    def test_resonant_zeta2_range(self):
        # the H4 window is decided by hypotheses.check_resonant, not here:
        # a well-formed resonant kernel outside it validates
        assert validate(resonant_spec(delta=2.0, zeta2=2.5)) == []
        assert validate(resonant_spec(delta=3.0, zeta2=2.5)) == []

    def test_level_ordering(self):
        spec = single_species(
            DiscreteLevels((0.0, 2.0, 1.0), (1.0, 1.0, 1.0)), PowerLawE(1.0, 0.0)
        )
        assert any("increasing" in e for e in validate(spec))

    def test_duplicate_labels(self):
        ker = PowerLawE(1.0, 0.0)
        spec = MixtureSpec(
            species=(Species("x", 1.0), Species("x", 2.0)),
            kernels=((ker, ker), (ker, ker)),
        )
        assert any("unique" in e for e in validate(spec))


class TestDiscreteLevels:
    def test_table_is_read_only_float_arrays(self):
        levels = DiscreteLevels(energies=(0, 0.7, 1.5), degeneracies=(1, 3, 5))
        E, g = levels.table
        assert E.tolist() == [0.0, 0.7, 1.5] and E.dtype == float
        assert g.tolist() == [1.0, 3.0, 5.0] and g.dtype == float
        for a in levels.table:
            with pytest.raises(ValueError):
                a[0] = 2.0

    def test_table_takes_no_part_in_comparison(self):
        a = DiscreteLevels(energies=(0.0, 1.0), degeneracies=(1.0, 2.0))
        b = DiscreteLevels(energies=(0, 1), degeneracies=(1, 2))
        assert a.table is not b.table
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert "table" not in repr(a)

    def test_pair_law_reads_the_species_tables(self):
        spec = discrete_spec()
        law = pair_law(spec, 0, 0)
        assert law.levels_i is spec.species[0].energy.table is law.levels_j


class TestJsonRoundTrip:
    @pytest.mark.parametrize(
        "spec",
        [
            bl_spec(delta=2.017, zeta=0.537),
            resonant_spec(delta=4.0, zeta2=1.5),
            discrete_spec(),
            mixture_cont_spec(),
            mixture_cont_spec(delta_b=None),
        ],
        ids=["bl", "resonant", "discrete", "mix-poly", "mix-mono"],
    )
    def test_round_trip(self, spec):
        assert spec_from_json(spec_to_json(spec)) == spec

    def test_kernel_spellings_validate_as_one_table(self):
        # psi_weighted without a psi is power_law_e under a second name, so
        # a table spelling one kernel both ways is symmetric
        import json

        doc = json.loads(spec_to_json(mixture_cont_spec(zeta=0.5)))
        doc["kernels"][1][0]["kind"] = "psi_weighted"
        spec = spec_from_json(json.dumps(doc))
        assert validate(spec) == []
        assert spec == mixture_cont_spec(zeta=0.5)
        assert json.loads(spec_to_json(spec))["kernels"][1][0]["kind"] == "power_law_e"

    def test_custom_psi_not_serializable(self):
        spec = single_species(
            ContinuousEnergy(3.0), PowerLawE(C=1.0, zeta=0.5, psi=lambda r, R: r)
        )
        with pytest.raises(ValueError):
            spec_to_json(spec)

    def test_optional_kinetic_terms_not_serializable(self):
        spec = single_species(ContinuousEnergy(2.0),
                              ResonantTensored(C=1.0, kin_terms=("speed", "sin_neg")))
        with pytest.raises(ValueError, match="kinetic terms"):
            spec_to_json(spec)

    def test_field_names(self):
        import json

        doc = json.loads(spec_to_json(bl_spec(delta=2.5, C=2.0, zeta=0.5)))
        assert doc["species"][0]["energy"] == {"kind": "continuous", "delta": 2.5}
        assert doc["kernels"][0][0] == {"kind": "power_law_e", "C": 2.0, "zeta": 0.5}

    @pytest.mark.parametrize("path, drop", [
        ("species[1].energy.delta", lambda doc: doc["species"][1]["energy"].pop("delta")),
        ("species[0].mass", lambda doc: doc["species"][0].pop("mass")),
        ("kernels[1][0].C", lambda doc: doc["kernels"][1][0].pop("C")),
        ("species[0].energy.kind", lambda doc: doc["species"][0]["energy"].update(kind="x")),
        ("species", lambda doc: doc.pop("species")),
        ("kernels", lambda doc: doc.pop("kernels")),
    ])
    def test_missing_fields_name_their_path(self, path, drop):
        import json

        doc = json.loads(spec_to_json(mixture_cont_spec()))
        drop(doc)
        with pytest.raises(ValueError, match="^" + re.escape(path) + ":"):
            spec_from_json(json.dumps(doc))

    @pytest.mark.parametrize("path, edit", [
        ("species[0].mass", lambda doc: doc["species"][0].update(mass=True)),
        ("species[1].mass", lambda doc: doc["species"][1].update(mass="2")),
        ("species[0].energy.delta", lambda doc: doc["species"][0]["energy"].update(delta="2")),
        ("kernels[0][1].C", lambda doc: doc["kernels"][0][1].update(C=True)),
        ("kernels[1][1].zeta", lambda doc: doc["kernels"][1][1].update(zeta=None)),
        ("kernels[0][0].zeta2", lambda doc: doc["kernels"][0].__setitem__(
            0, {"kind": "resonant_tensored", "C": 1.0, "zeta2": False})),
        ("species[0].energy.levels[1][0]", lambda doc: doc["species"][0].update(
            energy={"kind": "discrete", "levels": [[0.0, 1.0], [True, 2.0]]})),
        ("species[0].energy.levels[0][1]", lambda doc: doc["species"][0].update(
            energy={"kind": "discrete", "levels": [[0.0, "1"]]})),
    ])
    def test_non_numbers_name_their_path(self, path, edit):
        # a boolean or a string is not read as a number
        import json

        doc = json.loads(spec_to_json(mixture_cont_spec()))
        edit(doc)
        with pytest.raises(ValueError, match="^" + re.escape(path) + ": .* is not a number$"):
            spec_from_json(json.dumps(doc))

    @pytest.mark.parametrize("text, message", [
        # structure: every object, list and number where the document needs one
        ('[]', "document: [] is not an object"),
        ('{"species": 5, "kernels": []}', "species: 5 is not a list"),
        ('{"species": [5], "kernels": []}', "species[0]: 5 is not an object"),
        ('{"species": [{"label": "a", "mass": 1.0, "energy": 5}], "kernels": []}',
         "species[0].energy: 5 is not an object"),
        ('{"species": [{"label": "a", "mass": 1.0, "energy": {"kind": "discrete", "levels": 5}}],'
         ' "kernels": []}', "species[0].energy.levels: 5 is not a list"),
        ('{"species": [{"label": "a", "mass": 1.0, "energy": {"kind": "discrete",'
         ' "levels": [[0.0, 1.0], 5]}}], "kernels": []}',
         "species[0].energy.levels[1]: 5 is not a list"),
        ('{"species": [{"label": "a", "mass": 1' + "0" * 400 + ', "energy": {"kind": "monatomic"}}],'
         ' "kernels": []}', "species[0].mass: integer too large for a float"),
        ('{"species": [], "kernels": 5}', "kernels: 5 is not a list"),
        ('{"species": [], "kernels": [5]}', "kernels[0]: 5 is not a list"),
        ('{"species": [], "kernels": [[5]]}', "kernels[0][0]: 5 is not an object"),
    ], ids=["top-level-list", "species", "species-entry", "energy", "levels", "level",
            "huge-mass", "kernels", "kernel-row", "kernel"])
    def test_structure_names_its_path(self, text, message):
        with pytest.raises(ValueError) as err:
            spec_from_json(text)
        assert str(err.value) == message
