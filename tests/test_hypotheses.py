"""Verdict tests for the kernel growth-condition checks."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polykin.hypotheses import (
    TABLE1,
    HypothesisId,
    Verdict,
    check,
    check_discrete,
    check_mixture,
    check_monatomic,
    check_resonant,
    check_single,
    table1_report,
)
from polykin.operator import k2_integrability_diagnostic
from polykin.operator.k2diag import _edge_exponents

H = HypothesisId
NAN, INF = float("nan"), float("inf")


class TestIds:
    def test_parse_accepts_short_and_long_names(self):
        assert H.parse("H2") is H.H2_single_BL
        assert H.parse("h4") is H.H4_resonant
        assert H.parse("H7_mixture_Psi") is H.H7_mixture_Psi

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError):
            H.parse("H9")

    def test_one_to_one_with_seven_families(self):
        assert sorted(m.value for m in H) == [f"H{k}" for k in range(1, 8)]


class TestSingleSpecies:
    def test_nitrogen_parameters_satisfy_the_energy_bound(self):
        v = check_single(2.017, 0.537, H.H2_single_BL)
        assert v.satisfied
        assert v.binding_condition == "delta >= 2"

    def test_nitrogen_parameters_fail_the_split_weight_bound(self):
        v = check_single(2.017, 0.537, H.H3_single_Psi)
        assert not v.satisfied
        assert v.binding_condition == "delta > 2.537"
        slacks = dict(v.margins)
        assert slacks["delta > 2.537"] == pytest.approx(-0.52)

    def test_hydrogen_fails_both(self):
        assert not check_single(1.940, 0.608, H.H2_single_BL).satisfied
        assert not check_single(1.940, 0.608, H.H3_single_Psi).satisfied

    def test_h2_boundaries(self):
        assert check_single(2.0, 0.5, H.H2_single_BL).satisfied  # delta = 2 included
        assert check_single(3.0, 2.0, H.H2_single_BL).satisfied  # zeta = 2 included
        assert not check_single(3.0, 2.2, H.H2_single_BL).satisfied
        assert not check_single(3.0, -1.0, H.H2_single_BL).satisfied  # strict lower end

    def test_h2_extended_window(self):
        assert not check_single(3.0, 2.5, H.H2_single_BL).satisfied
        v = check_single(3.0, 2.5, H.H2_single_BL, extended=True)
        assert v.satisfied
        assert ("zeta <= 4", 1.5) in v.margins

    def test_h3_reference_point(self):
        assert check_single(3.0, 0.5, H.H3_single_Psi).satisfied

    def test_h3_strict_at_the_coupling_boundary(self):
        assert not check_single(2.5, 0.5, H.H3_single_Psi).satisfied

    def test_h3_agrees_with_the_integrability_diagnostic(self):
        for delta, zeta in [(2.8, -0.5), (3.0, 0.5), (4.0, 1.5), (2.017, 0.537),
                            (2.0, 0.0), (2.2, 0.8), (3.5, 2.0), (1.8, 0.0)]:
            want = k2_integrability_diagnostic(delta, zeta).analytic_integrable
            got = check_single(delta, zeta, H.H3_single_Psi).satisfied
            assert got == want, (delta, zeta)

    def test_h3_with_custom_weight_delegates_to_the_diagnostic(self):
        bare = check_single(2.2, 0.8, H.H3_single_Psi)
        weighted = check_single(2.2, 0.8, H.H3_single_Psi, psi=lambda r, R: r * (1 - r))
        assert not bare.satisfied
        assert weighted.satisfied
        assert any("mirror" in text for text, _ in weighted.margins)

    def test_h3_custom_weight_still_needs_the_growth_floor(self):
        v = check_single(3.0, -1.5, H.H3_single_Psi, psi=lambda r, R: r * (1 - r))
        assert not v.satisfied
        assert v.binding_condition == "zeta > -1"

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            check_single(0.0, 0.5, H.H2_single_BL)
        with pytest.raises(ValueError):
            check_single(2.0, 0.5, H.H4_resonant)

    @settings(max_examples=60, deadline=None)
    @given(
        zeta=st.floats(-0.9, 2.5),
        d0=st.floats(0.1, 6.0),
        step=st.floats(0.0, 4.0),
    )
    def test_h3_is_monotone_in_delta(self, zeta, d0, step):
        lo = check_single(d0, zeta, H.H3_single_Psi).satisfied
        hi = check_single(d0 + step, zeta, H.H3_single_Psi).satisfied
        assert not (lo and not hi)


class TestResonant:
    def test_interior_point(self):
        assert check_resonant(2.0, 0.0, 0.0, 0.0).satisfied

    def test_tensor_exponent_boundary_is_excluded(self):
        v = check_resonant(2.0, 0.0, 0.0, 2.0)
        assert not v.satisfied
        assert v.binding_condition == "zeta2 < 2"

    def test_angular_exponent_cap(self):
        assert not check_resonant(2.0, 0.0, 0.6, 0.0).satisfied
        assert not check_resonant(2.0, 0.0, 0.5, 0.0).satisfied

    def test_speed_exponent_window(self):
        assert check_resonant(2.0, 0.9, 0.2, 1.5).satisfied
        assert not check_resonant(2.0, 1.0, 0.0, 0.0).satisfied
        assert not check_resonant(2.0, -0.1, 0.0, 0.0).satisfied

    def test_lower_tensor_boundary(self):
        assert not check_resonant(3.0, 0.0, 0.0, -3.0).satisfied
        assert check_resonant(3.0, 0.0, 0.0, -2.9).satisfied


class TestDiscrete:
    def test_window(self):
        assert check_discrete(0.5).satisfied
        assert check_discrete(1.0).satisfied  # inclusive upper end
        assert not check_discrete(1.2).satisfied
        assert not check_discrete(-1.0).satisfied  # strict lower end


class TestMixture:
    def test_h6_boundary_shapes_pass(self):
        out = check_mixture([2.0, 2.0], 0.5, H.H6_mixture_BL)
        assert len(out) == 4
        assert all(v.satisfied for v in out.values())

    def test_h6_strict_exponent_window(self):
        assert not all(v.satisfied for v in check_mixture([2.0, 2.0], 0.0, H.H6_mixture_BL).values())
        assert not all(v.satisfied for v in check_mixture([2.0, 2.0], 1.0, H.H6_mixture_BL).values())

    def test_h6_flags_small_shape_parameters(self):
        out = check_mixture([1.9, 2.5], 0.5, H.H6_mixture_BL)
        assert not out[(0, 1)].satisfied
        assert not out[(0, 0)].satisfied

    def test_h7_difference_condition_arithmetic(self):
        out = check_mixture([2.0, 3.0], 0.5, H.H7_mixture_Psi)
        slacks = dict(out[(0, 1)].margins)
        assert slacks["delta[0] - delta[1] <= 2.5"] == pytest.approx(3.5)
        slacks_rev = dict(out[(1, 0)].margins)
        assert slacks_rev["delta[1] - delta[0] <= 2.5"] == pytest.approx(1.5)

    def test_h7_large_shape_gap_fails(self):
        out = check_mixture([2.0, 5.0], 0.5, H.H7_mixture_Psi)
        v = out[(1, 0)]
        assert not v.satisfied
        assert dict(v.margins)["delta[1] - delta[0] <= 2.5"] == pytest.approx(-0.5)

    def test_h7_satisfied_deep_inside(self):
        out = check_mixture([4.0, 4.0], 0.5, H.H7_mixture_Psi)
        assert all(v.satisfied for v in out.values())

    def test_h7_single_species_reduces_to_h3(self):
        for delta, zeta in [(3.0, 0.5), (2.017, 0.537), (4.0, 1.5), (2.5, 0.5)]:
            pair = check_mixture([delta], zeta, H.H7_mixture_Psi)[(0, 0)]
            single = check_single(delta, zeta, H.H3_single_Psi)
            assert pair.satisfied == single.satisfied, (delta, zeta)

    def test_dimension_and_symmetry_validation(self):
        with pytest.raises(ValueError):
            check_mixture([2.0, 3.0], np.ones((3, 3)) * 0.5, H.H6_mixture_BL)
        with pytest.raises(ValueError):
            check_mixture([2.0, 3.0], np.array([[0.5, 0.4], [0.3, 0.5]]), H.H6_mixture_BL)
        with pytest.raises(ValueError):
            check_mixture([], 0.5, H.H6_mixture_BL)

    @pytest.mark.parametrize("hyp", [H.H6_mixture_BL, H.H7_mixture_Psi])
    @pytest.mark.parametrize("deltas", [[0.0], [2.0, -1.0], [2.0, float("nan")]])
    def test_nonpositive_delta_rejected(self, hyp, deltas):
        with pytest.raises(ValueError, match="delta must be positive"):
            check_mixture(deltas, 0.5, hyp)


class TestOneEdgeTable:
    """H7's edge conditions read the K2 edge-exponent table of the pair."""

    # each H7 edge condition of the pair (0, 0) and the K2 edge it bounds
    EDGE_OF = {
        "(1-r) exponent delta[0]/2 - 2 > -1": "r -> 1 (mirror)",
        "r exponent (delta[0]+delta[0])/2 - 3 - zeta > -1": "r -> 0 (mirror)",
        "(1-r) exponent delta[0] - 3 - zeta > -1": "r -> 1",
        "r exponent delta[0]/2 - 2 > -1": "r -> 0",
        "(1-R) exponent delta[0]/2 + delta[0] - 3 - zeta > -1": "R -> 1",
    }

    @pytest.mark.parametrize("delta, zeta", [(3.0, 0.5), (2.017, 0.537), (1.5, -0.5),
                                             (9.5, 2.0), (0.5, 0.0)])
    def test_equal_shapes_give_the_k2_exponents_plus_one(self, delta, zeta):
        # the mixture hypothesis reduces to the single-species one: at
        # delta_i = delta_j every edge margin is a K2 corner exponent + 1,
        # and only the R -> 0 edge, a fixed power 1, is left unbounded
        edges = check_mixture([delta], zeta, H.H7_mixture_Psi)[(0, 0)].margins[4:]
        exps = k2_integrability_diagnostic(delta, zeta).corner_exponents
        assert [text for text, _ in edges] == list(self.EDGE_OF)
        assert set(exps) - set(self.EDGE_OF.values()) == {"R -> 0"}
        for text, margin in edges:
            assert margin == pytest.approx(exps[self.EDGE_OF[text]] + 1.0, rel=1e-14, abs=1e-14)

    def test_margins_and_exponents_keep_their_rounding(self):
        # the expressions each was written as before they shared one table
        rng = np.random.default_rng(21)
        points = [(2.017, 2.017, 0.537), (1.939, 9.5, 0.608), (9.5, 1.5, -0.5)]
        points += [tuple(10.0 ** rng.uniform(-6, 6, 3)) for _ in range(1000)]
        points += [(*rng.uniform(0.1, 12.0, 2), rng.uniform(-0.99, 4.0)) for _ in range(1000)]
        for di, dj, z in points:
            out = check_mixture([di, dj], [[z, z], [z, z]], H.H7_mixture_Psi)
            for (i, j), verdict in out.items():
                a, b = (di, dj)[i], (di, dj)[j]
                assert [m for _, m in verdict.margins[4:]] == [
                    0.5 * b - 1.0, 0.5 * (a + b) - 2.0 - z, b - 2.0 - z,
                    0.5 * a - 1.0, 0.5 * a + b - 2.0 - z]
            assert _edge_exponents(di, di, z) == {
                "r -> 0": 0.5 * di - 2.0,
                "r -> 1": di - 3.0 - z,
                "R -> 0": 1.0,
                "R -> 1": 1.5 * di - 3.0 - z,
                "r -> 0 (mirror)": di - 3.0 - z,
                "r -> 1 (mirror)": 0.5 * di - 2.0,
            }


@pytest.mark.parametrize("call, name", [
    (lambda: check_single(2.0, NAN), "zeta"),
    (lambda: check_single(INF, 0.5, H.H3_single_Psi), "delta"),
    (lambda: check_single(3.0, NAN, H.H3_single_Psi, psi=lambda r, R: 1.0 + 0 * r), "zeta"),
    (lambda: check_resonant(2, INF, 0, 0), "zeta"),
    (lambda: check_resonant(2, 0, NAN, 0), "zeta1"),
    (lambda: check_resonant(2, 0, 0, -INF), "zeta2"),
    (lambda: check_discrete(NAN), "zeta"),
    (lambda: check_mixture([2, 3], NAN, H.H7_mixture_Psi), "zeta[0][0]"),
    (lambda: check_mixture([2, 3], [[0.5, INF], [INF, 0.5]], H.H6_mixture_BL), "zeta[0][1]"),
    (lambda: check_mixture([2, INF], 0.5, H.H7_mixture_Psi), "delta[1]"),
])
def test_non_finite_input_is_named(call, name):
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be finite$"):
        call()


class TestDispatchAndSerialization:
    def test_dispatcher_routes_every_id(self):
        assert check(H.H1_monatomic).binding_condition.startswith("not applicable")
        assert check(H.H2_single_BL, delta=2.017, zeta=0.537).satisfied
        assert not check(H.H3_single_Psi, delta=2.017, zeta=0.537).satisfied
        assert check(H.H4_resonant, delta=2.0, zeta=0.0).satisfied
        assert check(H.H5_discrete, zeta=0.5).satisfied
        out = check(H.H6_mixture_BL, delta=[2.0, 2.0], zeta=0.5)
        assert all(v.satisfied for v in out.values())

    @pytest.mark.parametrize("hyp", [h for h in H if h not in (H.H1_monatomic, H.H5_discrete)])
    def test_missing_parameters_named_delta_first(self, hyp):
        # the missing parameter is named before any range check runs
        for kw in ({}, {"zeta": 0.5}, {"delta": None, "zeta": None}):
            with pytest.raises(ValueError, match=f"^delta is required for {hyp.value}$"):
                check(hyp, **kw)
        for delta in (2.5, -1.0, [2.0, 0.0]):
            with pytest.raises(ValueError, match=f"^zeta is required for {hyp.value}$"):
                check(hyp, delta=delta)

    @pytest.mark.parametrize("hyp", [H.H2_single_BL, H.H3_single_Psi, H.H4_resonant])
    def test_sequence_parameter_named(self, hyp):
        # named before any range check, a missing parameter before a sequence
        for kw, name in (({"delta": [2.0, 3.0], "zeta": 0.5}, "delta"),
                         ({"delta": 2.0, "zeta": [0.5]}, "zeta"),
                         ({"delta": np.array([-1.0]), "zeta": [-5.0]}, "delta")):
            with pytest.raises(ValueError, match=f"^{name} must be one number for {hyp.value}"):
                check(hyp, **kw)
        with pytest.raises(ValueError, match=f"^zeta is required for {hyp.value}$"):
            check(hyp, delta=[2.0, 3.0])

    def test_discrete_window_rejects_a_sequence_zeta_only(self):
        with pytest.raises(ValueError, match="^zeta must be one number for H5"):
            check(H.H5_discrete, zeta=[0.5])
        assert check(H.H5_discrete, delta=[2.0, 3.0], zeta=0.5) == check_discrete(0.5)

    @pytest.mark.parametrize("hyp", [H.H6_mixture_BL, H.H7_mixture_Psi])
    def test_mixture_windows_take_a_sequence_delta(self, hyp):
        out = check(hyp, delta=[2.0, 3.0], zeta=0.5)
        assert sorted(out) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_discrete_window_needs_only_zeta(self):
        with pytest.raises(ValueError, match="^zeta is required for H5$"):
            check(H.H5_discrete, delta=2.0)
        assert check(H.H5_discrete, zeta=0.5) == check_discrete(0.5)
        assert check(H.H1_monatomic, delta=None, zeta=None) == check_monatomic()

    def test_monatomic_bound_is_not_applicable_here(self):
        v = check_monatomic()
        assert not v.satisfied
        assert v.margins == ()

    def test_json_shape(self):
        v = check_single(2.017, 0.537, H.H3_single_Psi)
        doc = json.loads(v.to_json())
        assert list(doc) == ["hypothesis", "satisfied", "binding_condition", "margins"]
        assert doc["hypothesis"] == "H3"
        assert doc["satisfied"] is False
        assert ["delta > 2.537", pytest.approx(-0.52)] in [
            [t, m] for t, m in doc["margins"]
        ]

    def test_binding_condition_is_one_of_the_margins(self):
        for v in [
            check_single(2.5, 1.3, H.H2_single_BL),
            check_single(3.2, 0.9, H.H3_single_Psi),
            check_resonant(2.0, 0.4, 0.3, 1.0),
            check_discrete(0.2),
        ]:
            assert isinstance(v, Verdict)
            assert v.binding_condition in {text for text, _ in v.margins}


class TestTable1:
    def test_eight_rows_with_frozen_constants(self):
        assert len(TABLE1) == 8
        by_key = {(e.gas, e.pressure_bar): e for e in TABLE1}
        assert by_key[("N2", 1.0)].delta == 2.017
        assert by_key[("N2", 1.0)].zeta == 0.537
        assert by_key[("N2", 0.092)].delta == 2.007
        assert by_key[("O2", 1.0)].zeta == 0.443
        assert by_key[("O2", 1.0)].zeta_chapman_cowling == 0.454
        assert by_key[("CO", 0.092)].zeta == 0.524
        assert by_key[("H2", 0.092)].delta == 1.939
        assert by_key[("H2", 1.0)].t_interval == (300.0, 890.0)

    def test_verdict_pattern(self):
        for row in table1_report():
            expect_h2 = row.entry.gas != "H2"
            assert row.h2.satisfied is expect_h2, row.entry
            assert row.h3.satisfied is False, row.entry

    def test_report_is_pure(self):
        assert table1_report() == table1_report()
