"""Tests for the dense kernel-matrix assembly and the reduced-integrand
integrability diagnostic."""

import math
import warnings

import numpy as np
import pytest
from scipy import special

from polykin.collide import ParticleState, pair_law
from polykin.equilib import EquilibriumParams, Maxwellian
from polykin.model import (
    ContinuousEnergy,
    PowerLawE,
    ResonantTensored,
    single_species,
)
from polykin.operator import (
    GridSpec,
    QuadratureConfig,
    assemble_k1,
    eval_k,
    k2_integrability_diagnostic,
)
from polykin.operator import k2diag
from polykin.operator.k1matrix import MAX_NODES, reduced_kernel_coefficient
from support import bl_spec, discrete_spec


def maxwellian(delta, zeta, C=1.0, n=1.0, T=1.0):
    spec = bl_spec(delta=delta, C=C, zeta=zeta)
    return Maxwellian(spec, EquilibriumParams.single(n, np.zeros(3), T))


ONES = lambda r, R: np.ones_like(np.asarray(r) * np.asarray(R))


def one_species_law(delta):
    """The pair law of one continuous species, which the kernel leaves alone."""
    return pair_law(bl_spec(delta=delta), 0, 0)


class TestReducedCoefficient:
    def test_frozen_value_at_delta_two(self):
        # B(1,1) = 1 and B(3/2,2) = 4/15, so the coefficient is 16 pi/15.
        got = reduced_kernel_coefficient(PowerLawE(C=1.0, zeta=0.0), one_species_law(2.0))
        assert got == pytest.approx(16.0 * np.pi / 15.0, rel=1e-14)

    def test_scales_linearly_in_prefactor(self):
        a = reduced_kernel_coefficient(PowerLawE(C=1.0, zeta=0.5), one_species_law(3.0))
        b = reduced_kernel_coefficient(PowerLawE(C=2.5, zeta=0.5), one_species_law(3.0))
        assert b == pytest.approx(2.5 * a, rel=1e-14)

    def test_unit_split_weight_matches_closed_form(self):
        law = one_species_law(3.0)
        plain = reduced_kernel_coefficient(PowerLawE(C=1.0, zeta=0.5), law)
        weighted = reduced_kernel_coefficient(PowerLawE(C=1.0, zeta=0.5, psi=ONES), law)
        assert weighted == pytest.approx(plain, rel=1e-12)

    def test_quadratic_split_weight_against_beta_moments(self):
        # psi = r(1-r) shifts both r-exponents by one inside the Beta integral.
        delta = 3.0
        plain = 4.0 * np.pi * special.beta(0.5 * delta + 1, 0.5 * delta + 1) \
            * special.beta(1.5, delta)
        got = reduced_kernel_coefficient(
            PowerLawE(C=1.0, zeta=0.5, psi=lambda r, R: r * (1.0 - r)),
            one_species_law(delta),
        )
        assert got == pytest.approx(plain, rel=1e-10)

    def test_resonant_kernel_is_rejected(self):
        with pytest.raises(ValueError):
            reduced_kernel_coefficient(ResonantTensored(C=1.0), one_species_law(2.0))


class TestK1Spectrum:
    """The symmetric Nystrom matrix A = S K1 S, S = diag(sqrt(w/M)), against
    the finite-rank closed forms of the kernel -nu M^1/2 M_2^1/2 E^(zeta/2).

    At unit mass and temperature E = a(w) + a(w_2) - v.v_2/2 with
    a = |v|^2/4 + I, so K1 has rank one at zeta = 0 (eigenvalue -nu) and
    rank five at zeta = 2: -nu (mu_1 +- sqrt(mu_2)) from the a-block, with
    mu_k = E[a^k], and nu/2 three times from the velocity block.
    """

    @pytest.mark.parametrize("zeta", [0.0, 2.0])
    @pytest.mark.parametrize("delta", [2.0, 3.0])
    def test_eigenvalues_match_the_closed_forms(self, delta, zeta):
        M = maxwellian(delta, zeta)
        nu = pair_law(M.spec, 0, 0).weight
        k1 = assemble_k1(GridSpec(), M)
        s = np.sqrt(k1.weights / k1.m_values)
        eig = np.linalg.eigvalsh(s[:, None] * k1.matrix * s[None, :])
        if zeta == 0.0:
            want = [-nu]
        else:
            mu1 = 0.75 + 0.5 * delta
            mu2 = mu1**2 + 0.375 + 0.5 * delta
            want = [-nu * (mu1 + np.sqrt(mu2)), -nu * (mu1 - np.sqrt(mu2))] + [0.5 * nu] * 3
        by_size = eig[np.argsort(-np.abs(eig))]
        top, rest = np.sort(by_size[: len(want)]), by_size[len(want):]
        np.testing.assert_allclose(top, np.sort(want), rtol=1e-12, atol=0.0)
        assert np.max(np.abs(rest)) <= 1e-12 * nu


class TestK1Assembly:
    M = maxwellian(3.0, 0.5)

    def test_symmetry_is_exact(self):
        k1 = assemble_k1(GridSpec(), self.M)
        assert k1.symmetry_defect() == 0.0

    def test_symmetry_within_contract_tolerance(self):
        k1 = assemble_k1(GridSpec(), maxwellian(2.4, 0.8, T=1.3))
        assert k1.symmetry_defect() <= 1e-8

    def test_entries_are_nonpositive(self):
        k1 = assemble_k1(GridSpec(), self.M)
        assert np.all(k1.matrix <= 0.0)

    def test_weights_resolve_the_density_mass(self):
        k1 = assemble_k1(GridSpec(), self.M)
        assert float(np.sum(k1.weights)) == pytest.approx(1.0, rel=1e-12)

    def test_hs_norm_is_stable_under_refinement(self):
        base = assemble_k1(GridSpec(), self.M).hs_norm()
        refined = assemble_k1(GridSpec().refined(), self.M).hs_norm()
        assert np.isfinite(base) and base > 0.0
        assert abs(refined - base) / base < 0.05

    def test_zero_kernel_gives_zero_matrix(self):
        M0 = maxwellian(3.0, 0.5, C=0.0)
        k1 = assemble_k1(GridSpec(), M0)
        assert np.all(k1.matrix == 0.0)
        assert k1.hs_norm() == 0.0

    def test_row_norms_square_to_the_hs_norm(self):
        k1 = assemble_k1(GridSpec(), self.M)
        total = float(np.sum(k1.weights / k1.m_values * k1.row_norms() ** 2))
        assert np.sqrt(total) == pytest.approx(k1.hs_norm(), rel=1e-12)

    def test_apply_reproduces_the_flat_rate_at_zeta_zero(self):
        # At zeta = 0 the kernel column integral is the constant collision
        # rate, so applying the matrix to sqrt(M) gives -rate * sqrt(M).
        M = maxwellian(3.0, 0.0)
        k1 = assemble_k1(GridSpec(), M)
        rate = 4.0 * np.pi * special.beta(1.5, 1.5) * special.beta(1.5, 3.0)
        got = k1.apply(np.sqrt(k1.m_values))
        np.testing.assert_allclose(got, -rate * np.sqrt(k1.m_values), rtol=1e-12)

    def test_grid_node_bound(self):
        GridSpec().refined()        # 3430 nodes
        GridSpec(10, 10)            # exactly MAX_NODES nodes
        for sizes in [(11, 10), (22, 1), (100_000, 100_000)]:
            with pytest.raises(ValueError, match=f"at most {MAX_NODES}"):
                GridSpec(*sizes)

    def test_apply_validates_shape(self):
        k1 = assemble_k1(GridSpec(2, 2), self.M)
        with pytest.raises(ValueError):
            k1.apply(np.ones(k1.n_nodes + 1))

    def test_matches_monte_carlo_row(self):
        k1 = assemble_k1(GridSpec(), self.M)
        h = lambda v, I: v[:, 0] ** 2 + I
        j = k1.n_nodes // 2 + 3
        w = ParticleState(v=k1.nodes_v[j], I=float(k1.nodes_i[j]))
        mc = eval_k(h, w, 1, self.M, None, QuadratureConfig(n_samples=300_000, seed=11))
        grid = k1.apply(h(k1.nodes_v, k1.nodes_i))[j]
        assert abs(mc.value - grid) <= 5.0 * mc.stderr + 1e-3 * abs(grid)

    def test_split_weight_unit_matches_plain_kernel(self):
        spec = single_species(ContinuousEnergy(3.0), PowerLawE(C=1.0, zeta=0.5, psi=ONES))
        Mp = Maxwellian(spec, EquilibriumParams.single(1.0, np.zeros(3), 1.0))
        a = assemble_k1(GridSpec(), self.M).matrix
        b = assemble_k1(GridSpec(), Mp).matrix
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))

    def test_grid_spec_validation(self):
        with pytest.raises(ValueError):
            GridSpec(0, 4)
        assert GridSpec(6, 8).refined() == GridSpec(7, 10)

    def test_non_continuous_species_rejected(self):
        spec = discrete_spec()
        M = Maxwellian(spec, EquilibriumParams.single(1.0, np.zeros(3), 1.0))
        with pytest.raises(ValueError):
            assemble_k1(GridSpec(), M)


class TestIntegrabilityDiagnostic:
    def test_reference_integrable_point(self):
        diag = k2_integrability_diagnostic(3.0, 0.5)
        assert diag.verdict == "integrable"
        assert diag.cauchy_change < 0.01
        assert not diag.inconsistent
        assert diag.numeric_integrable and diag.analytic_integrable

    def test_reference_divergent_point(self):
        diag = k2_integrability_diagnostic(2.017, 0.537)
        assert diag.verdict == "divergent"
        assert not diag.inconsistent
        # the partial integrals blow up as the cutoff shrinks
        assert all(a < b for a, b in zip(diag.partials, diag.partials[1:]))
        assert diag.partials[-1] / diag.partials[0] > 100.0

    def test_corner_exponents_closed_form(self):
        diag = k2_integrability_diagnostic(3.0, 0.5)
        assert diag.corner_exponents["r -> 0"] == pytest.approx(-0.5, abs=1e-12)
        assert diag.corner_exponents["r -> 1"] == pytest.approx(-0.5, abs=1e-12)
        assert diag.corner_exponents["R -> 0"] == pytest.approx(1.0, abs=1e-12)
        assert diag.corner_exponents["R -> 1"] == pytest.approx(1.0, abs=1e-12)

    def test_mirror_exponents_swap_the_split_edges(self):
        diag = k2_integrability_diagnostic(2.6, 0.3)
        assert diag.corner_exponents["r -> 0 (mirror)"] == diag.corner_exponents["r -> 1"]
        assert diag.corner_exponents["r -> 1 (mirror)"] == diag.corner_exponents["r -> 0"]

    def test_partials_are_positive_and_increasing(self):
        diag = k2_integrability_diagnostic(3.0, 0.5)
        assert all(p > 0 for p in diag.partials)
        assert all(a <= b for a, b in zip(diag.partials, diag.partials[1:]))

    def test_unit_weight_matches_no_weight(self):
        plain = k2_integrability_diagnostic(3.0, 0.5)
        weighted = k2_integrability_diagnostic(3.0, 0.5, psi=ONES)
        assert weighted.verdict == "integrable"
        np.testing.assert_allclose(weighted.partials, plain.partials, rtol=1e-10)
        for key, val in plain.corner_exponents.items():
            assert abs(weighted.corner_exponents[key] - val) < 0.05

    def test_vanishing_weight_tames_divergent_split_edges(self):
        # r(1-r) adds two powers on each r edge, flipping the verdict.
        bare = k2_integrability_diagnostic(2.2, 0.8)
        weighted = k2_integrability_diagnostic(2.2, 0.8, psi=lambda r, R: r * (1.0 - r))
        assert bare.verdict == "divergent"
        assert weighted.verdict == "integrable"
        assert not weighted.inconsistent
        assert weighted.corner_exponents["r -> 0"] == pytest.approx(2.2 / 2 - 2 + 2, abs=0.05)

    def test_sweep_numeric_agrees_with_exponent_rule(self):
        points = [
            # shape/growth pairs with all corner exponents clear of -1
            (2.8, -0.5, "integrable"), (2.8, 0.0, "integrable"),
            (2.8, 0.4, "integrable"), (3.0, 0.5, "integrable"),
            (3.0, 0.0, "integrable"), (3.2, 0.8, "integrable"),
            (3.5, 1.0, "integrable"), (4.0, 1.5, "integrable"),
            (4.0, 0.0, "integrable"), (3.6, -0.8, "integrable"),
            # pairs with at least one corner exponent at or below -1
            (2.017, 0.537, "divergent"), (2.0, 0.0, "divergent"),
            (1.8, 0.0, "divergent"), (1.5, 0.5, "divergent"),
            (2.5, 1.5, "divergent"), (3.0, 1.0, "divergent"),
            (2.2, 0.8, "divergent"), (1.9, -0.5, "divergent"),
            (2.8, 1.2, "divergent"), (3.5, 2.0, "divergent"),
        ]
        assert len(points) == 20
        for delta, zeta, want in points:
            diag = k2_integrability_diagnostic(delta, zeta)
            assert diag.verdict == want, (delta, zeta)
            assert diag.numeric_integrable == diag.analytic_integrable, (delta, zeta)
            assert not diag.inconsistent

    @pytest.mark.parametrize("psi", [None, lambda r, R: 1.0 + r * (1.0 - r) * R],
                             ids=["plain", "psi"])
    @pytest.mark.parametrize("delta, zeta", [(3.0, 100.0), (2.0, 300.0)])
    def test_overflowing_partials_keep_a_finite_cauchy_change(self, delta, zeta, psi):
        # near r = 1 the integrand exceeds the largest double: the partials
        # read inf, the last two are compared through their logs, and no
        # floating-point warning escapes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            diag = k2_integrability_diagnostic(delta, zeta, psi=psi)
        assert diag.partials[-1] == np.inf
        assert diag.cauchy_change == pytest.approx(1.0, abs=1e-6)
        assert diag.verdict == "divergent" and not diag.inconsistent
        assert diag.corner_exponents["r -> 1"] == pytest.approx(delta - 3.0 - zeta, rel=1e-3)

    @pytest.mark.parametrize("zeta", [1e300, 1e307, 1.7e308])
    @pytest.mark.parametrize("psi", [None, lambda r, R: 1.0 + r * (1.0 - r) * R],
                             ids=["plain", "psi"])
    def test_extreme_zeta_reads_divergent_without_a_warning(self, zeta, psi):
        # from zeta = 1e307 the log partials themselves pass the largest
        # double, so the Cauchy change is NaN: never 0, which would pass
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            diag = k2_integrability_diagnostic(2.0, zeta, psi=psi)
        assert diag.verdict == "divergent" and not diag.inconsistent
        if zeta < 1e307:
            assert diag.cauchy_change == pytest.approx(1.0, abs=1e-6)
        else:
            assert math.isnan(diag.cauchy_change)

    @pytest.mark.parametrize("zeta", [0.5, 300.0, 1e300, 1e307, 1.7e308])
    def test_vanishing_psi_is_integrable(self, zeta):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            diag = k2_integrability_diagnostic(2.0, zeta, psi=lambda r, R: 0.0 * r * R)
        assert diag.verdict == "integrable" and not diag.inconsistent
        assert diag.partials == (0.0,) * len(diag.epsilons)
        assert diag.cauchy_change == 0.0

    @pytest.mark.parametrize("zeta", [1e4, 1e5])
    def test_psi_edge_orders_add_to_the_exponent_table(self, zeta):
        # psi = 1 + r(1-r)R is of order 0 on every edge, so each corner
        # exponent is the table's, however steep the opposite edge is
        diag = k2_integrability_diagnostic(9.5, zeta, psi=lambda r, R: 1.0 + r * (1.0 - r) * R)
        for edge, exponent in k2diag._edge_exponents(9.5, 9.5, zeta).items():
            assert diag.corner_exponents[edge] == pytest.approx(exponent, abs=1e-3), edge

    @pytest.mark.parametrize("delta, zeta, psi", [
        (3.0, 0.5, None),
        (2.017, 0.537, None),
        (2.0, 0.0, None),
        (5.0, -0.5, lambda r, R: 1.0 + r * (1.0 - r) * R),
    ])
    def test_partials_match_a_plain_quadrature(self, delta, zeta, psi):
        def g(r, R):
            weight = 1.0 if psi is None else psi(r, R) ** 2
            return (weight * (1.0 - r) ** (delta - 3.0 - zeta) * r ** (delta / 2.0 - 2.0)
                    * R * (1.0 - R) ** (1.5 * delta - 3.0 - zeta))

        want = []
        for eps in k2diag._EPSILONS:
            # fresh nodes for each axis, not the cached ones
            r, wr = k2diag._edge_nodes.__wrapped__(eps)
            R, wR = k2diag._edge_nodes.__wrapped__(eps)
            want.append(wr @ g(r[:, None], R[None, :]) @ wR)
        diag = k2_integrability_diagnostic(delta, zeta, psi)
        np.testing.assert_allclose(diag.partials, want, rtol=1e-12, atol=0.0)
        nodes, weights = k2diag._edge_nodes(k2diag._EPSILONS[0])
        assert k2diag._edge_nodes(k2diag._EPSILONS[0])[0] is nodes
        assert not nodes.flags.writeable and not weights.flags.writeable

    def test_rows_expose_the_epsilon_sequence(self):
        diag = k2_integrability_diagnostic(3.0, 0.5)
        rows = diag.rows()
        assert len(rows) == len(diag.epsilons)
        eps, val = rows[0]
        assert eps == diag.epsilons[0] and val == diag.partials[0]

    def test_input_validation(self):
        with pytest.raises(ValueError, match="^delta must be positive$"):
            k2_integrability_diagnostic(0.0, 0.5)
        with pytest.raises(ValueError, match="^zeta must exceed -1$"):
            k2_integrability_diagnostic(3.0, -1.5)
        for delta in (math.inf, math.nan):
            with pytest.raises(ValueError, match="^delta must be finite$"):
                k2_integrability_diagnostic(delta, 0.5)
        for zeta in (math.inf, math.nan):
            with pytest.raises(ValueError, match="^zeta must be finite$"):
                k2_integrability_diagnostic(3.0, zeta)
        with pytest.raises(ValueError):
            k2_integrability_diagnostic(3.0, 0.5, psi=lambda r, R: r)
