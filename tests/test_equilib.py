import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from polykin.collide import ParticleState
from polykin.equilib import (
    EquilibriumParams,
    Maxwellian,
    detailed_balance_residual,
    equilibrium_moments,
    internal_temperature,
    maxwellian_eval,
    mean_internal_energy,
    partition_function,
    psi_res,
)
from polykin.model import ContinuousEnergy, DiscreteLevels, Monatomic, phi_weight
from support import (
    bl_spec,
    discrete_spec,
    equilibrium_collisions_bl,
    equilibrium_collisions_discrete,
    equilibrium_collisions_resonant,
    mixture_cont_spec,
    mixture_disc_spec,
    resonant_spec,
)

U0 = np.zeros(3)


class TestPartitionFunction:
    def test_continuous_frozen(self):
        # Gamma(2) * (k_B T)^2 with k_B T = 2 -> 4
        assert partition_function(ContinuousEnergy(4.0), 2.0) == pytest.approx(4.0, rel=1e-14)

    def test_continuous_vs_quadrature(self):
        delta, T = 2.017, 1.7
        q_closed = partition_function(ContinuousEnergy(delta), T)
        q_num, err = quad(lambda I: phi_weight(I, delta) * np.exp(-I / T), 0, np.inf)
        assert q_closed == pytest.approx(q_num, rel=1e-10)

    def test_discrete_two_level(self):
        E0 = 1.3
        q = partition_function(DiscreteLevels((0.0, E0), (1.0, 1.0)), 1.0)
        assert q == pytest.approx(1.0 + np.exp(-E0), rel=1e-14)

    def test_monatomic(self):
        assert partition_function(Monatomic(), 3.0) == 1.0

    @pytest.mark.parametrize("delta, T", [(400.0, 1.0), (4.0, 1e300)],
                             ids=["gamma", "power"])
    def test_overflow_is_inf(self, delta, T):
        assert partition_function(ContinuousEnergy(delta), T) == math.inf


class TestEquilibriumParams:
    @pytest.mark.parametrize("kwargs, word", [
        ({"T_kin": np.nan}, "temperatures"),
        ({"T_int": np.inf}, "temperatures"),
        ({"n": (np.nan,)}, "densities"),
        ({"n": (np.inf,)}, "densities"),
        ({"u": np.array([np.nan, 0.0, 0.0])}, "drift"),
        ({"u": np.array([0.0, -np.inf, 0.0])}, "drift"),
    ])
    def test_non_finite_values_rejected(self, kwargs, word):
        args = {"n": (1.0,), "u": U0, "T_kin": 1.0, "T_int": 1.0, **kwargs}
        with pytest.raises(ValueError, match=word):
            EquilibriumParams(**args)


class TestPsiRes:
    def test_frozen_value(self):
        # delta = 4, Z = 1: integral of I(Z - I) over [0, 1] = 1/6
        assert psi_res(1.0, 4.0) == pytest.approx(1.0 / 6.0, rel=1e-14)

    def test_vs_quadrature(self):
        delta, Z = 2.017, 3.0
        got = psi_res(Z, delta)
        ref, err = quad(
            lambda I: phi_weight(I, delta) * phi_weight(Z - I, delta), 0, Z,
            points=[0, Z], limit=200,
        )
        assert got == pytest.approx(ref, rel=1e-9)

    def test_scaling_in_Z(self):
        got = psi_res(np.array([1.0, 2.0]), 3.0)
        assert got[1] / got[0] == pytest.approx(2.0**2.0, rel=1e-13)

    @pytest.mark.parametrize("delta", [180.0, 250.0, 400.0])
    def test_large_delta_where_gamma_overflows(self, delta):
        Z = np.array([1.0, 1.3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = psi_res(Z, delta)
        ref = math.exp(2.0 * math.lgamma(0.5 * delta) - math.lgamma(delta)) * Z ** (delta - 1.0)
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=0.0)


class TestMaxwellianDensity:
    def test_frozen_peak_value(self):
        # delta = 2, k_B T = 1, n = 1, m = 1 at v = u, I = 0 -> (1/2pi)^(3/2)
        spec = bl_spec(delta=2.0)
        M = Maxwellian(spec, EquilibriumParams.single(1.0, U0, 1.0))
        got = M.density(U0, 0.0)
        assert got == pytest.approx((1.0 / (2 * np.pi)) ** 1.5, rel=1e-13)

    def test_mass_normalization_continuous(self):
        spec = bl_spec(delta=2.017, mass=1.3)
        n, T = 0.7, 1.9
        M = Maxwellian(spec, EquilibriumParams.single(n, np.array([0.1, -0.2, 0.3]), T))
        # separable product of 1D integrals as an independent oracle
        m = 1.3
        gx = lambda x: np.exp(-m * x**2 / (2 * T))
        Ix, _ = quad(gx, -40, 40)
        II, _ = quad(lambda I: phi_weight(I, 2.017) * np.exp(-I / T), 0, np.inf)
        pref = n * (m / (2 * np.pi * T)) ** 1.5 / (
            partition_function(ContinuousEnergy(2.017), T)
        )
        mass = pref * Ix**3 * II
        assert mass == pytest.approx(n, rel=1e-10)

    def test_grid_moments(self):
        # Trapezoid quadrature of the implementation's density over a 2D
        # slice (v_x, I) at v_y = u_y, v_z = u_z.  The I axis is sampled as
        # I = y^2 so the sqrt cusp of the weight does not spoil convergence.
        spec = bl_spec(delta=3.0, mass=2.0)
        n, T, m = 1.0, 0.8, 2.0
        u = np.array([0.2, 0.0, -0.1])
        M = Maxwellian(spec, EquilibriumParams.single(n, u, T))
        xs = u[0] + np.linspace(-6, 6, 801)
        ys = np.linspace(1e-8, np.sqrt(40 * T), 2001)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        v = np.stack([X, np.full_like(X, u[1]), np.full_like(X, u[2])], axis=-1)
        f = M.density(v.reshape(-1, 3), (Y**2).ravel()).reshape(X.shape)
        f *= 2 * Y  # dI = 2 y dy
        mass_2d = np.trapezoid(np.trapezoid(f, ys, axis=1), xs)
        # remaining v_y, v_z Gaussian factors integrate to 2*pi*k_B*T/m
        assert mass_2d * (2 * np.pi * T / m) == pytest.approx(n, rel=1e-6)
        var = np.trapezoid(np.trapezoid((X - u[0]) ** 2 * f, ys, axis=1), xs) / mass_2d
        assert var == pytest.approx(T / m, rel=1e-6)
        meanI = np.trapezoid(np.trapezoid(Y**2 * f, ys, axis=1), xs) / mass_2d
        assert meanI == pytest.approx(1.5 * T, rel=1e-6)

    def test_discrete_levels_sum_to_density(self):
        spec = discrete_spec()
        n, T = 2.0, 1.1
        M = Maxwellian(spec, EquilibriumParams.single(n, U0, T))
        xs = np.linspace(-10, 10, 1001)
        g1 = np.exp(-(xs**2) / (2 * T))
        Zv3 = np.trapezoid(g1, xs) ** 3
        tot = 0.0
        for k in range(3):
            tot += float(M.density(U0 * 0 + np.array([0.0, 0, 0]), k)) * 0  # keep simple below
        dens = sum(
            float(np.exp(M._int_log(k, 0))) for k in range(3)
        )
        assert dens == pytest.approx(1.0, rel=1e-12)  # Gibbs weights normalize
        peak = M.density(U0, 0)
        expect = n * (1 / (2 * np.pi * T)) ** 1.5 * np.exp(M._int_log(0, 0))
        assert peak == pytest.approx(float(expect), rel=1e-12)

    def test_two_temperature_reduces_to_single(self):
        spec = resonant_spec(delta=2.5)
        a = Maxwellian(spec, EquilibriumParams(n=(1.0,), u=U0, T_kin=1.3, T_int=1.3))
        b = Maxwellian(spec, EquilibriumParams.single(1.0, U0, 1.3))
        v = np.array([0.4, -0.2, 1.0])
        assert a.density(v, 0.7) == pytest.approx(b.density(v, 0.7), rel=1e-14)

    def test_maxwellian_eval_state(self):
        spec = discrete_spec()
        M = Maxwellian(spec, EquilibriumParams.single(1.0, U0, 1.0))
        s = ParticleState(v=np.array([0.1, 0.2, 0.3]), level=1)
        assert maxwellian_eval(M, s) == pytest.approx(float(M.density(s.v, 1)), rel=1e-15)

    def test_sampling_moments(self):
        spec = bl_spec(delta=2.6, mass=1.7)
        T = 1.4
        M = Maxwellian(spec, EquilibriumParams.single(1.0, np.array([0.5, 0, 0]), T))
        rng = np.random.default_rng(123)
        v, I = M.sample(rng, 200_000)
        assert v[:, 0].mean() == pytest.approx(0.5, abs=0.01)
        assert (1.7 * v.var(axis=0)).mean() == pytest.approx(T, rel=0.01)
        assert I.mean() == pytest.approx(0.5 * 2.6 * T, rel=0.01)


class TestDetailedBalance:
    N = 50_000
    TOL = 1e-12

    def _check(self, M, pre, post, species=(0, 0)):
        rel = detailed_balance_residual(M, pre, post, species)
        assert np.abs(rel).max() <= self.TOL

    def test_bl_family(self):
        M = Maxwellian(bl_spec(delta=2.4), EquilibriumParams.single(1.2, U0, 0.9))
        rng = np.random.default_rng(21)
        pre, post = equilibrium_collisions_bl(M, self.N, rng)
        self._check(M, pre, post)

    def test_resonant_two_temperature(self):
        M = Maxwellian(
            resonant_spec(delta=3.0),
            EquilibriumParams(n=(1.0,), u=np.array([0.3, 0, 0]), T_kin=2.0, T_int=0.7),
        )
        rng = np.random.default_rng(22)
        pre, post = equilibrium_collisions_resonant(M, self.N, rng)
        self._check(M, pre, post)

    def test_discrete_family(self):
        M = Maxwellian(discrete_spec(), EquilibriumParams.single(1.0, U0, 1.3))
        rng = np.random.default_rng(23)
        pre, post = equilibrium_collisions_discrete(M, self.N, rng)
        self._check(M, pre, post)

    def test_mixture_all_branches(self):
        spec = mixture_cont_spec(delta_a=2.2, delta_b=None, m_a=1.0, m_b=3.0)
        M = Maxwellian(spec, EquilibriumParams.single((0.8, 1.5), U0, 1.1))
        rng = np.random.default_rng(24)
        for pair in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            pre, post = equilibrium_collisions_bl(M, self.N, rng, pair)
            self._check(M, pre, post, pair)

    def test_discrete_mixture(self):
        spec = mixture_disc_spec()
        M = Maxwellian(spec, EquilibriumParams.single((1.0, 0.5), U0, 0.9))
        rng = np.random.default_rng(25)
        pre, post = equilibrium_collisions_discrete(M, self.N, rng, (0, 1))
        self._check(M, pre, post, (0, 1))

    def test_off_equilibrium_residual_is_nonzero(self):
        M = Maxwellian(
            bl_spec(delta=2.4),
            EquilibriumParams(n=(1.0,), u=U0, T_kin=2.0, T_int=1.0),
        )
        rng = np.random.default_rng(26)
        pre, post = equilibrium_collisions_bl(M, 1000, rng)
        rel = detailed_balance_residual(M, pre, post)
        assert np.abs(rel).max() > 1e-3


class TestMoments:
    def test_two_level_mean_internal(self):
        E0, T = 1.0, 1.0
        got = mean_internal_energy(DiscreteLevels((0.0, E0), (1.0, 1.0)), T)
        assert got == pytest.approx(E0 / (1.0 + np.exp(E0 / T)), rel=1e-14)

    def test_continuous_mean(self):
        assert mean_internal_energy(ContinuousEnergy(2.017), 2.0) == pytest.approx(2.017)

    def test_equilibrium_moments_summary(self):
        p = EquilibriumParams(n=(2.0,), u=np.array([1.0, 0, 0]), T_kin=1.5, T_int=0.5)
        s = equilibrium_moments(p, ContinuousEnergy(4.0))
        assert s.n == 2.0
        assert s.T_velocity == 1.5
        assert s.mean_internal == pytest.approx(1.0)

    def test_internal_temperature_round_trip_continuous(self):
        e = ContinuousEnergy(2.7)
        T = 1.37
        assert internal_temperature(e, mean_internal_energy(e, T)) == pytest.approx(T, rel=1e-12)

    def test_internal_temperature_round_trip_discrete(self):
        e = DiscreteLevels((0.0, 0.7, 1.8), (1.0, 2.0, 1.0))
        T = 0.9
        got = internal_temperature(e, mean_internal_energy(e, T))
        assert got == pytest.approx(T, rel=1e-9)

    @pytest.mark.parametrize("T", [0.05, 1.0, 20.0])
    def test_internal_temperature_round_trip_above_a_raised_ground(self, T):
        # every g exp(-E/T) underflows at the root bracket's cold end
        e = DiscreteLevels((0.1, 1.1), (2.0, 3.0))
        got = internal_temperature(e, mean_internal_energy(e, T))
        assert got == pytest.approx(T, rel=1e-9)

    def test_cold_sample_above_a_raised_ground(self):
        spec = discrete_spec(energies=(1000.0, 1001.1), degeneracies=(2.0, 3.0))
        M = Maxwellian(spec, EquilibriumParams.single((1.0,), U0, 1e-4))
        _, levels = M.sample(np.random.default_rng(0), 1000)
        assert np.all(levels == 0)

    def test_log_density_above_a_raised_ground(self):
        # the partition function itself underflows to 0 here
        spec = discrete_spec(energies=(1000.0, 1001.1), degeneracies=(2.0, 3.0))
        M = Maxwellian(spec, EquilibriumParams.single((1.0,), U0, 1.0))
        got = M.log_density(np.zeros((2, 3)), np.array([0, 1]))
        want = (1.5 * np.log(1.0 / (2.0 * np.pi)) + np.log([2.0, 3.0]) - np.array([0.0, 1.1])
                - np.log(2.0 + 3.0 * np.exp(-1.1)))
        np.testing.assert_allclose(got, want, rtol=1e-13)

    def test_internal_temperature_saturation(self):
        e = DiscreteLevels((0.0, 1.0), (1.0, 1.0))
        assert internal_temperature(e, 0.5) == np.inf

    def test_internal_temperature_at_the_ground_level_is_zero(self):
        e = DiscreteLevels((0.2, 1.0), (1.0, 3.0))
        assert internal_temperature(e, 0.2) == 0.0
        assert internal_temperature(DiscreteLevels((0.0,), (1.0,)), 0.0) == 0.0
        with pytest.raises(ValueError, match="below the ground level"):
            internal_temperature(e, 0.2 - 1e-12)


class TestZeroDensityAndSmallDelta:
    @pytest.mark.parametrize("v, internal", [(U0, 0.5), (np.zeros((4, 3)), np.full(4, 0.5))])
    def test_zero_density_log_density_has_the_positive_density_shape(self, v, internal):
        spec = mixture_cont_spec(delta_b=None)
        M0 = Maxwellian(spec, EquilibriumParams(n=(0.0, 1.0), u=U0, T_kin=1.0, T_int=1.0))
        M1 = Maxwellian(spec, EquilibriumParams(n=(1.0, 1.0), u=U0, T_kin=1.0, T_int=1.0))
        got, ref = M0.log_density(v, internal), M1.log_density(v, internal)
        assert np.shape(got) == np.shape(ref) and type(got) is type(ref)
        assert np.all(np.isneginf(got))
        assert np.all(M0.density(v, internal) == 0.0)

    def test_zero_density_runs_the_internal_state_checks(self):
        spec = mixture_cont_spec(delta_b=None)
        M = Maxwellian(spec, EquilibriumParams(n=(1.0, 0.0), u=U0, T_kin=1.0, T_int=1.0))
        with pytest.raises(ValueError, match="monatomic species carries no internal state"):
            M.log_density(U0, 0.5, species=1)
        with pytest.raises(ValueError, match="monatomic species carries no internal state"):
            M.density(U0, 0.5, species=1)
        assert np.isneginf(M.log_density(U0, None, species=1))

    def test_small_delta_draws_are_positive(self):
        # gamma(0.01) underflows to exactly 0 in about 0.06% of draws
        M = Maxwellian(bl_spec(delta=0.02), EquilibriumParams.single(1.0, U0, 1.0))
        _, I = M.sample(np.random.default_rng(1), 100_000)
        assert np.all(I > 0.0)
        assert np.count_nonzero(I == np.finfo(float).smallest_subnormal) > 10
        assert np.all(np.isfinite(M.log_density(np.zeros((I.size, 3)), I)))

    @pytest.mark.parametrize("delta", [2.0, 3.0])
    def test_draws_at_delta_two_and_above_are_the_gamma_draws(self, delta):
        M = Maxwellian(bl_spec(delta=delta), EquilibriumParams.single(1.0, U0, 1.3))
        _, I = M.sample(np.random.default_rng(2), 10_000)
        rng = np.random.default_rng(2)
        rng.normal(0.0, 1.0, (10_000, 3))
        assert np.array_equal(I.view(np.uint64), rng.gamma(0.5 * delta, 1.3, 10_000).view(np.uint64))
