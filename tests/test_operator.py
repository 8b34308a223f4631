"""Monte Carlo estimator tests: exact cancellations, closed-form rates,
linearized-part identities, and reproducibility of the sampling engine."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from polykin.collide import ParticleState, pair_law
from polykin.equilib import EquilibriumParams, Maxwellian, level_weights, maxwellian_eval
from polykin.model import Monatomic, PowerLawE, PsiWeighted, single_species
from polykin.operator import (
    DistributionFn,
    QuadratureConfig,
    collision_frequency,
    entropy_production,
    eval_k,
    eval_q,
    weak_moment,
)
from polykin.operator import mc
from polykin.operator.transitions import make_proposal, sample_state
from support import bl_spec, discrete_spec, mixture_cont_spec, resonant_spec, traced_peak

W_BL = ParticleState(v=np.array([0.4, -0.1, 0.2]), I=0.9)


def equilibrium(spec, n=1.0, T=1.0, u=None):
    u = np.zeros(3) if u is None else np.asarray(u, float)
    return Maxwellian(spec, EquilibriumParams.single(n, u, T))


def two_temperature(spec, T_kin, T_int, n=1.0):
    return Maxwellian(spec, EquilibriumParams(n=(n,), u=np.zeros(3), T_kin=T_kin, T_int=T_int))


class TestEngine:
    spec = bl_spec(delta=2.5, zeta=0.6)
    M = two_temperature(spec, 1.0, 1.4)

    @pytest.fixture(autouse=True, params=[(10_000, 6), (mc._CHUNK_SIZE, 4)],
                    ids=["small-chunks", "default-chunks"])
    def _chunks(self, request, monkeypatch):
        # six chunks of 10k samples, or four at the module's own size, so
        # the thread pool has work to share
        self.chunk_size, self.n_chunks = request.param
        monkeypatch.setattr(mc, "_CHUNK_SIZE", self.chunk_size)

    def _run(self, **kw):
        cfg = QuadratureConfig(n_samples=self.n_chunks * self.chunk_size, seed=7, **kw)
        return eval_q(DistributionFn(self.M), DistributionFn(self.M), W_BL, cfg)

    def test_rerun_is_bitwise_identical(self):
        a, b = self._run(), self._run()
        assert a.value == b.value and a.stderr == b.stderr

    def test_thread_count_does_not_change_the_result(self):
        a = self._run()
        for threads in (2, 4):
            c = self._run(threads=threads)
            assert c.value == a.value and c.stderr == a.stderr

    def test_chunked_estimate_combines_all_samples(self):
        est = self._run()
        assert est.n_samples == self.n_chunks * self.chunk_size
        assert est.diagnostics["n_chunks"] == self.n_chunks

    def test_config_validation(self):
        with pytest.raises(ValueError):
            QuadratureConfig(n_samples=0)
        for threads in (0, -1):
            with pytest.raises(ValueError, match="threads"):
                QuadratureConfig(n_samples=10, threads=threads)


class TestChunkMemory:
    """A thread's live arrays are bounded by one chunk, not by the sample
    budget: at 2.5e5 samples one 250k-row chunk peaks at 56-65 MB."""

    M = TestEngine.M
    cfg = QuadratureConfig(n_samples=250_000, seed=1)

    def test_weak_moment(self):
        f = DistributionFn(self.M)
        assert traced_peak(lambda: weak_moment(f, lambda v, I: I, self.cfg)) < 24e6

    def test_collision_frequency(self):
        assert traced_peak(lambda: collision_frequency(W_BL, self.M, None, self.cfg)) < 24e6


class TestOverflowSafeReduction:
    """Sums of squared deviations that overflow are carried with a scale."""

    @pytest.fixture(autouse=True)
    def _small_chunks(self, monkeypatch):
        monkeypatch.setattr(mc, "_CHUNK_SIZE", 10_000)

    @staticmethod
    def _run(factor, threads=1):
        def sampler(rng, n):
            return factor * (3.0 + rng.standard_normal(n)), {}
        return mc.accumulate(sampler, QuadratureConfig(n_samples=55_000, seed=3, threads=threads))

    def test_scaled_values_scale_the_estimate(self):
        plain, big = self._run(1.0), self._run(2.0**1000)
        assert big.value == 2.0**1000 * plain.value
        assert big.stderr == pytest.approx(2.0**1000 * plain.stderr, rel=1e-14, abs=0.0)
        assert self._run(2.0**1000, threads=2).stderr == big.stderr

    def test_huge_rate_has_a_finite_standard_error(self):
        # a resonant gas at delta = 1e-300 has a rate near 4e301, whose
        # squared deviations overflow
        M = equilibrium(resonant_spec(delta=1e-300))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = collision_frequency(ParticleState(np.zeros(3), I=0.5), M, None,
                                      QuadratureConfig(n_samples=20_000, seed=1))
        assert 1e301 < est.value < 1e302
        assert 0.0 < est.stderr < 0.01 * est.value


class TestDetailedBalance:
    """At equilibrium the gain and loss factors agree samplewise, so the
    estimate is exactly zero with zero spread."""

    def _assert_exact_zero(self, est, live=None):
        assert est.value == 0.0
        assert est.stderr == 0.0
        if live is not None:
            assert est.diagnostics["snapped"] == live

    def test_exchange_family(self):
        M = equilibrium(bl_spec(delta=2.5, zeta=0.6))
        f = DistributionFn(M)
        est = eval_q(f, f, W_BL, QuadratureConfig(n_samples=100_000, seed=1))
        self._assert_exact_zero(est, live=100_000)

    def test_resonant_family_with_unequal_temperatures(self):
        M = two_temperature(resonant_spec(delta=2.0), 1.0, 1.7)
        f = DistributionFn(M)
        est = eval_q(f, f, W_BL, QuadratureConfig(n_samples=100_000, seed=2))
        self._assert_exact_zero(est, live=100_000)

    def test_discrete_family(self):
        M = equilibrium(discrete_spec(zeta=0.3))
        f = DistributionFn(M)
        w = ParticleState(v=np.array([0.2, 0.1, -0.3]), level=1)
        est = eval_q(f, f, w, QuadratureConfig(n_samples=100_000, seed=3))
        live = 100_000 - est.diagnostics["inadmissible"]
        assert est.diagnostics["inadmissible"] > 0
        self._assert_exact_zero(est, live=live)

    @pytest.mark.parametrize("pair", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_mixture_branches(self, pair):
        spec = mixture_cont_spec(delta_a=2.4, delta_b=None, m_a=2.0, m_b=1.0, zeta=0.2)
        M = Maxwellian(spec, EquilibriumParams(n=(0.6, 0.4), u=np.zeros(3), T_kin=1.0, T_int=1.0))
        f = DistributionFn(M, species=pair[0])
        g = DistributionFn(M, species=pair[1])
        w = (
            ParticleState(v=np.array([0.1, 0.5, 0.0]), species=0, I=0.8)
            if pair[0] == 0
            else ParticleState(v=np.array([-0.2, 0.3, 0.1]), species=1)
        )
        est = eval_q(f, g, w, QuadratureConfig(n_samples=60_000, seed=4))
        self._assert_exact_zero(est, live=60_000)

    def test_poly_poly_cross_species(self):
        spec = mixture_cont_spec(delta_a=2.0, delta_b=3.2, m_a=1.0, m_b=3.0, zeta=0.5)
        M = Maxwellian(spec, EquilibriumParams(n=(0.5, 0.5), u=np.zeros(3), T_kin=0.9, T_int=0.9))
        f = DistributionFn(M, species=0)
        g = DistributionFn(M, species=1)
        w = ParticleState(v=np.array([0.3, 0.0, -0.4]), species=0, I=1.1)
        est = eval_q(f, g, w, QuadratureConfig(n_samples=60_000, seed=5))
        self._assert_exact_zero(est, live=60_000)

    def test_zero_kernel_gives_exact_zero(self):
        M = equilibrium(bl_spec(delta=3.0))
        f = DistributionFn(M)
        est = eval_q(f, f, W_BL, QuadratureConfig(n_samples=5_000, seed=6),
                     kernel=PowerLawE(C=0.0, zeta=0.0))
        assert est.value == 0.0 and est.stderr == 0.0

    def test_off_equilibrium_is_resolved(self):
        M = two_temperature(bl_spec(delta=2.5, zeta=0.6), 1.0, 1.4)
        f = DistributionFn(M)
        est = eval_q(f, f, W_BL, QuadratureConfig(n_samples=100_000, seed=7))
        assert est.stderr > 0.0
        assert abs(est.value) > 5 * est.stderr

    @settings(max_examples=15, deadline=None)
    @given(
        vx=st.floats(-2.5, 2.5),
        vy=st.floats(-2.5, 2.5),
        i_val=st.floats(1e-3, 6.0),
        seed=st.integers(0, 2**31),
    )
    def test_equilibrium_cancellation_for_random_states(self, vx, vy, i_val, seed):
        M = equilibrium(bl_spec(delta=2.2, zeta=0.4))
        f = DistributionFn(M)
        w = ParticleState(v=np.array([vx, vy, 0.1]), I=i_val)
        est = eval_q(f, f, w, QuadratureConfig(n_samples=2_000, seed=seed))
        assert est.value == 0.0 and est.stderr == 0.0


class TestCollisionFrequency:
    def test_maxwell_molecule_closed_form(self):
        # zeta = 0, delta = 2, C = n = 1: the exchange-weight integral
        # factorizes into Beta functions and the rate is 16 pi / 15.
        ref = 16.0 * np.pi / 15.0
        M = equilibrium(bl_spec(delta=2.0, zeta=0.0))
        est = collision_frequency(W_BL, M, None, QuadratureConfig(n_samples=200_000, seed=1))
        tol = max(3.0 * est.stderr, 1e-10 * ref)
        assert abs(est.value - ref) <= tol
        assert abs(est.value - ref) <= 0.01 * ref

    def test_rate_is_independent_of_the_probed_state_at_zeta_zero(self):
        M = equilibrium(bl_spec(delta=2.0, zeta=0.0))
        cfg = QuadratureConfig(n_samples=50_000, seed=2)
        w2 = ParticleState(v=np.array([-1.2, 0.8, 0.3]), I=2.4)
        a = collision_frequency(W_BL, M, None, cfg)
        b = collision_frequency(w2, M, None, cfg)
        assert a.value == pytest.approx(b.value, rel=1e-9)

    def test_closed_form_at_other_shape_parameters(self):
        # For zeta = 0 the rate is 4 pi C n B(d/2, d/2) B(3/2, d) at any d.
        delta, C, n = 3.0, 0.7, 0.8
        ref = 4.0 * np.pi * C * n * special.beta(1.5, 1.5) * special.beta(1.5, 3.0)
        M = equilibrium(bl_spec(delta=delta, C=C), n=n, T=1.3)
        est = collision_frequency(W_BL, M, None, QuadratureConfig(n_samples=200_000, seed=3))
        assert abs(est.value - ref) <= max(3.0 * est.stderr, 1e-10 * ref)

    def test_vacuum_and_zero_prefactor(self):
        M0 = equilibrium(bl_spec(delta=2.0), n=0.0)
        est = collision_frequency(W_BL, M0, None, QuadratureConfig(n_samples=5_000, seed=4))
        assert est.value == 0.0 and est.stderr == 0.0
        M = equilibrium(bl_spec(delta=2.0))
        est = collision_frequency(W_BL, M, PowerLawE(C=0.0, zeta=0.0),
                                  QuadratureConfig(n_samples=5_000, seed=4))
        assert est.value == 0.0 and est.stderr == 0.0

    def test_positive_whenever_prefactor_and_density_are(self):
        M = equilibrium(bl_spec(delta=2.7, zeta=0.8), n=0.3)
        est = collision_frequency(W_BL, M, None, QuadratureConfig(n_samples=20_000, seed=5))
        assert est.value > 0.0

    def test_small_delta_partners_drawn_at_zero_energy(self):
        # at delta = 0.02 some partner draws underflow to I = 0, where the
        # density of I is infinite; at zeta = 0 the rate is the pair weight
        spec = bl_spec(delta=0.02)
        M = equilibrium(spec)
        est = collision_frequency(ParticleState(np.zeros(3), I=0.5), M,
                                  cfg=QuadratureConfig(10_000, seed=1))
        assert np.isfinite(est.value) and np.isfinite(est.stderr)
        assert est.value == pytest.approx(pair_law(spec, 0, 0).weight, rel=1e-12)

    def test_mixture_rate_sums_partner_species(self):
        spec = mixture_cont_spec(delta_a=2.4, delta_b=None, m_a=2.0, m_b=1.0, zeta=0.0)
        M = Maxwellian(spec, EquilibriumParams(n=(0.6, 0.4), u=np.zeros(3), T_kin=1.0, T_int=1.0))
        w = ParticleState(v=np.array([0.1, 0.5, 0.0]), species=0, I=0.8)
        est = collision_frequency(w, M, None, QuadratureConfig(n_samples=60_000, seed=6))
        assert est.value > 0.0 and np.isfinite(est.stderr)

    @pytest.mark.parametrize("make_spec", [bl_spec, resonant_spec], ids=["exchange", "resonant"])
    @pytest.mark.parametrize("delta", [1e4, 1e300])
    def test_weight_that_underflows_gives_exact_zero_quietly(self, make_spec, delta):
        # the split's Beta function underflows to 0, and so does the rate
        M = equilibrium(make_spec(delta=delta))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = collision_frequency(W_BL, M, None, QuadratureConfig(n_samples=2_000, seed=1))
        assert est.value == 0.0 and est.stderr == 0.0

    def test_weight_that_overflows_is_rejected(self):
        # at delta = 1e-300 the exchange weight overflows to inf
        M = equilibrium(bl_spec(delta=1e-300))
        with pytest.raises(FloatingPointError, match="non-finite estimator values"):
            collision_frequency(W_BL, M, None, QuadratureConfig(n_samples=2_000, seed=1))


class TestResonantClosedForm:
    """At zeta2 = 0 the resonant rate at a fixed state w against equilibrium
    partners is 4 pi C B(delta/2, delta/2) n E|v - v_*| E[(I + I_*)^(1 - delta)].

    The split I' / (I + I_*) is drawn from Beta(delta/2, delta/2), so its
    weight over the proposal is constant; a uniform draw would leave it the
    weight x^p (1 - x)^p, p = delta/2 - 1, whose variance is infinite at
    delta <= 1, where the seeds would scatter beyond their standard errors.
    """

    T_kin, T_int = 1.0, 1.4
    SEEDS = range(8)

    def closed_form(self, delta):
        # the mean speed of a unit-mass Maxwellian shifted by w's velocity
        s = np.linalg.norm(W_BL.v) / np.sqrt(self.T_kin)
        speed = np.sqrt(self.T_kin) * (np.sqrt(2.0 / np.pi) * np.exp(-0.5 * s * s)
                                       + (s + 1.0 / s) * special.erf(s / np.sqrt(2.0)))
        # I_* = T_int y with y ~ Gamma(a); u = y^a takes the density's
        # singularity at 0 out of the integrand
        a = 0.5 * delta
        moment, _ = integrate.quad(
            lambda u: (W_BL.I + self.T_int * u ** (1.0 / a)) ** (1.0 - delta)
            * np.exp(-u ** (1.0 / a)), 0.0, np.inf)
        return 4.0 * np.pi * special.beta(a, a) * speed * moment / special.gamma(a + 1.0)

    def estimates(self, delta):
        M = two_temperature(resonant_spec(delta=delta), self.T_kin, self.T_int)
        return [collision_frequency(W_BL, M, None, QuadratureConfig(n_samples=200_000, seed=s))
                for s in self.SEEDS]

    @pytest.mark.parametrize("delta, rate", [(0.6, 135.880), (1.0, 65.181), (3.0, 1.9465)])
    def test_every_seed_within_its_standard_error(self, delta, rate):
        ref = self.closed_form(delta)
        assert ref == pytest.approx(rate, rel=5e-5)
        for est in self.estimates(delta):
            assert abs(est.value - ref) <= 3.5 * est.stderr

    def test_seed_spread_matches_the_standard_error_below_delta_one(self):
        ests = self.estimates(0.6)
        spread = np.std([e.value for e in ests], ddof=1)
        assert spread <= 1.5 * np.median([e.stderr for e in ests])


class TestWeakMoments:
    spec = bl_spec(delta=2.5, zeta=0.6, mass=2.0)
    m = 2.0
    f_eq = DistributionFn(equilibrium(spec))
    f_hot = DistributionFn(two_temperature(spec, 1.0, 1.5))

    def test_invariants_vanish_exactly(self):
        cfg = QuadratureConfig(n_samples=100_000, seed=1)
        tests = {
            "number": lambda v, I: np.ones(len(v)),
            "momentum_x": lambda v, I: self.m * v[:, 0],
            "total_energy": lambda v, I: 0.5 * self.m * np.sum(v * v, -1) + I,
        }
        for name, psi in tests.items():
            est = weak_moment(self.f_hot, psi, cfg)
            assert est.value == 0.0 and est.stderr == 0.0, name
            assert est.diagnostics["defect_zero"] == 100_000

    def test_resonant_internal_energy_is_separately_conserved(self):
        f = DistributionFn(two_temperature(resonant_spec(delta=2.0), 1.0, 1.6))
        est = weak_moment(f, lambda v, I: I, QuadratureConfig(n_samples=100_000, seed=2))
        assert est.value == 0.0 and est.stderr == 0.0

    def test_kinetic_energy_flows_toward_the_cold_mode(self):
        cfg = QuadratureConfig(n_samples=150_000, seed=3)
        kin = weak_moment(self.f_hot, lambda v, I: 0.5 * self.m * np.sum(v * v, -1), cfg)
        assert kin.value > 3.0 * kin.stderr
        internal = weak_moment(self.f_hot, lambda v, I: I, cfg)
        assert internal.value < -3.0 * internal.stderr
        total = kin.value + internal.value
        assert abs(total) <= 3.0 * np.hypot(kin.stderr, internal.stderr) + 1e-14


class TestEntropyProduction:
    spec = bl_spec(delta=2.5, zeta=0.6)

    def test_zero_at_equilibrium(self):
        f = DistributionFn(equilibrium(self.spec))
        est = entropy_production(f, QuadratureConfig(n_samples=100_000, seed=1))
        assert est.value == 0.0 and est.stderr == 0.0
        assert est.diagnostics["negative_terms"] == 0

    def test_positive_for_half_temperature_split(self):
        f = DistributionFn(two_temperature(self.spec, 1.0, 1.5))
        est = entropy_production(f, QuadratureConfig(n_samples=150_000, seed=2))
        assert est.value > 3.0 * est.stderr
        assert est.diagnostics["negative_terms"] == 0

    def test_every_sampled_term_is_nonnegative(self):
        for seed, (tk, ti) in enumerate([(1.0, 0.5), (2.0, 1.0), (1.0, 3.0)]):
            f = DistributionFn(two_temperature(self.spec, tk, ti))
            est = entropy_production(f, QuadratureConfig(n_samples=30_000, seed=seed))
            assert est.diagnostics["negative_terms"] == 0
            assert est.value >= 0.0


class TestLinearizedParts:
    spec = bl_spec(delta=2.0, zeta=0.0)
    M = equilibrium(spec)

    def _sqrt_m(self, v, I):
        return np.exp(0.5 * np.asarray(self.M.log_density(v, I, 0), float))

    def test_zero_function_gives_zero(self):
        cfg = QuadratureConfig(n_samples=5_000, seed=1)
        for part in (1, 2, 3):
            est = eval_k(lambda v, I: np.zeros(len(v)), W_BL, part, self.M, None, cfg)
            assert est.value == 0.0 and est.stderr == 0.0

    def test_parts_sum_to_rate_on_weighted_invariant(self):
        # On sqrt(M) times a collision invariant the compact part equals
        # the multiplicative part, so the three pieces sum to nu * h(w).
        cfg = QuadratureConfig(n_samples=100_000, seed=2)
        nu = collision_frequency(W_BL, self.M, None, cfg)
        parts = [eval_k(self._sqrt_m, W_BL, p, self.M, None, cfg) for p in (1, 2, 3)]
        total = sum(p.value for p in parts)
        se = np.sqrt(sum(p.stderr**2 for p in parts) + nu.stderr**2)
        ref = nu.value * float(self._sqrt_m(W_BL.v[None, :], np.array([W_BL.I]))[0])
        assert abs(total - ref) <= max(3.0 * se, 1e-10 * abs(ref))

    def test_parts_sum_on_energy_invariant_generic_exponent(self):
        spec = bl_spec(delta=2.5, zeta=0.6)
        M = equilibrium(spec)
        sqrt_m = lambda v, I: np.exp(0.5 * np.asarray(M.log_density(v, I, 0), float))
        h = lambda v, I: (0.5 * np.sum(v * v, -1) + I) * sqrt_m(v, I)
        cfg = QuadratureConfig(n_samples=200_000, seed=3)
        nu = collision_frequency(W_BL, M, None, cfg)
        parts = [eval_k(h, W_BL, p, M, None, cfg) for p in (1, 2, 3)]
        total = sum(p.value for p in parts)
        se = np.sqrt(sum(p.stderr**2 for p in parts) + nu.stderr**2)
        ref = nu.value * float(h(W_BL.v[None, :], np.array([W_BL.I]))[0])
        assert abs(total - ref) <= max(4.0 * se, 1e-8 * abs(ref))

    def test_part_id_is_validated(self):
        cfg = QuadratureConfig(n_samples=100, seed=0)
        with pytest.raises(ValueError):
            eval_k(self._sqrt_m, W_BL, 4, self.M, None, cfg)


class TestScopeAndErrors:
    def test_mixed_kind_pair_is_rejected(self):
        from polykin.model import (
            ContinuousEnergy,
            DiscreteLevels,
            MixtureSpec,
            Species,
        )

        ker = PowerLawE(1.0, 0.0)
        spec = MixtureSpec(
            species=(
                Species(label="c", mass=1.0, energy=ContinuousEnergy(2.0)),
                Species(label="d", mass=1.0, energy=DiscreteLevels((0.0, 0.5), (1.0, 1.0))),
            ),
            kernels=((ker, ker), (ker, ker)),
        )
        M = Maxwellian(spec, EquilibriumParams(n=(1.0, 1.0), u=np.zeros(3), T_kin=1.0, T_int=1.0))
        w = ParticleState(v=np.zeros(3), species=0, I=0.5)
        with pytest.raises(ValueError):
            eval_q(DistributionFn(M, 0), DistributionFn(M, 1), w,
                   QuadratureConfig(n_samples=100, seed=0))

    @pytest.mark.parametrize("delta_a, delta_b", [(None, None), (2.0, None), (None, 2.5)],
                             ids=["mono-mono", "poly-mono", "mono-poly"])
    def test_split_weight_needs_an_energy_split(self, delta_a, delta_b):
        from polykin.model import ContinuousEnergy, MixtureSpec, Species

        def energy(delta):
            return Monatomic() if delta is None else ContinuousEnergy(delta)

        psi = lambda r, R: np.ones_like(np.asarray(r) * np.asarray(R))
        ker = PsiWeighted(1.0, 0.0, psi=psi)
        spec = MixtureSpec(
            species=(Species(label="a", mass=1.0, energy=energy(delta_a)),
                     Species(label="b", mass=2.0, energy=energy(delta_b))),
            kernels=((ker, ker), (ker, ker)),
        )
        M = Maxwellian(spec, EquilibriumParams(n=(1.0, 1.0), u=np.zeros(3), T_kin=1.0, T_int=1.0))
        w = ParticleState(v=np.zeros(3), species=0, I=None if delta_a is None else 0.5)
        with pytest.raises(ValueError, match="needs an energy-split variable"):
            eval_q(DistributionFn(M, 0), DistributionFn(M, 1), w,
                   QuadratureConfig(n_samples=100, seed=0))

    def test_negative_distribution_is_rejected(self):
        M = equilibrium(bl_spec(delta=2.0))
        bad = DistributionFn(
            M, h=lambda v, I: -10.0 * np.exp(0.5 * np.asarray(M.log_density(v, I, 0), float))
        )
        with pytest.raises(ValueError):
            eval_q(bad, bad, W_BL, QuadratureConfig(n_samples=1_000, seed=0))

    def test_perturbed_distribution_drives_a_signed_response(self):
        M = equilibrium(bl_spec(delta=2.0))
        sqrt_m = lambda v, I: np.exp(0.5 * np.asarray(M.log_density(v, I, 0), float))
        f = DistributionFn(M, h=lambda v, I: 0.3 * (v[:, 0] ** 2 - 0.5) * sqrt_m(v, I))
        est = eval_q(f, f, W_BL, QuadratureConfig(n_samples=150_000, seed=9))
        assert est.stderr > 0.0
        assert np.isfinite(est.value)


def test_partner_levels_above_a_raised_ground():
    # every g exp(-E/T_int) underflows; the draw weights levels from the lowest
    spec = discrete_spec(energies=(1000.0, 1001.1), degeneracies=(2.0, 3.0))
    M = equilibrium(spec)
    prop = make_proposal(M, (0, 0))
    v, lev, log_q = sample_state(prop, 0, np.random.default_rng(3), 4000)
    p1 = 3.0 * np.exp(-1.1) / (2.0 + 3.0 * np.exp(-1.1))
    assert abs(np.mean(lev == 1) - p1) < 0.03
    np.testing.assert_allclose(log_q, M.log_density(v, lev), rtol=1e-13)


class TestOneSamplerOneReader:
    """The proposal draws through ``Maxwellian.sample``, and every estimator
    reads a fixed state through ``collide.internal_variable``."""

    specs = {
        "monatomic": single_species(Monatomic(), PowerLawE(C=1.0, zeta=0.0), mass=1.5),
        "continuous": bl_spec(delta=2.5),
        "discrete": discrete_spec(),
    }

    @pytest.mark.parametrize("kind", ["monatomic", "continuous", "discrete"])
    def test_sample_state_draws_through_the_maxwellian(self, kind):
        M = two_temperature(self.specs[kind], 1.3, 0.8)
        prop = make_proposal(M, (0, 0))
        v, internal, log_q = sample_state(prop, 0, np.random.default_rng(5), 500)
        v_ref, internal_ref = M.sample(np.random.default_rng(5), 500, 0)
        np.testing.assert_array_equal(v, v_ref)
        expected = M._kin_log(v, 0)
        if kind == "monatomic":
            assert internal is None and internal_ref is None
        else:
            np.testing.assert_array_equal(internal, internal_ref)
        if kind == "continuous":
            expected = expected + M._int_log(internal, 0)
        if kind == "discrete":
            w = level_weights(M.spec.species[0].energy, M.params.T_int)
            expected = expected + np.log(w / w.sum())[internal]
        np.testing.assert_array_equal(log_q, expected)

    @pytest.mark.parametrize("kind, state", [
        ("continuous", ParticleState(v=np.zeros(3))),
        ("discrete", ParticleState(v=np.zeros(3))),
        ("monatomic", ParticleState(v=np.zeros(3), I=0.5)),
    ])
    def test_every_reader_rejects_a_mismatched_state(self, kind, state):
        M = equilibrium(self.specs[kind])
        f = DistributionFn(M)
        cfg = QuadratureConfig(n_samples=100, seed=0)
        readers = [
            lambda: maxwellian_eval(M, state),
            lambda: eval_q(f, f, state, cfg),
            lambda: collision_frequency(state, M, cfg=cfg),
        ]
        messages = set()
        for read in readers:
            with pytest.raises(ValueError) as info:
                read()
            messages.add(str(info.value))
        assert len(messages) == 1
