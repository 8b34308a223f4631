"""End-to-end acceptance checks, one test per contract item.

Each test asserts a headline property of the toolkit at a fixed tolerance:
equilibrium detailed balance, collision-rule conservation, microreversible
round trips, the reference-gas hypothesis verdicts, parameter-fit recovery,
the closed-form collision frequency, weak-form invariants and entropy
production, particle relaxation to equipartition, kernel integrability
verdicts, the discretized linear-operator matrix, and bitwise determinism.
Run with ``pytest -v`` for one pass/fail line per item.
"""

import numpy as np
import pytest

from polykin import fitlab, relax
from polykin.collide import ParticleState, bl_poly_poly, inverse_parameters, pair_law, unit_vector
from polykin.equilib import EquilibriumParams, Maxwellian, detailed_balance_residual
from polykin.hypotheses import TABLE1, HypothesisId, check
from polykin.model import ContinuousEnergy, Monatomic, PowerLawE, single_species
from polykin.operator import (
    DistributionFn,
    GridSpec,
    QuadratureConfig,
    assemble_k1,
    collision_frequency,
    entropy_production,
    k2_integrability_diagnostic,
    weak_moment,
)
from support import (
    bl_spec,
    discrete_spec,
    equilibrium_collisions_bl,
    equilibrium_collisions_discrete,
    equilibrium_collisions_resonant,
    mixture_cont_spec,
    resonant_spec,
    uniform_sphere,
)

N_BALANCE = 1_000_000
N_ROUNDTRIP = 100_000
U0 = np.zeros(3)


def monatomic_only_spec(mass=1.4):
    return single_species(Monatomic(), PowerLawE(C=1.0, zeta=0.0), mass=mass)


def _internal_array(spec, species_idx, aux):
    """Internal energy per particle from the sampler's auxiliary column."""
    sp = spec.species[species_idx]
    if aux is None:
        return 0.0
    if sp.polyatomic and hasattr(sp.energy, "energies"):
        return np.asarray(sp.energy.energies, float)[aux]
    if sp.polyatomic:
        return np.asarray(aux, float)
    return 0.0


def _pair_defects(spec, species, pre, post):
    """Vectorized relative momentum / energy defects for a collision batch."""
    i, j = species
    m1, m2 = spec.species[i].mass, spec.species[j].mass
    (v1, a1), (v2, a2) = pre
    (w1, b1), (w2, b2) = post
    dp = (m1 * w1 + m2 * w2) - (m1 * v1 + m2 * v2)
    p_scale = m1 * np.linalg.norm(v1, axis=1) + m2 * np.linalg.norm(v2, axis=1)
    kin_pre = 0.5 * m1 * np.sum(v1 * v1, -1) + 0.5 * m2 * np.sum(v2 * v2, -1)
    kin_post = 0.5 * m1 * np.sum(w1 * w1, -1) + 0.5 * m2 * np.sum(w2 * w2, -1)
    int_pre = _internal_array(spec, i, a1) + _internal_array(spec, j, a2)
    int_post = _internal_array(spec, i, b1) + _internal_array(spec, j, b2)
    e_tot = kin_pre + np.broadcast_to(np.asarray(int_pre, float), kin_pre.shape)
    de = (kin_post + int_post) - e_tot
    dkin = kin_post - kin_pre
    dint = np.broadcast_to(np.asarray(int_post - int_pre, float), kin_pre.shape)
    return dp / p_scale[:, None], de / e_tot, dkin / e_tot, dint / e_tot


def _balance_families():
    """The five collision families with equilibrium states and samplers."""
    mono = Maxwellian(monatomic_only_spec(),
                      EquilibriumParams.single(1.0, U0, 1.1))
    bl = Maxwellian(bl_spec(delta=2.4),
                    EquilibriumParams.single(1.2, U0, 0.9))
    mixed = Maxwellian(mixture_cont_spec(delta_a=2.2, delta_b=None,
                                         m_a=1.0, m_b=3.0),
                       EquilibriumParams.single((0.8, 1.5), U0, 1.1))
    resonant = Maxwellian(
        resonant_spec(delta=3.0),
        EquilibriumParams(n=(1.0,), u=np.array([0.3, 0.0, 0.0]),
                          T_kin=2.0, T_int=0.7))
    discrete = Maxwellian(discrete_spec(),
                          EquilibriumParams.single(1.0, U0, 1.3))

    def sample_discrete(M, n, rng, species):
        # inadmissible draws are dropped, so oversample then trim
        pre, post = equilibrium_collisions_discrete(M, int(1.6 * n), rng, species)
        kept = len(pre[0][1])
        assert kept >= n
        trim = lambda pair: tuple((x[:n] if x is not None else None) for x in pair)
        return (trim(pre[0]), trim(pre[1])), (trim(post[0]), trim(post[1]))

    return [
        ("monatomic", mono, (0, 0), equilibrium_collisions_bl),
        ("exchange", bl, (0, 0), equilibrium_collisions_bl),
        ("poly-mono", mixed, (0, 1), equilibrium_collisions_bl),
        ("resonant", resonant, (0, 0),
         lambda M, n, rng, species: equilibrium_collisions_resonant(M, n, rng)),
        ("discrete", discrete, (0, 0), sample_discrete),
    ]


def test_01_detailed_balance():
    """At equilibrium the weighted product of post densities equals the
    product of pre densities to 1e-12 relative, for all five families;
    the resonant family holds it at distinct kinetic/internal temperatures."""
    rng = np.random.default_rng(101)
    for name, M, species, sampler in _balance_families():
        pre, post = sampler(M, N_BALANCE, rng, species)
        rel = detailed_balance_residual(M, pre, post, species)
        assert rel.shape[0] == N_BALANCE, name
        assert np.abs(rel).max() <= 1e-12, name


def test_02_conservation():
    """Every collision rule conserves momentum and total energy to 1e-12
    relative over 1e6 random collisions; the resonant rule additionally
    conserves kinetic and internal energy separately."""
    rng = np.random.default_rng(202)
    for name, M, species, sampler in _balance_families():
        pre, post = sampler(M, N_BALANCE, rng, species)
        dp, de, dkin, dint = _pair_defects(M.spec, species, pre, post)
        assert np.abs(dp).max() <= 1e-12, name
        assert np.abs(de).max() <= 1e-12, name
        if name == "resonant":
            assert np.abs(dkin).max() <= 1e-12
            assert np.abs(dint).max() <= 1e-12


def test_03_microreversibility_round_trip():
    """Colliding and then reading the exchange parameters off the post pair
    recovers (r, R, sigma) to 1e-10 on 1e5 random configurations."""
    law = pair_law(bl_spec(delta=2.4, mass=1.3), 0, 0)
    rng = np.random.default_rng(303)
    n = N_ROUNDTRIP
    v1 = rng.normal(size=(n, 3))
    v2 = rng.normal(size=(n, 3))
    I1 = rng.gamma(1.2, 1.0, n)
    I2 = rng.gamma(1.2, 1.0, n)
    r = rng.uniform(1e-3, 1.0 - 1e-3, n)
    R = rng.uniform(1e-3, 1.0 - 1e-3, n)
    sig = uniform_sphere(rng, n)
    pre = (v1, v2, I1, I2)
    post = bl_poly_poly(*pre, r, R, unit_vector(sig), law.m_i, law.m_j)[:4]
    inv = inverse_parameters(law, post, pre)
    for error in (inv.r - r, inv.R - R, inv.sigma - sig):
        assert np.abs(error).max() <= 1e-10


def test_04_reference_gas_verdicts():
    """Fitted (delta, zeta) for the tabulated gases give the expected
    hypothesis verdicts: N2, O2, CO pass the exchange-model window and fail
    the strict one at both pressures; H2 fails both with delta below 2."""
    h2_deltas = []
    for entry in TABLE1:
        in_window = check(HypothesisId.H2_single_BL,
                          delta=entry.delta, zeta=entry.zeta).satisfied
        strict = check(HypothesisId.H3_single_Psi,
                       delta=entry.delta, zeta=entry.zeta).satisfied
        if entry.gas == "H2":
            assert not in_window and not strict, entry
            assert entry.delta < 2.0
            h2_deltas.append(entry.delta)
        else:
            assert in_window and not strict, entry
    assert sorted(h2_deltas) == pytest.approx([1.939, 1.940], abs=1e-12)


def test_05_parameter_fits():
    """Power-law viscosity T^0.7315 fits to zeta = 0.537 within 1e-3;
    constant specific heat 2.5085 gives delta = 2.017 at float precision;
    hard-sphere and constant-kernel limits recover zeta = 1 and 0 to 1e-10."""
    T = np.linspace(300.0, 600.0, 16)

    def zeta_of(exponent):
        series = fitlab.ViscositySeries(T=T, mu=T ** exponent)
        return fitlab.fit_zeta(series).value

    assert abs(zeta_of(0.7315) - 0.537) <= 1e-3
    assert abs(zeta_of(0.5) - 1.0) <= 1e-10
    assert abs(zeta_of(1.0) - 0.0) <= 1e-10

    cv = fitlab.CvSeries(T=T, c_hat_v=np.full(16, 2.5085))
    delta = fitlab.fit_delta(cv)
    assert abs(delta.value - 2.017) <= 1e-12
    assert delta.polytropic


def test_06_collision_frequency_closed_form():
    """For the constant kernel at delta = 2 and unit density the Monte Carlo
    collision frequency matches 16*pi/15: within three standard errors (with
    a 1e-10 relative floor) and within 1% at 1e6 samples."""
    spec = single_species(ContinuousEnergy(delta=2.0), PowerLawE(C=1.0, zeta=0.0))
    M = Maxwellian(spec, EquilibriumParams.single(1.0, U0, 1.0))
    w = ParticleState(v=np.array([0.4, -0.1, 0.2]), I=0.9)
    est = collision_frequency(w, M, None,
                              QuadratureConfig(n_samples=1_000_000, seed=606))
    ref = 16.0 * np.pi / 15.0
    assert abs(est.value - ref) <= max(3.0 * est.stderr, 1e-10 * ref)
    assert abs(est.value / ref - 1.0) <= 0.01


def test_07_weak_invariants_and_entropy():
    """Weak moments of mass, momentum and total energy vanish identically
    (every sampled defect cancels, so value and stderr are exactly zero);
    the entropy-production estimate has no negative sample terms and is
    positive at three standard errors for a 50% two-temperature split."""
    spec = bl_spec(delta=2.5, zeta=0.6, mass=2.0)
    f = DistributionFn(Maxwellian(
        spec, EquilibriumParams(n=(1.0,), u=U0, T_kin=1.0, T_int=1.5)))
    invariants = {
        "mass": lambda v, I: np.ones(len(v)),
        "momentum_x": lambda v, I: 2.0 * v[:, 0],
        "total_energy": lambda v, I: 0.5 * 2.0 * np.sum(v * v, -1) + I,
    }
    n = 1_000_000
    for name, psi in invariants.items():
        est = weak_moment(f, psi, QuadratureConfig(n_samples=n, seed=707))
        assert est.value == 0.0 and est.stderr == 0.0, name
        assert est.diagnostics["defect_zero"] == n, name

    ent = entropy_production(f, QuadratureConfig(n_samples=200_000, seed=708))
    assert ent.diagnostics["negative_terms"] == 0
    assert ent.value > 3.0 * ent.stderr


def test_08_particle_relaxation_to_equipartition():
    """A 1e5-particle two-temperature ensemble (kinetic 2, internal 1,
    delta = 2) relaxes to the energy-budget temperature 1.6: final kinetic
    and internal temperatures agree within 2%, mean internal energy per
    particle is within 2% of k_B * T_eq, total energy drifts below 1e-10
    relative, and the entropy estimate is nonincreasing."""
    cfg = relax.RelaxConfig(dt=0.01, n_particles=100_000, seed=808, cadence=40)
    series = relax.run(bl_spec(delta=2.0), cfg, T_kin0=2.0, T_int0=1.0,
                       t_end=6.0)
    summary = relax.relax_summary(series)
    assert summary["t_eq"] == pytest.approx(1.6, rel=0.02)
    assert summary["equipartition_within_2pct"] is True
    assert 0.98 <= summary["mean_I_final"] / summary["t_eq"] <= 1.02
    assert summary["energy_drift"] <= 1e-10
    assert summary["h_nonincreasing"] is True


def test_09_kernel_square_integrability_verdicts():
    """The epsilon-sweep diagnostic flags (3, 0.5) integrable with a Cauchy
    tail change under 1%, flags (2.017, 0.537) divergent, and its numeric
    verdict agrees with the corner-exponent rule on a 20-point sweep."""
    good = k2_integrability_diagnostic(3.0, 0.5)
    assert good.verdict == "integrable"
    assert good.cauchy_change < 0.01
    bad = k2_integrability_diagnostic(2.017, 0.537)
    assert bad.verdict == "divergent"

    sweep = [
        (2.8, -0.5), (2.8, 0.0), (2.8, 0.4), (3.0, 0.5), (3.0, 0.0),
        (3.2, 0.8), (3.5, 1.0), (4.0, 1.5), (4.0, 0.0), (3.6, -0.8),
        (2.017, 0.537), (2.0, 0.0), (1.8, 0.0), (1.5, 0.5), (2.5, 1.5),
        (3.0, 1.0), (2.2, 0.8), (1.9, -0.5), (2.8, 1.2), (3.5, 2.0),
    ]
    assert len(sweep) == 20
    for delta, zeta in sweep:
        diag = k2_integrability_diagnostic(delta, zeta)
        assert diag.numeric_integrable == diag.analytic_integrable, (delta, zeta)
        assert not diag.inconsistent, (delta, zeta)


def test_10_linear_operator_matrix():
    """The discretized exchange-part matrix is symmetric to 1e-8 relative,
    its weighted Frobenius norm moves under 5% over one grid refinement at
    (delta, zeta) = (3, 0.5), and a zero kernel gives the zero matrix."""
    spec = single_species(ContinuousEnergy(delta=3.0), PowerLawE(C=1.0, zeta=0.5))
    M = Maxwellian(spec, EquilibriumParams.single(1.0, U0, 1.0))
    grid = GridSpec()
    base = assemble_k1(grid, M)
    scale = np.abs(base.matrix).max()
    assert base.symmetry_defect() <= 1e-8 * scale
    refined = assemble_k1(grid.refined(), M)
    assert abs(refined.hs_norm() / base.hs_norm() - 1.0) < 0.05

    zero = assemble_k1(GridSpec(3, 3), M, kernel=PowerLawE(C=0.0, zeta=0.5))
    assert np.abs(zero.matrix).max() == 0.0


def test_11_bitwise_determinism():
    """Every randomized pipeline reproduces bit for bit under a fixed seed:
    equilibrium sampling, the Monte Carlo estimators, and the particle
    relaxation loop (including its adaptive rate bounds)."""
    spec = bl_spec(delta=2.5, zeta=0.6)
    M = Maxwellian(spec, EquilibriumParams.single(1.0, U0, 1.0))

    va, Ia = M.sample(np.random.default_rng(42), 50_000)
    vb, Ib = M.sample(np.random.default_rng(42), 50_000)
    assert np.array_equal(va, vb) and np.array_equal(Ia, Ib)

    w = ParticleState(v=np.array([0.4, -0.1, 0.2]), I=0.9)
    cfg = QuadratureConfig(n_samples=50_000, seed=1111)
    nu_a = collision_frequency(w, M, None, cfg)
    nu_b = collision_frequency(w, M, None, cfg)
    assert nu_a.value == nu_b.value and nu_a.stderr == nu_b.stderr

    f = DistributionFn(Maxwellian(
        spec, EquilibriumParams(n=(1.0,), u=U0, T_kin=1.0, T_int=1.5)))
    for estimator in (lambda: weak_moment(f, lambda v, I: I, cfg),
                      lambda: entropy_production(f, cfg)):
        first, second = estimator(), estimator()
        assert first.value == second.value and first.stderr == second.stderr

    run_cfg = relax.RelaxConfig(dt=0.02, n_particles=2000, seed=99, cadence=10)
    s1 = relax.run(bl_spec(), run_cfg, T_kin0=2.0, T_int0=1.0, t_end=0.6)
    s2 = relax.run(bl_spec(), run_cfg, T_kin0=2.0, T_int0=1.0, t_end=0.6)
    for field in ("t", "T_kin", "T_int", "mean_I", "H", "collisions"):
        assert np.array_equal(getattr(s1, field), getattr(s2, field)), field
