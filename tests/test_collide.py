import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import special, stats
from hypothesis import given, settings
from hypothesis import strategies as st

from polykin import cli
from polykin.collide import (
    BorgnakkeLarsenParams,
    DiscreteParams,
    PairKind,
    ParticleState,
    ResonantParams,
    _beta,
    beta_draw,
    bl_poly_poly,
    channel_draw,
    collide_borgnakke_larsen,
    collide_discrete,
    collide_resonant,
    com_energy,
    discrete_rule,
    exchange_split,
    internal_variable,
    invariant_defect,
    inverse_parameters,
    jacobian_bl,
    monatomic_rule,
    pair_law,
    pair_rows,
    resonant_rule,
    sq_norm,
    unit_sphere,
    unit_vector,
)
from polykin.equilib import EquilibriumParams, Maxwellian, maxwellian_eval
from polykin.model import (
    ContinuousEnergy,
    DiscreteLevels,
    MixtureSpec,
    Monatomic,
    PowerLawE,
    Species,
    single_species,
)
from support import (
    ODD_DEGENERACIES,
    bl_spec,
    discrete_spec,
    mixture_cont_spec,
    mixture_disc_spec,
    resonant_spec,
    uniform_sphere,
)

EX = np.array([1.0, 0.0, 0.0])


def _state(v, species=0, I=None, level=None):
    return ParticleState(v=np.asarray(v, float), species=species, I=I, level=level)


def _on_rows(f, spec, pre, post):
    """``f(law, pre_rows, post_rows)`` of two ParticleState pairs, each read
    through pair_rows."""
    law, pre_rows = pair_rows(spec, *pre)
    return f(law, pre_rows, pair_rows(spec, *post)[1])


class TestExchangeRule:
    """Frozen numeric example: m = 2, v = (1,0,0), v_* = (-1,0,0),
    I = I_* = 1, r = 1/2, R = 1/4, sigma = (1,0,0)."""

    spec = bl_spec(delta=2.0, mass=2.0)
    pre = (_state(EX, I=1.0), _state(-EX, I=1.0))
    params = BorgnakkeLarsenParams(r=0.5, R=0.25, sigma=EX)

    def test_frozen_outcome(self):
        out = collide_borgnakke_larsen(self.spec, *self.pre, self.params)
        assert out.E == pytest.approx(4.0, abs=1e-15)
        s = np.sqrt(0.5)
        np.testing.assert_allclose(out.post[0].v, [s, 0, 0], atol=1e-15)
        np.testing.assert_allclose(out.post[1].v, [-s, 0, 0], atol=1e-15)
        assert out.post[0].I == pytest.approx(1.5, abs=1e-15)
        assert out.post[1].I == pytest.approx(1.5, abs=1e-15)
        assert out.jacobian == pytest.approx(8.0 / (0.5 * 0.75), rel=1e-15)

    def test_inverse_of_forward_direction(self):
        out = collide_borgnakke_larsen(self.spec, *self.pre, self.params)
        inv = _on_rows(inverse_parameters, self.spec, self.pre, out.post)
        assert inv.R == pytest.approx(0.5, abs=1e-15)
        assert inv.r == pytest.approx(0.5, abs=1e-15)
        np.testing.assert_allclose(inv.sigma, EX, atol=1e-15)

    def test_round_trip_recovers_parameters(self):
        out = collide_borgnakke_larsen(self.spec, *self.pre, self.params)
        back = _on_rows(inverse_parameters, self.spec, out.post, self.pre)
        assert back.r == pytest.approx(self.params.r, abs=1e-12)
        assert back.R == pytest.approx(self.params.R, abs=1e-12)
        np.testing.assert_allclose(back.sigma, self.params.sigma, atol=1e-12)

    def test_reverse_collision_restores_pre(self):
        out = collide_borgnakke_larsen(self.spec, *self.pre, self.params)
        inv = _on_rows(inverse_parameters, self.spec, self.pre, out.post)
        rev = collide_borgnakke_larsen(
            self.spec,
            *out.post,
            BorgnakkeLarsenParams(r=inv.r, R=inv.R, sigma=inv.sigma),
        )
        np.testing.assert_allclose(rev.post[0].v, self.pre[0].v, atol=1e-14)
        np.testing.assert_allclose(rev.post[1].v, self.pre[1].v, atol=1e-14)
        assert rev.post[0].I == pytest.approx(self.pre[0].I, abs=1e-14)


class TestEnergies:
    def test_single_species_energy(self):
        law, rows = pair_rows(bl_spec(mass=2.0), _state(EX, I=1.0), _state(-EX, I=1.0))
        E = com_energy(law.mu, *rows)
        assert E == pytest.approx(4.0, abs=1e-15)

    def test_mixture_reduced_mass_energy(self):
        # m_i = 1, m_j = 3 -> mu = 3/4; |V| = 4 -> E = (mu/2) * 16 = 6
        spec = mixture_cont_spec(m_a=1.0, m_b=3.0)
        law, rows = pair_rows(spec, _state(2 * EX, 0, I=0.0), _state(-2 * EX, 1, I=0.0))
        E = com_energy(law.mu, *rows)
        assert E == pytest.approx(6.0, abs=1e-15)

    def test_monatomic_state_carrying_I_is_rejected(self):
        spec = mixture_cont_spec(delta_b=None)
        with pytest.raises(ValueError, match="monatomic"):
            pair_rows(spec, _state(EX, 0, I=1.0), _state(-EX, 1, I=0.5))

    def test_com_energy_array(self):
        v = np.array([[1.0, 0, 0], [2.0, 0, 0]])
        vs = -v
        E = com_energy(0.5, v, vs, 1.0, 0.0)
        np.testing.assert_allclose(E, [2.0, 5.0])


class TestJacobian:
    def test_values(self):
        assert jacobian_bl(0.0, 0.0) == pytest.approx(8.0)
        assert jacobian_bl(0.5, 0.5) == pytest.approx(32.0)

    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            jacobian_bl(1.0, 0.5)

    @given(r=st.floats(0.0, 0.999), R=st.floats(0.0, 0.999))
    @settings(max_examples=100)
    def test_closed_form(self, r, R):
        assert jacobian_bl(r, R) == pytest.approx(8.0 / ((1 - r) * (1 - R)), rel=1e-14)


def _monatomic_pair_spec(m_a: float, m_b: float) -> MixtureSpec:
    ker = PowerLawE(C=1.0, zeta=0.0)
    return MixtureSpec(
        species=tuple(Species(label=label, mass=m, energy=Monatomic())
                      for label, m in (("a", m_a), ("b", m_b))),
        kernels=((ker, ker), (ker, ker)),
    )


# each exchange pair kind: (spec, pre pair, name of the one record in
# _RECORDS that fits it)
_EXCHANGE_PAIRS = {
    "cont-cont": lambda: (mixture_cont_spec(),
                          (_state(EX, 0, I=2.0), _state(-EX, 1, I=1.0)), "r and R"),
    "poly-mono": lambda: (mixture_cont_spec(delta_b=None),
                          (_state(EX, 0, I=2.0), _state(-EX, 1)), "R"),
    "mono-poly": lambda: (mixture_cont_spec(delta_b=None),
                          (_state(-EX, 1), _state(EX, 0, I=2.0)), "R"),
    "mono-mono": lambda: (_monatomic_pair_spec(1.0, 2.5),
                          (_state(EX, 0), _state(-EX, 1)), "neither"),
}
_RECORDS = {"r and R": {"r": 0.5, "R": 0.5}, "R": {"R": 0.5}, "neither": {}, "r": {"r": 0.5}}


class TestMonatomic:
    def test_relative_speed_preserved(self):
        rng = np.random.default_rng(1)
        v, vs = rng.normal(size=3), rng.normal(size=3)
        sig = uniform_sphere(rng, 1)[0]
        vp, vsp = monatomic_rule(v, vs, unit_vector(sig))
        assert np.linalg.norm(vp - vsp) == pytest.approx(np.linalg.norm(v - vs), rel=1e-13)
        np.testing.assert_allclose(vp + vsp, v + vs, atol=1e-14)

    def test_unequal_masses_center_conserved(self):
        rng = np.random.default_rng(2)
        v, vs = rng.normal(size=3), rng.normal(size=3)
        sig = uniform_sphere(rng, 1)[0]
        m, ms = 1.0, 3.0
        vp, vsp = monatomic_rule(v, vs, sig, m, ms)
        np.testing.assert_allclose(m * vp + ms * vsp, m * v + ms * vs, atol=1e-13)
        kin = lambda a, b: 0.5 * m * a @ a + 0.5 * ms * b @ b
        assert kin(vp, vsp) == pytest.approx(kin(v, vs), rel=1e-13)

    def test_object_layer_scatters_two_species_elastically(self):
        # the object layer's one exchange record, read against a mono-mono law
        rng = np.random.default_rng(4)
        spec = _monatomic_pair_spec(1.0, 2.5)
        pre = (_state(rng.normal(size=3), 0), _state(rng.normal(size=3), 1))
        sig = uniform_sphere(rng, 1)[0]
        out = collide_borgnakke_larsen(spec, *pre, BorgnakkeLarsenParams(sigma=sig))
        vp, vsp = monatomic_rule(pre[0].v, pre[1].v, unit_vector(sig), 1.0, 2.5)
        assert out.post[0].v.tobytes() == vp.tobytes()
        assert out.post[1].v.tobytes() == vsp.tobytes()
        d = _on_rows(invariant_defect, spec, pre, out.post)
        assert np.abs(d.momentum).max() < 1e-12
        assert abs(d.energy) < 1e-12
        assert out.post[0].I is None and out.post[1].I is None
        assert out.jacobian is None


class TestPolyMono:
    def test_internal_energy_share(self):
        # poly(m=1, I=2) vs mono(m=1): E = |V|^2/4 + 2 and I' = E/2 at R = 1/2
        spec = mixture_cont_spec(delta_b=None, m_a=1.0, m_b=1.0)
        pre = (_state(EX, 0, I=2.0), _state(-EX, 1))
        out = collide_borgnakke_larsen(spec, *pre, BorgnakkeLarsenParams(R=0.5, sigma=EX))
        E = 0.25 * 4.0 + 2.0
        assert out.E == pytest.approx(E, abs=1e-14)
        assert out.post[0].I == pytest.approx(E / 2, abs=1e-14)
        assert out.post[1].I is None

    def test_mono_poly_order_swapped(self):
        spec = mixture_cont_spec(delta_b=None, m_a=1.0, m_b=1.0)
        pre = (_state(-EX, 1), _state(EX, 0, I=2.0))
        out = collide_borgnakke_larsen(spec, *pre, BorgnakkeLarsenParams(R=0.5, sigma=EX))
        assert out.post[0].I is None
        assert out.post[1].I == pytest.approx(1.5, abs=1e-14)

    @pytest.mark.parametrize("kind", list(_EXCHANGE_PAIRS))
    def test_params_variant_must_match(self, kind):
        # a record carries r and R exactly where the pair law has them
        spec, pre, fits = _EXCHANGE_PAIRS[kind]()
        assert pair_law(spec, pre[0].species, pre[1].species).kind.value == kind
        collide_borgnakke_larsen(spec, *pre, BorgnakkeLarsenParams(sigma=EX, **_RECORDS[fits]))
        for name, fields in _RECORDS.items():
            if name != fits:
                with pytest.raises(ValueError, match=kind):
                    collide_borgnakke_larsen(spec, *pre,
                                             BorgnakkeLarsenParams(sigma=EX, **fields))
        with pytest.raises(ValueError):
            collide_borgnakke_larsen(spec, *pre, ResonantParams(I_prime=0.5, sigma=EX))


class TestResonant:
    def test_split_conservation(self):
        spec = resonant_spec()
        pre = (_state([1.0, 2.0, 0.5], I=0.8), _state([-1.0, 0.0, 0.3], I=1.4))
        sig = uniform_sphere(np.random.default_rng(3), 1)[0]
        out = collide_resonant(spec, *pre, ResonantParams(I_prime=2.0, sigma=sig))
        d = _on_rows(invariant_defect, spec, pre, out.post)
        assert abs(d.kinetic) < 1e-13
        assert abs(d.internal) < 1e-13
        assert out.post[0].I == pytest.approx(2.0)
        assert out.post[1].I == pytest.approx(0.2, abs=1e-14)

    def test_out_of_range_internal_rejected(self):
        spec = resonant_spec()
        pre = (_state(EX, I=1.0), _state(-EX, I=1.0))
        with pytest.raises(ValueError):
            collide_resonant(spec, *pre, ResonantParams(I_prime=2.5, sigma=EX))


class TestDiscrete:
    def test_frozen_post_speed(self):
        # m = 2, |V| = 2, delta_I = 1 -> |V'| = sqrt(4 - 4*1/2) = sqrt 2
        spec = discrete_spec(energies=(0.0, 1.0), degeneracies=(1.0, 1.0), mass=2.0)
        pre = (_state(EX, level=0), _state(-EX, level=0))
        out = collide_discrete(spec, *pre, DiscreteParams(k_prime=1, l_prime=0, sigma=EX))
        assert out.admissible
        rel = out.post[0].v - out.post[1].v
        assert np.linalg.norm(rel) == pytest.approx(np.sqrt(2.0), rel=1e-14)
        assert out.post[0].level == 1 and out.post[1].level == 0

    def test_inadmissible_flagged_not_raised(self):
        # delta_I = 3 needs |V|^2 >= 6 but |V|^2 = 4
        spec = discrete_spec(energies=(0.0, 3.0), degeneracies=(1.0, 1.0), mass=2.0)
        pre = (_state(EX, level=0), _state(-EX, level=0))
        out = collide_discrete(spec, *pre, DiscreteParams(k_prime=1, l_prime=1, sigma=EX))
        assert not out.admissible
        assert out.post == pre

    def test_elastic_channel(self):
        spec = discrete_spec(mass=2.0)
        pre = (_state(EX, level=1), _state(-EX, level=1))
        out = collide_discrete(spec, *pre, DiscreteParams(k_prime=1, l_prime=1, sigma=EX))
        assert out.admissible
        d = _on_rows(invariant_defect, spec, pre, out.post)
        assert abs(d.energy) < 1e-14

    def test_downward_jump_always_admissible(self):
        spec = discrete_spec(energies=(0.0, 5.0), degeneracies=(1.0, 1.0), mass=2.0)
        pre = (_state(0.1 * EX, level=1), _state(-0.1 * EX, level=1))
        out = collide_discrete(spec, *pre, DiscreteParams(k_prime=0, l_prime=0, sigma=EX))
        assert out.admissible
        d = _on_rows(invariant_defect, spec, pre, out.post)
        assert abs(d.energy) < 1e-13 * out.E


class TestSwapSymmetry:
    def test_bl_particle_interchange(self):
        rng = np.random.default_rng(7)
        spec = bl_spec(delta=3.0, mass=1.7)
        v, vs = rng.normal(size=3), rng.normal(size=3)
        sig = uniform_sphere(rng, 1)[0]
        a = collide_borgnakke_larsen(
            spec, _state(v, I=0.9), _state(vs, I=0.4),
            BorgnakkeLarsenParams(r=0.3, R=0.6, sigma=sig),
        )
        b = collide_borgnakke_larsen(
            spec, _state(vs, I=0.4), _state(v, I=0.9),
            BorgnakkeLarsenParams(r=0.7, R=0.6, sigma=-sig),
        )
        np.testing.assert_allclose(a.post[0].v, b.post[1].v, atol=1e-14)
        np.testing.assert_allclose(a.post[1].v, b.post[0].v, atol=1e-14)
        assert a.post[0].I == pytest.approx(b.post[1].I, rel=1e-14)
        assert a.post[1].I == pytest.approx(b.post[0].I, rel=1e-14)


class TestBatchConservation:
    """Vectorized invariant checks over random configurations per family."""

    N = 20_000
    RTOL = 1e-12

    def _random_kinematics(self, rng, n):
        v = rng.normal(0, 1.3, (n, 3))
        vs = rng.normal(0, 0.8, (n, 3))
        sig = uniform_sphere(rng, n)
        return v, vs, sig

    def test_bl_batch(self):
        rng = np.random.default_rng(10)
        v, vs, sig = self._random_kinematics(rng, self.N)
        I, Is = rng.gamma(1.0, 1.0, self.N), rng.gamma(1.5, 0.5, self.N)
        r, R = rng.uniform(0, 1, self.N), rng.uniform(0, 1, self.N)
        m = 1.37
        vp, vsp, Ip, Isp, E = bl_poly_poly(v, vs, I, Is, r, R, sig, m)
        mom = np.abs(m * (vp + vsp) - m * (v + vs)).max()
        Epost = com_energy(m / 2, vp, vsp, Ip, Isp)
        assert mom <= self.RTOL * np.abs(v).max() * m
        assert np.abs(Epost / E - 1).max() <= self.RTOL

    def test_resonant_batch(self):
        rng = np.random.default_rng(11)
        v, vs, sig = self._random_kinematics(rng, self.N)
        I, Is = rng.gamma(1.0, 1.0, self.N), rng.gamma(1.0, 1.0, self.N)
        Ip = rng.uniform(0, 1, self.N) * (I + Is)
        vp, vsp, Ipo, Iso = resonant_rule(v, vs, I, Is, Ip, sig)
        kin = lambda a, b: 0.5 * (np.sum(a * a, 1) + np.sum(b * b, 1))
        assert np.abs(kin(vp, vsp) - kin(v, vs)).max() <= self.RTOL * 10
        assert np.abs((Ipo + Iso) - (I + Is)).max() <= self.RTOL * 10

    def test_discrete_batch(self):
        rng = np.random.default_rng(12)
        v, vs, sig = self._random_kinematics(rng, self.N)
        dI = rng.uniform(-1.0, 3.0, self.N)
        m = 2.0
        vp, vsp, ok = discrete_rule(v, vs, dI, sig, m)
        kin = 0.25 * m * np.sum((vp - vsp) ** 2, 1)
        kin_pre = 0.25 * m * np.sum((v - vs) ** 2, 1)
        good = ok
        assert np.abs((kin[good] + dI[good]) - kin_pre[good]).max() < 1e-12 * kin_pre.max()
        assert np.all(kin_pre[~ok] < 2.0 * dI[~ok] / (m / 2) * (m / 4) + 1e-12)


class TestInverseDegenerate:
    def test_zero_relative_velocity_flagged(self):
        spec = bl_spec()
        a = _state([1.0, 1.0, 1.0], I=1.0)
        b = _state([1.0, 1.0, 1.0], I=2.0)
        inv = _on_rows(inverse_parameters, spec, (a, b), (a, b))
        assert np.isnan(inv.sigma).all()
        assert inv.r == pytest.approx(1.0 / 3.0)

    def test_shell_mismatch_raises(self):
        spec = bl_spec()
        a = _state(EX, I=1.0)
        b = _state(-EX, I=1.0)
        c = _state(EX * 2, I=1.0)
        with pytest.raises(ValueError):
            _on_rows(inverse_parameters, spec, (a, b), (c, b))

    def test_batch_masks_each_undefined_parameter_with_nan(self):
        # rows: a regular pair, V = 0, e = e_* = 0, and E = 0
        law = pair_law(bl_spec(), 0, 0)
        v = np.array([EX, EX, EX, EX])
        v_star = np.array([-EX, EX, -EX, EX])
        e = np.array([1.0, 1.0, 0.0, 0.0])
        rows = (v, v_star, e, e)
        inv = inverse_parameters(law, rows, rows)
        assert inv.R.shape == inv.r.shape == (4,) and inv.sigma.shape == (4, 3)
        np.testing.assert_array_equal(np.isnan(inv.R), [False, False, False, True])
        np.testing.assert_array_equal(np.isnan(inv.sigma).all(-1), [False, True, False, True])
        np.testing.assert_array_equal(np.isnan(inv.r), [False, False, True, True])
        assert not np.isnan(inv.sigma[[0, 2]]).any()
        d = invariant_defect(law, rows, rows)
        assert d.momentum.shape == (4, 3) and not np.any(d.energy)

    def test_law_without_split_gives_no_r(self):
        spec = mixture_cont_spec(delta_b=None)
        pre = (_state(EX, 0, I=1.0), _state(-EX, 1))
        inv = _on_rows(inverse_parameters, spec, pre, pre)
        assert inv.r is None
        assert inv.R == pytest.approx(0.5 * (2.0 / 3.0) * 4.0 / (4.0 / 3.0 + 1.0))


class TestSigmaHandling:
    def test_non_unit_sigma_rejected(self):
        with pytest.raises(ValueError):
            BorgnakkeLarsenParams(sigma=np.array([1.0, 1.0, 0.0]))

    def test_slightly_off_sigma_renormalized(self):
        sig = np.array([1.0 + 5e-13, 0.0, 0.0])
        p = BorgnakkeLarsenParams(sigma=sig)
        assert np.linalg.norm(p.sigma) == pytest.approx(1.0, abs=1e-15)

    def test_state_shape_checked(self):
        with pytest.raises(ValueError):
            ParticleState(v=np.zeros(2))

    @pytest.mark.parametrize("field, kwargs", [
        ("v", dict(v=[0.0, np.inf, 0.0])),
        ("v", dict(v=[np.nan, 0.0, 0.0])),
        ("I", dict(v=np.zeros(3), I=np.nan)),
        ("I", dict(v=np.zeros(3), I=np.inf)),
    ])
    def test_state_non_finite_rejected(self, field, kwargs):
        with pytest.raises(ValueError, match=rf"\b{field}\b"):
            ParticleState(**kwargs)


class TestLevelRange:
    spec = discrete_spec(energies=(0.0, 1.0), degeneracies=(1.0, 1.0))

    @pytest.mark.parametrize("level", [-1, 2])
    def test_state_level_outside_table_rejected(self, level):
        state = _state(EX, level=level)
        with pytest.raises(ValueError, match=f"level {level} "):
            internal_variable(self.spec, state)
        M = Maxwellian(self.spec, EquilibriumParams.single(1.0, np.zeros(3), T=1.0))
        with pytest.raises(ValueError, match=f"level {level} "):
            maxwellian_eval(M, state)

    @pytest.mark.parametrize("level", [-1, 2])
    def test_post_level_outside_table_rejected(self, level):
        pre = (_state(EX, level=0), _state(-EX, level=0))
        for k_prime, l_prime in ((level, 0), (0, level)):
            with pytest.raises(ValueError, match=f"level {level} "):
                collide_discrete(self.spec, *pre,
                                 DiscreteParams(k_prime=k_prime, l_prime=l_prime, sigma=EX))


    @pytest.mark.parametrize("level", [1.7, 0.5, np.float64(1e-9)])
    def test_non_integral_state_level_rejected(self, level):
        state = _state(EX, level=level)
        with pytest.raises(ValueError, match=f"level {level} is not an integer"):
            internal_variable(self.spec, state)

    @pytest.mark.parametrize("level", [1.7, 0.5])
    def test_non_integral_post_level_rejected(self, level):
        pre = (_state(EX, level=0), _state(-EX, level=0))
        for k_prime, l_prime in ((level, 0), (0, level)):
            with pytest.raises(ValueError, match=f"level {level} is not an integer"):
                collide_discrete(self.spec, *pre,
                                 DiscreteParams(k_prime=k_prime, l_prime=l_prime, sigma=EX))

    def test_integral_float_level_accepted(self):
        assert internal_variable(self.spec, _state(EX, level=1.0)) == 1


class TestMixtureBranches:
    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=50, deadline=None)
    def test_all_continuous_branches_conserve(self, seed):
        rng = np.random.default_rng(seed)
        spec = mixture_cont_spec(m_a=1.0, m_b=2.5)
        sig = uniform_sphere(rng, 1)[0]
        pre = (
            _state(rng.normal(size=3), 0, I=float(rng.gamma(1.0))),
            _state(rng.normal(size=3), 1, I=float(rng.gamma(1.5))),
        )
        out = collide_borgnakke_larsen(
            spec, *pre,
            BorgnakkeLarsenParams(r=float(rng.uniform()), R=float(rng.uniform()), sigma=sig),
        )
        d = _on_rows(invariant_defect, spec, pre, out.post)
        scale = max(1.0, out.E)
        assert np.abs(d.momentum).max() < 1e-12 * scale
        assert abs(d.energy) < 1e-12 * scale

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=50, deadline=None)
    def test_discrete_mixture_conserves(self, seed):
        rng = np.random.default_rng(seed)
        spec = mixture_disc_spec()
        sig = uniform_sphere(rng, 1)[0]
        pre = (
            _state(rng.normal(size=3) * 2, 0, level=int(rng.integers(2))),
            _state(rng.normal(size=3) * 2, 1, level=int(rng.integers(3))),
        )
        out = collide_discrete(
            spec, *pre,
            DiscreteParams(k_prime=int(rng.integers(2)), l_prime=int(rng.integers(3)), sigma=sig),
        )
        if out.admissible:
            d = _on_rows(invariant_defect, spec, pre, out.post)
            scale = max(1.0, out.E)
            assert np.abs(d.momentum).max() < 1e-12 * scale
            assert abs(d.energy) < 1e-12 * scale


class TestPairLaw:
    def test_all_five_kinds(self):
        mixed = mixture_cont_spec(delta_b=None)
        mono = single_species(Monatomic(), PowerLawE(C=1.0, zeta=0.0))
        assert pair_law(bl_spec(), 0, 0).kind == "cont-cont"
        assert pair_law(mixed, 0, 1).kind == "poly-mono"
        assert pair_law(mixed, 1, 0).kind is PairKind.MONO_POLY
        assert pair_law(mono, 0, 0).kind == "mono-mono"
        assert pair_law(mixture_disc_spec(), 0, 1).kind == "disc-disc"

    def test_fixed_split_only_for_one_sided_pairs(self):
        # the polyatomic side takes the whole internal share: r = 1 in the
        # first slot, r = 0 in the second; every other family has no fixed r
        mixed = mixture_cont_spec(delta_b=None)
        mono = single_species(Monatomic(), PowerLawE(C=1.0, zeta=0.0))
        assert pair_law(mixed, 0, 1).r_fixed == 1.0
        assert pair_law(mixed, 1, 0).r_fixed == 0.0
        for law in (pair_law(bl_spec(), 0, 0), pair_law(mono, 0, 0),
                    pair_law(mixture_disc_spec(), 0, 1)):
            assert law.r_fixed is None

    def test_beta_shapes_and_masses(self):
        law = pair_law(mixture_cont_spec(delta_a=2.0, delta_b=3.0, m_a=1.0, m_b=2.0), 0, 1)
        assert law.beta_r == (1.0, 1.5)
        assert law.beta_R == (1.5, 2.5)
        assert (law.m_i, law.m_j, law.mu) == (1.0, 2.0, 2.0 / 3.0)
        mixed = mixture_cont_spec(delta_a=2.4, delta_b=None)
        for i, j in ((0, 1), (1, 0)):
            law = pair_law(mixed, i, j)
            assert law.beta_r is None
            assert law.beta_R == (1.5, 1.2)
        for law in (pair_law(single_species(Monatomic(), PowerLawE(1.0, 0.0)), 0, 0),
                    pair_law(discrete_spec(), 0, 0)):
            assert law.beta_r is None and law.beta_R is None

    def test_closed_form_weights(self):
        mixed = mixture_cont_spec(delta_a=2.0, delta_b=None)
        mono = single_species(Monatomic(), PowerLawE(C=1.0, zeta=0.0))
        assert pair_law(bl_spec(delta=2.0), 0, 0).weight == pytest.approx(16 * np.pi / 15, rel=1e-15)
        assert pair_law(mixed, 0, 1).weight == pytest.approx(8 * np.pi / 3, rel=1e-15)
        assert pair_law(mixed, 1, 0).weight == pair_law(mixed, 0, 1).weight
        assert pair_law(mono, 0, 0).weight == 4 * np.pi
        assert pair_law(discrete_spec(), 0, 0).weight == 4 * np.pi

    @staticmethod
    def _exchange_laws(delta, other):
        return (pair_law(bl_spec(delta=delta), 0, 0),
                pair_law(mixture_cont_spec(delta_a=delta, delta_b=other), 0, 1),
                pair_law(mixture_cont_spec(delta_a=delta, delta_b=None), 0, 1))

    def test_weight_matches_scipy_beta(self):
        # each Beta factor within 4e-15 (relative) below a + b = 171 and 1e-11
        # beyond, for every shape pair the law forms with delta in (0, 700)
        deltas = np.concatenate([np.linspace(0.01, 699.99, 500), np.geomspace(1e-6, 700.0, 100)])
        for k, delta in enumerate(deltas):
            for law in self._exchange_laws(delta, deltas[(7 * k + 3) % deltas.size]):
                shapes = [s for s in (law.beta_r, law.beta_R) if s is not None]
                want = 4 * np.pi * np.prod([special.beta(*s) for s in shapes])
                tol = sum(4e-15 if sum(s) < 171.0 else 1e-11 for s in shapes)
                if want > 1e-290:
                    assert law.weight == pytest.approx(want, rel=tol), (delta, shapes)
                else:
                    assert law.weight < 1e-280

    def test_unit_shapes_are_exact(self):
        for x in (1e-300, 0.5, 1.0, 1.5, 2.5, 7.0, 170.5, 400.0, 1e300):
            assert _beta(1.0, x) == _beta(x, 1.0) == 1.0 / x
        # delta = 2 gives a unit shape: R ~ Beta(3/2, 1) against a monatomic
        # partner, r ~ Beta(1, 5/2) against delta = 5
        assert pair_law(mixture_cont_spec(delta_a=2.0, delta_b=None), 0, 1).weight == (
            4 * np.pi * (1.0 / 1.5))
        law = pair_law(mixture_cont_spec(delta_a=2.0, delta_b=5.0), 0, 1)
        assert law.weight == 4 * np.pi * (1.0 / 2.5) * _beta(1.5, 3.5)

    def test_weight_at_extreme_shapes(self):
        # B(3/2, 5000) is 2.5064402970913807e-06 rounded to a double (mpmath); at
        # delta = 1e300, where a + b rounds to b, B(3/2, b) ~ Gamma(3/2) b^(-3/2)
        # is below the least double
        assert pair_law(mixture_cont_spec(delta_a=1e4, delta_b=None), 0, 1).weight == (
            pytest.approx(4 * np.pi * 2.5064402970913807e-06, rel=1e-13))
        for law in self._exchange_laws(1e300, 1e300):
            assert law.weight == 0.0
        for law in self._exchange_laws(400.0, 1e4):
            assert 0.0 <= law.weight < 1.0
        # near delta = 0 the weight passes the largest double; 5e-324 / 2 is 0
        for delta in (1e-310, 5e-324):
            assert pair_law(bl_spec(delta=delta), 0, 0).weight == np.inf
        assert _beta(0.0, 1.0) == _beta(0.0, 2.5) == np.inf

    @pytest.mark.parametrize("delta", [400.0, 1e4, 1e300])
    @pytest.mark.parametrize("partner", [None, {"kind": "monatomic"}],
                             ids=["single", "poly-mono"])
    def test_relax_runs_at_large_delta(self, tmp_path, capsys, delta, partner):
        species = [{"label": "a", "mass": 1.0, "energy": {"kind": "continuous", "delta": delta}}]
        if partner is not None:
            species.append({"label": "b", "mass": 2.0, "energy": partner})
        kernel = {"kind": "power_law_e", "C": 1.0, "zeta": 0.0}
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "species": species, "kernels": [[kernel] * len(species)] * len(species),
            "relax": {"dt": 0.02, "n_particles": 1000, "seed": 1, "cadence": 5,
                      "t_end": 0.1, "T_kin0": 2.0, "T_int0": 1.0}}))
        code = cli.main(["relax", "--config", str(cfg), "--out", str(tmp_path / "s.csv")])
        assert code == 0, capsys.readouterr().err

    def test_disc_disc_level_tables(self):
        spec = mixture_disc_spec()
        for i, j in ((0, 1), (1, 0), (1, 1)):
            law = pair_law(spec, i, j)
            for table, s in ((law.levels_i, i), (law.levels_j, j)):
                energy = spec.species[s].energy
                E, g = table
                assert E.tolist() == list(energy.energies) and E.dtype == float
                assert g.tolist() == list(energy.degeneracies) and g.dtype == float
                for a in table:
                    assert not a.flags.writeable
                    with pytest.raises(ValueError):
                        a[0] = 1.0

    def test_level_tables_are_none_for_other_families(self):
        mixed = mixture_cont_spec(delta_b=None)
        mono = single_species(Monatomic(), PowerLawE(C=1.0, zeta=0.0))
        for law in (pair_law(bl_spec(), 0, 0), pair_law(mixed, 0, 1),
                    pair_law(mixed, 1, 0), pair_law(mono, 0, 0)):
            assert law.levels_i is None and law.levels_j is None

    def test_level_tables_take_no_part_in_comparison(self):
        a, b = pair_law(mixture_disc_spec(), 0, 1), pair_law(mixture_disc_spec(), 0, 1)
        assert a.levels_i is not b.levels_i
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert "levels" not in repr(a)

    def test_weight_is_free_of_the_kernel_prefactor(self):
        assert pair_law(bl_spec(C=2.5, zeta=0.5), 0, 0).weight == pair_law(bl_spec(), 0, 0).weight

    def test_continuous_discrete_pair_raises(self):
        ker = PowerLawE(C=1.0, zeta=0.0)
        spec = MixtureSpec(
            species=(
                Species(label="c", mass=1.0, energy=ContinuousEnergy(2.0)),
                Species(label="d", mass=1.0, energy=DiscreteLevels((0.0, 0.5), (1.0, 1.0))),
            ),
            kernels=((ker, ker), (ker, ker)),
        )
        for i, j in ((0, 1), (1, 0)):
            with pytest.raises(ValueError, match="couples"):
                pair_law(spec, i, j)


class _NoBeta:
    """A generator that draws uniforms but refuses ``beta``."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def random(self, n):
        return self._rng.random(n)

    def beta(self, *args):
        raise AssertionError("rng.beta called")


class TestBetaDraw:
    @pytest.mark.parametrize("shapes", [(1.0, 1.0), (2.5, 1.0), (1.0, 0.75), (1.5, 2.0)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_law(self, shapes, seed):
        x = beta_draw(shapes, np.random.default_rng(seed), 100_000)
        assert x.shape == (100_000,) and np.all((x >= 0.0) & (x <= 1.0))
        assert stats.kstest(x, stats.beta(*shapes).cdf).pvalue > 1e-3

    @pytest.mark.parametrize("shapes", [(1.0, 1.0), (2.5, 1.0), (1.0, 0.75)])
    def test_unit_shapes_draw_one_uniform_each(self, shapes):
        # (1, 1) is the uniform itself: u ** 1.0 is u
        got = beta_draw(shapes, _NoBeta(3), 1000)
        u = np.random.default_rng(3).random(1000)
        a, b = shapes
        want = u ** (1.0 / a) if b == 1.0 else 1.0 - u ** (1.0 / b)
        assert got.tobytes() == want.tobytes()

    def test_other_shapes_are_numpy_beta(self):
        want = np.random.default_rng(5).beta(1.5, 2.0, 1000)
        assert beta_draw((1.5, 2.0), np.random.default_rng(5), 1000).tobytes() == want.tobytes()


class _RejectFirstBlock:
    """A generator whose first ``uniform`` block lies wholly outside the unit
    disk and draws nothing from the stream; later calls are the stream's."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.blocks = 0

    def uniform(self, low, high, size):
        self.blocks += 1
        if self.blocks == 1:
            return np.full(size, 0.75)
        return self._rng.uniform(low, high, size)


@pytest.fixture(scope="module")
def sphere():
    return unit_sphere(np.random.default_rng(12), 200_000)


class TestUnitSphere:
    """Marsaglia's directions: unit length, z and the azimuth uniform, and
    an isotropic second moment, each within 4 standard errors or at KS
    p > 1e-3 over 2e5 draws."""

    def test_unit_length(self, sphere):
        assert sphere.shape == (200_000, 3)
        assert np.max(np.abs(np.sqrt(sq_norm(sphere)) - 1.0)) <= 1e-15

    def test_z_is_uniform(self, sphere):
        assert stats.kstest(sphere[:, 2], stats.uniform(-1.0, 2.0).cdf).pvalue > 1e-3

    def test_azimuth_is_uniform(self, sphere):
        phi = np.arctan2(sphere[:, 1], sphere[:, 0])
        assert stats.kstest(phi, stats.uniform(-np.pi, 2.0 * np.pi).cdf).pvalue > 1e-3

    def test_second_moment_is_a_third_of_the_identity(self, sphere):
        outer = sphere[:, :, None] * sphere[:, None, :]
        se = outer.std(axis=0) / np.sqrt(len(sphere))
        assert np.all(np.abs(outer.mean(axis=0) - np.eye(3) / 3.0) <= 4.0 * se)

    @pytest.mark.parametrize("n", [0, 1])
    def test_shape_of_small_batches(self, n):
        assert unit_sphere(np.random.default_rng(0), n).shape == (n, 3)

    def test_a_seed_reproduces_its_directions(self):
        a = unit_sphere(np.random.default_rng(7), 1000)
        assert a.tobytes() == unit_sphere(np.random.default_rng(7), 1000).tobytes()

    @pytest.mark.parametrize("n", [1, 1000])
    def test_a_block_that_keeps_too_few_pairs_is_followed_by_another(self, n):
        rng = _RejectFirstBlock(3)
        got = unit_sphere(rng, n)
        assert rng.blocks == 2
        assert got.tobytes() == unit_sphere(np.random.default_rng(3), n).tobytes()


def _split_law(delta_i, delta_j):
    return pair_law(mixture_cont_spec(delta_a=delta_i, delta_b=delta_j), 0, 1)


def _follows(x, law, lo=1e-300, hi=1.0 - 1e-12):
    """Whether draws ``x`` follow the continuous ``law`` on [lo, hi]: the
    share of draws there within 4 standard errors of its probability, and
    KS p > 1e-3 against the law conditioned on [lo, hi].  At shapes far
    below 1 most draws round to exactly 0 or 1, point masses a KS test
    against the continuous law cannot take; [lo, hi] leaves them out."""
    inside = (x >= lo) & (x <= hi)
    p = law.cdf(hi) - law.cdf(lo)
    if abs(inside.mean() - p) > 4.0 * np.sqrt(p * (1.0 - p) / x.size) + 1e-15:
        return False
    conditional = lambda t: (law.cdf(t) - law.cdf(lo)) / p
    return stats.kstest(x[inside], conditional).pvalue > 1e-3


class _ZeroGammas:
    """A generator whose first two ``standard_gamma`` batches are 0 on every
    third row, as Gamma draws far below shape 1 underflow; everything else
    is the stream's."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.calls = 0

    def standard_gamma(self, shape, n):
        self.calls += 1
        g = self._rng.standard_gamma(shape, n)
        if self.calls <= 2:
            g[::3] = 0.0
        return g

    def __getattr__(self, name):
        return getattr(self._rng, name)


class TestExchangeSplit:
    """r is Beta(delta_i/2, delta_j/2), R is Beta(3/2, (delta_i + delta_j)/2),
    and the two are uncorrelated, over 2e5 draws, with no numpy warning."""

    N = 200_000

    @pytest.mark.parametrize("delta_i, delta_j",
                             [(2.0, 2.0), (2.5, 2.5), (0.6, 3.0), (0.1, 0.1), (0.005, 0.005)])
    def test_law(self, delta_i, delta_j):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r, R = exchange_split(_split_law(delta_i, delta_j), np.random.default_rng(11),
                                  self.N)
        assert r.shape == R.shape == (self.N,)
        assert np.all((r >= 0.0) & (r <= 1.0) & (R >= 0.0) & (R <= 1.0))
        assert _follows(r, stats.beta(0.5 * delta_i, 0.5 * delta_j))
        assert _follows(R, stats.beta(1.5, 0.5 * (delta_i + delta_j)))
        assert abs(np.corrcoef(r, R)[0, 1]) <= 4.0 / np.sqrt(self.N)

    def test_one_dirichlet_draw_from_three_gamma_batches(self):
        law = _split_law(2.5, 3.0)
        r, R = exchange_split(law, np.random.default_rng(4), 1000)
        rng = np.random.default_rng(4)
        g1, g2, g3 = (rng.standard_gamma(a, 1000) for a in (1.25, 1.5, 1.5))
        assert r.tobytes() == (g1 / (g1 + g2)).tobytes()
        assert R.tobytes() == (g3 / (g3 + (g1 + g2))).tobytes()

    def test_rows_whose_gammas_underflow_take_r_from_beta_draw(self):
        law = _split_law(2.5, 2.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r, R = exchange_split(law, _ZeroGammas(6), 999)
        rng = np.random.default_rng(6)
        g1, g2, g3 = (rng.standard_gamma(a, 999) for a in (1.25, 1.25, 1.5))
        assert np.all(R[::3] == 1.0)
        assert r[::3].tobytes() == beta_draw(law.beta_r, rng, 333).tobytes()
        keep = np.arange(999) % 3 != 0
        assert r[keep].tobytes() == (g1 / (g1 + g2))[keep].tobytes()

    def test_shapes_below_the_gamma_floor_take_two_beta_draws(self):
        law = _split_law(0.005, 0.005)
        r, R = exchange_split(law, np.random.default_rng(8), 1000)
        rng = np.random.default_rng(8)
        assert r.tobytes() == beta_draw(law.beta_r, rng, 1000).tobytes()
        assert R.tobytes() == beta_draw(law.beta_R, rng, 1000).tobytes()

    @pytest.mark.parametrize("pair", [(0, 1), (1, 0)], ids=["poly-mono", "mono-poly"])
    def test_one_sided_pairs_draw_R_alone(self, pair):
        law = pair_law(mixture_cont_spec(delta_a=2.5, delta_b=None), *pair)
        r, R = exchange_split(law, np.random.default_rng(9), 1000)
        assert r is None
        assert R.tobytes() == beta_draw(law.beta_R, np.random.default_rng(9), 1000).tobytes()

    def test_two_monatomic_species_draw_nothing(self):
        law = pair_law(single_species(Monatomic(), PowerLawE(C=1.0, zeta=0.0)), 0, 0)
        rng = np.random.default_rng(10)
        state = rng.bit_generator.state
        assert exchange_split(law, rng, 1000) == (None, None)
        assert rng.bit_generator.state == state


class TestChannelDraw:
    """(k', l') falls on each channel with probability
    g_k' g_l' / (sum g_i)(sum g_j): chi-square p > 1e-3 over 2e5 draws."""

    N = 200_000

    def test_law(self):
        law = pair_law(ODD_DEGENERACIES, 0, 1)
        kp, lp = channel_draw(law, np.random.default_rng(13), self.N)
        assert kp.shape == lp.shape == (self.N,)
        gi, gj = law.levels_i[1], law.levels_j[1]
        counts = np.bincount(kp * gj.size + lp, minlength=gi.size * gj.size)
        expected = self.N * np.outer(gi, gj).ravel() / (gi.sum() * gj.sum())
        assert stats.chisquare(counts, expected).pvalue > 1e-3

    def test_one_level_spectrum_draws_zeros(self):
        law = pair_law(discrete_spec(energies=(0.0,), degeneracies=(3.0,)), 0, 0)
        kp, lp = channel_draw(law, np.random.default_rng(14), 1000)
        assert kp.shape == lp.shape == (1000,)
        assert not kp.any() and not lp.any()


class TestMajorant:
    @pytest.mark.parametrize("spec, pair", [
        (bl_spec(delta=2.0), (0, 0)),
        (mixture_cont_spec(), (0, 1)),
        (mixture_cont_spec(delta_b=None), (0, 1)),
        (mixture_cont_spec(delta_b=None), (1, 0)),
        (single_species(Monatomic(), PowerLawE(C=1.0, zeta=0.0)), (0, 0)),
    ], ids=["cont-cont", "cont-cont-masses", "poly-mono", "mono-poly", "mono-mono"])
    def test_exchange_pairs_are_bounded_by_their_constant_rate(self, spec, pair):
        law = pair_law(spec, *pair)
        for C in (1.0, 2.5, 1e-300):
            assert law.majorant(C, 0.0) == C * law.weight
            assert law.majorant(C, -0.0) == C * law.weight

    @pytest.mark.parametrize("zeta", [0.5, 2.0, -0.7, 1e-300])
    def test_no_bound_away_from_zeta_zero(self, zeta):
        for spec, pair in ((bl_spec(), (0, 0)), (mixture_cont_spec(delta_b=None), (1, 0)),
                           (discrete_spec(), (0, 0)), (mixture_disc_spec(), (0, 1))):
            assert pair_law(spec, *pair).majorant(1.0, zeta) is None

    @pytest.mark.parametrize("spec, pair, bare", [
        # C w sqrt(2/mu) (sum g_i)(sum g_j), w = 4 pi
        (discrete_spec(), (0, 0), 4 * np.pi * 2.0 * 4.0 * 4.0),
        (discrete_spec(energies=(0.0, 0.7, 1.5), degeneracies=(1.0, 3.0, 5.0)), (0, 0),
         4 * np.pi * 2.0 * 81.0),
        (mixture_disc_spec(), (0, 1), None),
    ], ids=["discrete", "three-level", "mixture"])
    def test_disc_disc_bound(self, spec, pair, bare):
        law = pair_law(spec, *pair)
        (li, gi), (lj, gj) = law.levels_i, law.levels_j
        if bare is None:
            bare = 4 * np.pi * np.sqrt(2.0 / law.mu) * gi.sum() * gj.sum()
        pad = 8 * 2.0**-52
        for C in (1.0, 0.3):
            b = law.majorant(C, 0.0)
            assert C * bare * (1 + pad - 1e-15) <= b <= C * bare * (1 + pad + 1e-15)

    def test_negative_level_has_no_bound(self):
        law = pair_law(discrete_spec(), 0, 0)
        low = (np.array([-0.1, 0.7, 1.8]), law.levels_i[1])
        assert replace(law, levels_i=low).majorant(1.0, 0.0) is None
        assert replace(law, levels_j=low).majorant(1.0, 0.0) is None
