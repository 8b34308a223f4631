"""The transition samplers against one hand-written sampler per family.

The samplers below each draw their own partner state with their own copies
of the proposal draws and derive their own Beta shapes and weight constants
from the species' delta, with mono-poly as a separate copy of poly-mono that
puts the internal energy on the second slot by hand.  Each split variable
is drawn from its Beta law, so its weight over the proposal is the constant
4 pi times the Beta functions of its shapes; the two splits of two
continuous species come from one Dirichlet draw (``collide.exchange_split``),
and every direction from ``collide.unit_sphere``.  A disc-disc pair's post
levels are drawn in proportion to their degeneracies, k' first, so its
weight over the proposal is 4 pi (sum g_i)(sum g_j) |V'| b / sqrt(E).  ``sample_transition`` draws
the partner once through ``sample_state``, takes the shapes and weight from
the pair law of its proposal and runs every exchange pair, two continuous
species, poly-mono in either slot order and two monatomic species, through
one sampler; every array of every batch must agree bit for bit, at each of
several reference equilibria the proposal is built on.  ``log_phi`` is
pinned in one order for every family: log phi(I) - log phi(I') +
log phi(I_*) - log phi(I'_*), added left to right to zeros.
"""

import math

import numpy as np
import pytest

from polykin.collide import (
    PairKind,
    _beta,
    beta_draw,
    bl_poly_poly,
    discrete_rule,
    exchange_split,
    monatomic_rule,
    pair_law,
    resonant_rule,
    unit_sphere,
)
from polykin.equilib import EquilibriumParams, Maxwellian
from polykin.model import (
    CollisionContext,
    ContinuousEnergy,
    Monatomic,
    PowerLawE,
    ResonantTensored,
    eval_kernel,
    single_species,
)
from polykin.operator.transitions import make_proposal, sample_state, sample_transition

from support import (ODD_DEGENERACIES, bl_spec, discrete_spec, mixture_cont_spec,
                     mixture_disc_spec, resonant_spec)

FIELDS = ("v", "i_pre", "v_star", "i_star", "v_post", "i_post", "v_post_star",
          "i_post_star", "log_phi", "log_aq", "diagnostics")

_TINY = 1e-300


def _pow_log(x, p):
    if p == 0.0:
        return np.zeros(np.shape(x))
    return p * np.log(np.maximum(x, _TINY))


def _log_b(kernel, ctx, pair_has_split):
    if isinstance(kernel, PowerLawE) and kernel.psi is not None and not pair_has_split:
        raise ValueError("a psi-weighted kernel needs an energy-split variable")
    with np.errstate(divide="ignore"):
        return np.log(np.asarray(eval_kernel(kernel, ctx), dtype=float))


def _gaussian_partner(M, rng, n, j):
    m = M.spec.species[j].mass
    T, u = M.params.T_kin, M.params.u
    v = u + rng.normal(0.0, np.sqrt(T / m), (n, 3))
    dv = v - u
    return v, 1.5 * np.log(m / (2.0 * np.pi * T)) - 0.5 * m * np.sum(dv * dv, -1) / T


def _gamma_partner(M, rng, n, j):
    a = 0.5 * M.spec.species[j].energy.delta
    T = M.params.T_int
    I = rng.gamma(a, T, n)
    return I, _pow_log(I, a - 1.0) - I / T - math.lgamma(a) - a * np.log(T)


def _beta_draw(a, b, rng, n):
    return np.clip(beta_draw((a, b), rng, n), _TINY, 1.0 - 2**-53)


def _log_weight(*shapes):
    """log of 4 pi times the Beta function of each of ``shapes``."""
    w = 4.0 * np.pi
    for a, b in shapes:
        w = w * _beta(a, b)
    return math.log(w)


def _gibbs_partner(M, rng, n, j):
    e = M.spec.species[j].energy
    E, g = np.asarray(e.energies), np.asarray(e.degeneracies)
    T = M.params.T_int
    w = g * np.exp(-(E - E.min()) / T)
    lev = rng.choice(w.size, size=n, p=w / w.sum())
    # the closed-form Gibbs log probability, log g_k - (E_k - E_min)/T - log Q
    return lev, np.log(g[lev]) - (E[lev] - E.min()) / T - np.log(np.sum(w))


def _bl_pair(spec, pair, law, kernel, v, I, M, rng, n):
    i, j = pair
    di = spec.species[i].energy.delta
    dj = spec.species[j].energy.delta
    v_star, lq_v = _gaussian_partner(M, rng, n, j)
    I_star, lq_I = _gamma_partner(M, rng, n, j)
    # (R, r (1 - R), (1 - r)(1 - R)) is one Dirichlet(3/2, di/2, dj/2) draw
    r, R = (np.clip(x, _TINY, 1.0 - 2**-53) for x in exchange_split(law, rng, n))
    sigma = unit_sphere(rng, n)
    vp, vsp, Ip, Isp, E = bl_poly_poly(v, v_star, I, I_star, r, R, sigma, law.m_i, law.m_j)
    log_b = _log_b(kernel, CollisionContext(E=E, r=r, R=R), True)
    log_aq = log_b - (lq_v + lq_I - _log_weight((0.5 * di, 0.5 * dj), (1.5, 0.5 * (di + dj))))
    log_phi = _pow_log(I, 0.5 * di - 1.0) - _pow_log(Ip, 0.5 * di - 1.0)
    log_phi = log_phi + _pow_log(I_star, 0.5 * dj - 1.0) - _pow_log(Isp, 0.5 * dj - 1.0)
    return (v, I, v_star, I_star, vp, Ip, vsp, Isp, log_phi, log_aq, {})


def _resonant_pair(spec, pair, kernel, v, I, M, rng, n):
    delta = spec.species[0].energy.delta
    v_star, lq_v = _gaussian_partner(M, rng, n, 0)
    I_star, lq_I = _gamma_partner(M, rng, n, 0)
    Z = I + I_star
    I_prime = _beta_draw(0.5 * delta, 0.5 * delta, rng, n) * Z
    sigma = unit_sphere(rng, n)
    vp, vsp, Ip, Isp = resonant_rule(v, v_star, I, I_star, I_prime, sigma)
    V = v - v_star
    g = np.sqrt(np.sum(V * V, -1))
    vhat = V / np.maximum(g, _TINY)[..., None]
    ctx = CollisionContext(rel_speed=g, cos_theta=np.sum(sigma * vhat, -1), I=I,
                           I_star=I_star, I_prime=I_prime, delta=delta)
    log_b = _log_b(kernel, ctx, False)
    log_aq = log_b - (lq_v + lq_I - _log_weight((0.5 * delta, 0.5 * delta)))
    p = 0.5 * delta - 1.0
    log_phi = (np.zeros(n) + _pow_log(I, p) - _pow_log(Ip, p)
               + _pow_log(I_star, p) - _pow_log(Isp, p))
    return (v, I, v_star, I_star, vp, Ip, vsp, Isp, log_phi, log_aq, {})


def _poly_mono_pair(spec, pair, law, kernel, v, I, M, rng, n):
    i, j = pair
    di = spec.species[i].energy.delta
    v_star, lq_v = _gaussian_partner(M, rng, n, j)
    R = _beta_draw(1.5, 0.5 * di, rng, n)
    sigma = unit_sphere(rng, n)
    vp, vsp, Ip, _, E = bl_poly_poly(v, v_star, I, 0.0, 1.0, R, sigma, law.m_i, law.m_j)
    log_b = _log_b(kernel, CollisionContext(E=E, r=np.full(n, 0.5), R=R), False)
    log_aq = log_b - (lq_v - _log_weight((1.5, 0.5 * di)))
    p = 0.5 * di - 1.0
    log_phi = _pow_log(I, p) - _pow_log(Ip, p)
    return (v, I, v_star, None, vp, Ip, vsp, None, log_phi, log_aq, {})


def _mono_poly_pair(spec, pair, law, kernel, v, _unused, M, rng, n):
    j = pair[1]
    dj = spec.species[j].energy.delta
    v_star, lq_v = _gaussian_partner(M, rng, n, j)
    I_star, lq_I = _gamma_partner(M, rng, n, j)
    R = _beta_draw(1.5, 0.5 * dj, rng, n)
    sigma = unit_sphere(rng, n)
    # the internal energy rides with the second (polyatomic) particle
    vp, vsp, _, Isp, E = bl_poly_poly(v, v_star, 0.0, I_star, 0.0, R, sigma, law.m_i, law.m_j)
    log_b = _log_b(kernel, CollisionContext(E=E, r=np.full(n, 0.5), R=R), False)
    log_aq = log_b - (lq_v + lq_I - _log_weight((1.5, 0.5 * dj)))
    p = 0.5 * dj - 1.0
    log_phi = _pow_log(I_star, p) - _pow_log(Isp, p)
    return (v, None, v_star, I_star, vp, None, vsp, Isp, log_phi, log_aq, {})


def _mono_mono_pair(spec, pair, law, kernel, v, _unused, M, rng, n):
    j = pair[1]
    v_star, lq_v = _gaussian_partner(M, rng, n, j)
    sigma = unit_sphere(rng, n)
    vp, vsp = monatomic_rule(v, v_star, sigma, law.m_i, law.m_j)
    V = v - v_star
    E = 0.5 * law.mu * np.sum(V * V, -1)
    log_b = _log_b(kernel, CollisionContext(E=E, r=np.full(n, 0.5), R=np.full(n, 0.5)), False)
    log_aq = log_b - (lq_v - _log_weight())
    return (v, None, v_star, None, vp, None, vsp, None, np.zeros(n), log_aq, {})


def _discrete_pair(spec, pair, law, kernel, v, lev, M, rng, n):
    i, j = pair
    ei, ej = spec.species[i].energy, spec.species[j].energy
    Ei, Ej = np.asarray(ei.energies), np.asarray(ej.energies)
    gi, gj = np.asarray(ei.degeneracies), np.asarray(ej.degeneracies)
    v_star, lq_v = _gaussian_partner(M, rng, n, j)
    lev_star, lq_lev = _gibbs_partner(M, rng, n, j)
    # each post level in proportion to its degeneracy, k' first
    k_post = rng.choice(Ei.size, n, p=gi / gi.sum())
    l_post = rng.choice(Ej.size, n, p=gj / gj.sum())
    sigma = unit_sphere(rng, n)
    delta_I = Ei[k_post] + Ej[l_post] - Ei[lev] - Ej[lev_star]
    vp, vsp, ok = discrete_rule(v, v_star, delta_I, sigma, law.m_i, law.m_j)
    V = v - v_star
    g2 = np.sum(V * V, -1)
    E = 0.5 * law.mu * g2 + Ei[lev] + Ej[lev_star]
    g_post = np.sqrt(np.maximum(g2 - 2.0 * delta_I / law.mu, 0.0))
    log_b = _log_b(kernel, CollisionContext(E=E, r=np.full(n, 0.5), R=np.full(n, 0.5)), False)
    with np.errstate(divide="ignore"):
        log_a = log_b + np.log(g_post) - 0.5 * np.log(np.maximum(E, _TINY))
    # the drawn channel's g_k' g_l' cancels against its probability
    log_aq = np.where(ok, log_a - (lq_v + lq_lev - math.log(4.0 * np.pi * gi.sum() * gj.sum())),
                      -np.inf)
    log_phi = (np.zeros(n) + np.log(gi[lev]) - np.log(gi[k_post])
               + np.log(gj[lev_star]) - np.log(gj[l_post]))
    diag = {"inadmissible": int(np.sum(~ok))}
    return (v, lev, v_star, lev_star, vp, k_post, vsp, l_post, log_phi, log_aq, diag)


_REFERENCE = {
    PairKind.CONT_CONT: _bl_pair,
    PairKind.POLY_MONO: _poly_mono_pair,
    PairKind.MONO_POLY: _mono_poly_pair,
    PairKind.MONO_MONO: _mono_mono_pair,
    PairKind.DISC_DISC: _discrete_pair,
}


def _reference_transition(spec, pair, kernel, v, internal, M, rng, n):
    law = pair_law(spec, *pair)
    if isinstance(kernel, ResonantTensored):
        return _resonant_pair(spec, pair, kernel, v, internal, M, rng, n)
    return _REFERENCE[law.kind](spec, pair, law, kernel, v, internal, M, rng, n)


def _symmetric_psi(r, R):
    """A parameter weight unchanged under r -> 1 - r, as PowerLawE's psi must be."""
    return 1.0 + 2.0 * r * (1.0 - r) * R


PAIRS = {
    "cont-cont": (bl_spec(delta=2.5, zeta=0.6), (0, 0)),
    "cont-cont-masses": (mixture_cont_spec(), (0, 1)),
    "cont-cont-psi": (single_species(ContinuousEnergy(delta=3.0),
                                     PowerLawE(C=1.0, zeta=0.4, psi=_symmetric_psi),
                                     mass=1.2), (0, 0)),
    "poly-mono": (mixture_cont_spec(delta_b=None), (0, 1)),
    "mono-poly": (mixture_cont_spec(delta_b=None), (1, 0)),
    "mono-mono": (single_species(Monatomic(), PowerLawE(C=1.0, zeta=0.4), mass=1.5), (0, 0)),
    "disc-disc": (mixture_disc_spec(), (0, 1)),
    "disc-disc-single": (discrete_spec(), (0, 0)),
    "disc-disc-odd-degeneracies": (ODD_DEGENERACIES, (0, 1)),
    "resonant": (resonant_spec(delta=3.0), (0, 0)),
}

# reference equilibria (drift, T_kin, T_int, densities) the proposal is built on
STATES = {
    "default": ((0.1, 0.0, -0.2), 1.1, 0.9, (1.0, 1.0)),
    "at-rest": ((0.0, 0.0, 0.0), 1.0, 1.0, (1.0, 1.0)),
    "cold-internal": ((0.1, 0.0, -0.2), 1.1, 0.05, (1.0, 1.0)),
    "hot-internal": ((0.1, 0.0, -0.2), 0.8, 6.0, (1.0, 1.0)),
    "fast-drift": ((2.5, -1.0, 0.5), 0.4, 0.4, (1.0, 1.0)),
    "unequal-densities": ((0.1, 0.0, -0.2), 1.1, 0.9, (0.3, 2.5)),
}

def _same(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, dict):
        return a == b
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b, equal_nan=True)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("state", list(STATES))
@pytest.mark.parametrize("case", list(PAIRS))
def test_batch_matches_the_family_samplers(case, state, seed):
    spec, (i, j) = PAIRS[case]
    u, T_kin, T_int, n_species = STATES[state]
    params = EquilibriumParams(n=n_species[:len(spec.species)], u=np.array(u),
                               T_kin=T_kin, T_int=T_int)
    M = Maxwellian(spec, params)
    prop = make_proposal(M, (i, j))
    n = 500
    v, internal, _ = sample_state(prop, i, np.random.default_rng(100 + seed), n)
    kernel = spec.kernel(i, j)
    got = sample_transition(spec, (i, j), kernel, v, internal, prop,
                            np.random.default_rng(seed), n)
    want = _reference_transition(spec, (i, j), kernel, v, internal, M,
                                 np.random.default_rng(seed), n)
    for name, ref in zip(FIELDS, want):
        assert _same(getattr(got, name), ref), name
