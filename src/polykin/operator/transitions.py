"""Proposal sampling of collision transitions, one scheme per model family.

A transition sample holds the partner state, the exchange parameters, and
the post-collisional pair, together with two log quantities the estimators
combine: ``log_phi`` (the degeneracy ratio entering the gain term) and
``log_aq`` = log(A/q), the transition weight A divided by the proposal
density of everything that was drawn.  Rows with zero weight (inadmissible
discrete channels, vanishing kernel) carry ``log_aq`` = -inf.

Sampling order is fixed per family (partner velocity, partner internal
state, exchange parameters, scattering direction) so that results are
reproducible for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import special

from ..collide import (
    PairKind,
    bl_poly_mono,
    bl_poly_poly,
    discrete_rule,
    monatomic_rule,
    pair_law,
    resonant_rule,
)
from ..equilib import Maxwellian
from ..model import (
    CollisionContext,
    ContinuousEnergy,
    KernelModel,
    MixtureSpec,
    Monatomic,
    PsiWeighted,
    ResonantTensored,
    eval_kernel,
)
from .mc import QuadratureConfig

__all__ = ["Proposal", "TransitionBatch", "make_proposal", "sample_transition"]

_TINY = 1e-300
_LOG_4PI = np.log(4.0 * np.pi)


def _pow_log(x, p: float):
    """p * log(x), with the convention 0 * log(0) = 0."""
    if p == 0.0:
        return np.zeros(np.shape(x))
    return p * np.log(np.maximum(x, _TINY))


def unit_sphere(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.uniform(-1.0, 1.0, n)
    phi = rng.uniform(0.0, 2.0 * np.pi, n)
    s = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    return np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=-1)


@dataclass(frozen=True)
class Proposal:
    """Resolved proposal distributions for one species pair.

    ``maxwellian`` supplies the partner-state draws (Gaussian velocity and
    Gamma/Gibbs internal state at its temperatures); the Beta shapes cover
    the energy-exchange parameters where the family has them.
    """

    maxwellian: Maxwellian
    pair: tuple[int, int]
    beta_r: tuple[float, float] | None
    beta_R: tuple[float, float] | None
    gamma_shape: float | None
    i_truncation: float | None


def make_proposal(
    m_ref: Maxwellian, pair: tuple[int, int], cfg: QuadratureConfig
) -> Proposal:
    """Derive the proposal for ``pair`` from a reference equilibrium."""
    spec = m_ref.spec
    i, j = pair
    law = pair_law(spec, i, j)
    prop_m = m_ref
    if cfg.proposal_temperature is not None:
        t = cfg.proposal_temperature
        prop_m = Maxwellian(
            spec, replace(m_ref.params, T_kin=t, T_int=t), m_ref.units
        )

    beta_r = law.beta_r if cfg.beta_r is None else cfg.beta_r
    beta_R = law.beta_R if cfg.beta_R is None else cfg.beta_R
    return Proposal(prop_m, (i, j), beta_r, beta_R, cfg.gamma_shape, cfg.i_truncation)


@dataclass
class TransitionBatch:
    """One chunk of sampled transitions for a fixed species pair.

    Internal-state arrays are continuous energies, level indices, or None
    according to the species; ``log_aq`` is log(A/q) with -inf marking
    zero-weight rows.
    """

    pair: tuple[int, int]
    v: np.ndarray
    i_pre: np.ndarray | None
    v_star: np.ndarray
    i_star: np.ndarray | None
    v_post: np.ndarray
    i_post: np.ndarray | None
    v_post_star: np.ndarray
    i_post_star: np.ndarray | None
    log_phi: np.ndarray
    log_aq: np.ndarray
    diagnostics: dict


def _gaussian_partner(prop: Proposal, rng, n: int, j: int):
    m = prop.maxwellian.spec.species[j].mass
    kT = prop.maxwellian.units.k_B * prop.maxwellian.params.T_kin
    u = prop.maxwellian.params.u
    v = u + rng.normal(0.0, np.sqrt(kT / m), (n, 3))
    dv = v - u
    log_q = 1.5 * np.log(m / (2.0 * np.pi * kT)) - 0.5 * m * np.sum(dv * dv, -1) / kT
    return v, log_q


def _gamma_partner(prop: Proposal, rng, n: int, j: int):
    delta = prop.maxwellian.spec.species[j].energy.delta
    a = prop.gamma_shape if prop.gamma_shape is not None else 0.5 * delta
    kT = prop.maxwellian.units.k_B * prop.maxwellian.params.T_int
    if prop.i_truncation is None:
        I = rng.gamma(a, kT, n)
        log_norm = 0.0
    else:
        # inverse-CDF draw restricted to [0, i_truncation]
        frac = special.gammainc(a, prop.i_truncation / kT)
        I = kT * special.gammaincinv(a, rng.uniform(0.0, 1.0, n) * frac)
        log_norm = np.log(frac)
    log_q = (
        _pow_log(I, a - 1.0)
        - I / kT
        - special.gammaln(a)
        - a * np.log(kT)
        - log_norm
    )
    return I, log_q


def _beta_draw(shapes, rng, n: int):
    a, b = shapes
    x = np.clip(rng.beta(a, b, n), _TINY, 1.0 - 2**-53)
    log_q = (
        _pow_log(x, a - 1.0)
        + _pow_log(1.0 - x, b - 1.0)
        - special.betaln(a, b)
    )
    return x, log_q


def _gibbs_partner(prop: Proposal, rng, n: int, j: int):
    e = prop.maxwellian.spec.species[j].energy
    kT = prop.maxwellian.units.k_B * prop.maxwellian.params.T_int
    w = np.asarray(e.degeneracies) * np.exp(-np.asarray(e.energies) / kT)
    p = w / w.sum()
    lev = rng.choice(p.size, size=n, p=p)
    return lev, np.log(p)[lev]


def _log_b(kernel: KernelModel, ctx: CollisionContext, pair_has_split: bool):
    if isinstance(kernel, PsiWeighted) and kernel.psi is not None and not pair_has_split:
        raise ValueError(
            "a psi-weighted kernel needs an energy-split variable; "
            "this species pair has none"
        )
    b = eval_kernel(kernel, ctx)
    with np.errstate(divide="ignore"):
        return np.log(np.asarray(b, dtype=float))


def _bl_pair(spec, pair, law, kernel, v, I, prop, rng, n):
    i, j = pair
    di = spec.species[i].energy.delta
    dj = spec.species[j].energy.delta
    v_star, lq_v = _gaussian_partner(prop, rng, n, j)
    I_star, lq_I = _gamma_partner(prop, rng, n, j)
    r, lq_r = _beta_draw(prop.beta_r, rng, n)
    R, lq_R = _beta_draw(prop.beta_R, rng, n)
    sigma = unit_sphere(rng, n)
    vp, vsp, Ip, Isp, E = bl_poly_poly(v, v_star, I, I_star, r, R, sigma, law.m_i, law.m_j)
    log_b = _log_b(kernel, CollisionContext(E=E, r=r, R=R), True)
    log_a = (
        log_b
        + _pow_log(r, 0.5 * di - 1.0)
        + _pow_log(1.0 - r, 0.5 * dj - 1.0)
        + _pow_log(1.0 - R, 0.5 * (di + dj) - 1.0)
        + 0.5 * np.log(R)
    )
    log_q = lq_v + lq_I + lq_r + lq_R - _LOG_4PI
    log_phi = _pow_log(I, 0.5 * di - 1.0) - _pow_log(Ip, 0.5 * di - 1.0)
    log_phi = log_phi + _pow_log(I_star, 0.5 * dj - 1.0) - _pow_log(Isp, 0.5 * dj - 1.0)
    return TransitionBatch(
        pair, v, I, v_star, I_star, vp, Ip, vsp, Isp, log_phi, log_a - log_q, {}
    )


def _resonant_pair(spec, pair, kernel, v, I, prop, rng, n):
    delta = spec.species[0].energy.delta
    v_star, lq_v = _gaussian_partner(prop, rng, n, 0)
    I_star, lq_I = _gamma_partner(prop, rng, n, 0)
    Z = I + I_star
    I_prime = rng.uniform(0.0, 1.0, n) * Z
    lq_ip = -np.log(np.maximum(Z, _TINY))
    sigma = unit_sphere(rng, n)
    vp, vsp, Ip, Isp = resonant_rule(v, v_star, I, I_star, I_prime, sigma)
    V = v - v_star
    g = np.sqrt(np.sum(V * V, -1))
    vhat = V / np.maximum(g, _TINY)[..., None]
    ctx = CollisionContext(
        rel_speed=g,
        cos_theta=np.sum(sigma * vhat, -1),
        I=I,
        I_star=I_star,
        I_prime=I_prime,
        delta=delta,
    )
    log_b = _log_b(kernel, ctx, False)
    p = 0.5 * delta - 1.0
    log_a = log_b + _pow_log(Ip, p) + _pow_log(Z - Ip, p) - _pow_log(Z, delta - 1.0)
    log_q = lq_v + lq_I + lq_ip - _LOG_4PI
    log_phi = (
        _pow_log(I, p) + _pow_log(I_star, p) - _pow_log(Ip, p) - _pow_log(Isp, p)
    )
    return TransitionBatch(
        pair, v, I, v_star, I_star, vp, Ip, vsp, Isp, log_phi, log_a - log_q, {}
    )


def _poly_mono_pair(spec, pair, law, kernel, v, I, prop, rng, n):
    i, j = pair
    di = spec.species[i].energy.delta
    v_star, lq_v = _gaussian_partner(prop, rng, n, j)
    R, lq_R = _beta_draw(prop.beta_R, rng, n)
    sigma = unit_sphere(rng, n)
    vp, vsp, Ip, E = bl_poly_mono(v, v_star, I, R, sigma, law.m_i, law.m_j)
    log_b = _log_b(kernel, CollisionContext(E=E, r=np.full(n, 0.5), R=R), False)
    p = 0.5 * di - 1.0
    log_a = log_b + _pow_log(1.0 - R, p) + 0.5 * np.log(R)
    log_q = lq_v + lq_R - _LOG_4PI
    log_phi = _pow_log(I, p) - _pow_log(Ip, p)
    return TransitionBatch(
        pair, v, I, v_star, None, vp, Ip, vsp, None, log_phi, log_a - log_q, {}
    )


def _mono_poly_pair(spec, pair, law, kernel, v, _unused, prop, rng, n):
    j = pair[1]
    dj = spec.species[j].energy.delta
    v_star, lq_v = _gaussian_partner(prop, rng, n, j)
    I_star, lq_I = _gamma_partner(prop, rng, n, j)
    R, lq_R = _beta_draw(prop.beta_R, rng, n)
    sigma = unit_sphere(rng, n)
    # the internal energy rides with the second (polyatomic) particle
    vsp_in_first_slot, vp_in_second_slot, Isp, E = bl_poly_mono(
        v_star, v, I_star, R, sigma, law.m_j, law.m_i
    )
    vp, vsp = vp_in_second_slot, vsp_in_first_slot
    log_b = _log_b(kernel, CollisionContext(E=E, r=np.full(n, 0.5), R=R), False)
    p = 0.5 * dj - 1.0
    log_a = log_b + _pow_log(1.0 - R, p) + 0.5 * np.log(R)
    log_q = lq_v + lq_I + lq_R - _LOG_4PI
    log_phi = _pow_log(I_star, p) - _pow_log(Isp, p)
    return TransitionBatch(
        pair, v, None, v_star, I_star, vp, None, vsp, Isp, log_phi, log_a - log_q, {}
    )


def _mono_mono_pair(spec, pair, law, kernel, v, _unused, prop, rng, n):
    j = pair[1]
    v_star, lq_v = _gaussian_partner(prop, rng, n, j)
    sigma = unit_sphere(rng, n)
    vp, vsp = monatomic_rule(v, v_star, sigma, law.m_i, law.m_j)
    V = v - v_star
    E = 0.5 * law.mu * np.sum(V * V, -1)
    log_b = _log_b(kernel, CollisionContext(E=E, r=np.full(n, 0.5), R=np.full(n, 0.5)), False)
    log_q = lq_v - _LOG_4PI
    zeros = np.zeros(n)
    return TransitionBatch(
        pair, v, None, v_star, None, vp, None, vsp, None, zeros, log_b - log_q, {}
    )


def _discrete_pair(spec, pair, law, kernel, v, lev, prop, rng, n):
    i, j = pair
    ei, ej = spec.species[i].energy, spec.species[j].energy
    Ei = np.asarray(ei.energies)
    Ej = np.asarray(ej.energies)
    gi = np.asarray(ei.degeneracies)
    gj = np.asarray(ej.degeneracies)
    v_star, lq_v = _gaussian_partner(prop, rng, n, j)
    lev_star, lq_lev = _gibbs_partner(prop, rng, n, j)
    k_post = rng.integers(0, Ei.size, n)
    l_post = rng.integers(0, Ej.size, n)
    lq_ch = -np.log(float(Ei.size * Ej.size))
    sigma = unit_sphere(rng, n)
    delta_I = Ei[k_post] + Ej[l_post] - Ei[lev] - Ej[lev_star]
    vp, vsp, ok = discrete_rule(v, v_star, delta_I, sigma, law.m_i, law.m_j)
    V = v - v_star
    g2 = np.sum(V * V, -1)
    E = 0.5 * law.mu * g2 + Ei[lev] + Ej[lev_star]
    g_post = np.sqrt(np.maximum(g2 - 2.0 * delta_I / law.mu, 0.0))
    log_b = _log_b(
        kernel, CollisionContext(E=E, r=np.full(n, 0.5), R=np.full(n, 0.5)), False
    )
    with np.errstate(divide="ignore"):
        log_a = (
            log_b
            + np.log(gi[k_post] * gj[l_post])
            + np.log(np.maximum(g_post, 0.0))
            - 0.5 * np.log(np.maximum(E, _TINY))
        )
    log_aq = np.where(ok, log_a - (lq_v + lq_lev + lq_ch - _LOG_4PI), -np.inf)
    log_phi = np.log(gi[lev] * gj[lev_star]) - np.log(gi[k_post] * gj[l_post])
    diag = {"inadmissible": int(np.sum(~ok))}
    return TransitionBatch(
        pair, v, lev, v_star, lev_star, vp, k_post, vsp, l_post, log_phi, log_aq, diag
    )


_SAMPLERS = {
    PairKind.CONT_CONT: _bl_pair,
    PairKind.POLY_MONO: _poly_mono_pair,
    PairKind.MONO_POLY: _mono_poly_pair,
    PairKind.MONO_MONO: _mono_mono_pair,
    PairKind.DISC_DISC: _discrete_pair,
}


def sample_transition(
    spec: MixtureSpec,
    pair: tuple[int, int],
    kernel: KernelModel,
    v: np.ndarray,
    internal,
    prop: Proposal,
    rng: np.random.Generator,
    n: int,
) -> TransitionBatch:
    """Draw ``n`` transitions from states (v, internal) of species pair."""
    i, j = pair
    law = pair_law(spec, i, j)
    if isinstance(kernel, ResonantTensored):
        if not (i == j and law.kind is PairKind.CONT_CONT and spec.n_species == 1):
            raise ValueError("resonant kernels require a single continuous species")
        return _resonant_pair(spec, pair, kernel, v, internal, prop, rng, n)
    return _SAMPLERS[law.kind](spec, pair, law, kernel, v, internal, prop, rng, n)


def sample_state(prop: Proposal, species: int, rng: np.random.Generator, n: int):
    """Draw first-particle states from the proposal equilibrium marginals.

    Returns (v, internal, log_q) where log_q is the per-state proposal
    density (the equilibrium density divided by the species number density).
    """
    energy = prop.maxwellian.spec.species[species].energy
    v, lq_v = _gaussian_partner(prop, rng, n, species)
    if isinstance(energy, Monatomic):
        return v, None, lq_v
    if isinstance(energy, ContinuousEnergy):
        I, lq_i = _gamma_partner(prop, rng, n, species)
        return v, I, lq_v + lq_i
    lev, lq_lev = _gibbs_partner(prop, rng, n, species)
    return v, lev, lq_v + lq_lev
