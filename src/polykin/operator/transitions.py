"""Proposal sampling of collision transitions: exchange, discrete, resonant.

A transition sample holds the partner state, the exchange parameters, and
the post-collisional pair, together with two log quantities the estimators
combine: ``log_phi`` (the degeneracy ratio entering the gain term) and
``log_aq`` = log(A/q), the transition weight A divided by the proposal
density of everything that was drawn.  Rows with zero weight (inadmissible
discrete channels, vanishing kernel) carry ``log_aq`` = -inf.

:func:`make_proposal` resolves the pair law once per estimator call.
:func:`sample_transition` draws the partner state once with
:func:`sample_state` (through the proposal's Maxwellian, which also gives
its density) and hands over to one of three samplers: discrete levels,
resonant, or the Borgnakke-Larsen exchange sampler, which serves two
continuous species, poly-mono in either slot order and two monatomic
species alike.  Each sampler draws every continuous split from its Beta
law (Borgnakke & Larsen, J. Comput. Phys. 18, 1975): r where the law's
``beta_r`` is set, R where its ``beta_R`` is set, and a resonant pair's
I' / (I + I_*) from Beta(delta/2, delta/2).  So the weight of those draws
and the scattering direction over their density is a constant, 4 pi times
the laws' Beta functions; the discrete sampler draws each post level in
proportion to its degeneracy, so no level's degeneracy is left in its A/q.
The masses and a disc-disc pair's level tables
come from the law too; the degeneracy factor comes from the species'
internal-energy weights, as :func:`sample_transition` forms ``log_phi``
once from the batch's internal states (``equilib._log_phi_ratio``).

Draw order, fixed so that results reproduce for a fixed seed: the partner
state (velocity, then internal state), then the exchange parameters, then
the scattering direction (``collide.unit_sphere``).  The exchange sampler
takes (r, R) from ``collide.exchange_split``, which draws the split of two
continuous species as one Dirichlet(3/2, delta_i/2, delta_j/2) draw of
three Gamma batches and R alone with ``beta_draw`` for a one-sided pair;
the resonant sampler draws I' / (I + I_*) with ``beta_draw``, and the
discrete sampler draws the post levels k', then l', with
``collide.channel_draw``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..collide import (
    PairKind,
    PairLaw,
    _beta,
    beta_draw,
    bl_poly_poly,
    channel_draw,
    discrete_rule,
    exchange_split,
    monatomic_rule,
    pair_law,
    resonant_rule,
    sq_norm,
    unit_sphere,
)
from ..equilib import Maxwellian, _log_phi_ratio
from ..model import KernelModel, MixtureSpec, PowerLawE, ResonantTensored, eval_kernel

__all__ = ["Proposal", "TransitionBatch", "make_proposal", "sample_transition"]

_TINY = 1e-300


@dataclass(frozen=True)
class Proposal:
    """The proposal of one species pair: its reference equilibrium and law.

    ``maxwellian`` draws the partner states and gives their density;
    ``law`` is the pair's :class:`~polykin.collide.PairLaw`, whose Beta
    shapes give the split variables' laws and the weight of their draws,
    and whose level tables give a disc-disc pair's channels.
    """

    maxwellian: Maxwellian
    law: PairLaw


def make_proposal(m_ref: Maxwellian, pair: tuple[int, int]) -> Proposal:
    """The proposal for ``pair`` around the reference equilibrium ``m_ref``."""
    return Proposal(m_ref, pair_law(m_ref.spec, *pair))


@dataclass
class TransitionBatch:
    """One chunk of sampled transitions for a fixed species pair.

    Internal-state arrays are continuous energies, level indices, or None
    according to the species; ``log_aq`` is log(A/q) with -inf marking
    zero-weight rows.
    """

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


def _inside(x):
    """Split draws ``x`` clipped into (0, 1); None stays None."""
    return None if x is None else np.clip(x, _TINY, 1.0 - 2**-53)


def _log_weight(weight: float) -> float:
    """log(weight), -inf where the weight integral underflows to 0."""
    return math.log(weight) if weight > 0.0 else -math.inf


def _log_b(kernel: KernelModel, pair_has_split: bool, **point):
    if isinstance(kernel, PowerLawE) and kernel.psi is not None and not pair_has_split:
        raise ValueError(
            "a psi-weighted kernel needs an energy-split variable; "
            "this species pair has none"
        )
    b = eval_kernel(kernel, **point)
    with np.errstate(divide="ignore"):
        return np.log(np.asarray(b, dtype=float))


def _exchange_pair(kernel, v, I, v_star, I_star, log_q, prop, rng, n):
    law = prop.law
    r, R = (_inside(x) for x in exchange_split(law, rng, n))
    sigma = unit_sphere(rng, n)
    if law.kind is PairKind.MONO_MONO:
        vp, vsp = monatomic_rule(v, v_star, sigma, law.m_i, law.m_j)
        E = 0.5 * law.mu * sq_norm(v - v_star)
        Ip = Isp = None
    else:
        # a monatomic slot goes in with internal energy 0 and comes out None
        vp, vsp, Ip, Isp, E = bl_poly_poly(
            v, v_star, 0.0 if I is None else I, 0.0 if I_star is None else I_star,
            law.r_fixed if r is None else r, R, sigma, law.m_i, law.m_j)
        Ip = None if I is None else Ip
        Isp = None if I_star is None else Isp
    log_b = _log_b(kernel, law.beta_r is not None, E=E, r=r, R=R)
    # r and R follow their Beta laws: A/q over (r, R, sigma) is law.weight
    log_aq = log_b - (log_q - _log_weight(law.weight))
    return vp, Ip, vsp, Isp, log_aq, {}


def _resonant_pair(kernel, v, I, v_star, I_star, log_q, prop, rng, n):
    law = prop.law
    Z = I + I_star
    I_prime = _inside(beta_draw(law.beta_r, rng, n)) * Z
    sigma = unit_sphere(rng, n)
    vp, vsp, Ip, Isp = resonant_rule(v, v_star, I, I_star, I_prime, sigma)
    V = v - v_star
    g = np.sqrt(sq_norm(V))
    vhat = V / np.maximum(g, _TINY)[..., None]
    log_b = _log_b(kernel, False, rel_speed=g, cos_theta=np.sum(sigma * vhat, -1), I=I,
                   I_star=I_star, I_prime=I_prime,
                   delta=prop.maxwellian.spec.species[0].energy.delta)
    # I' follows Z Beta(delta/2, delta/2): A/q over (I', sigma) is 4 pi B(beta_r)
    log_aq = log_b - (log_q - _log_weight(4.0 * np.pi * _beta(*law.beta_r)))
    return vp, Ip, vsp, Isp, log_aq, {}


def _discrete_pair(kernel, v, lev, v_star, lev_star, log_q, prop, rng, n):
    law = prop.law
    (Ei, gi), (Ej, gj) = law.levels_i, law.levels_j
    k_post, l_post = channel_draw(law, rng, n)
    sigma = unit_sphere(rng, n)
    delta_I = Ei[k_post] + Ej[l_post] - Ei[lev] - Ej[lev_star]
    vp, vsp, ok = discrete_rule(v, v_star, delta_I, sigma, law.m_i, law.m_j)
    V = v - v_star
    g2 = sq_norm(V)
    E = 0.5 * law.mu * g2 + Ei[lev] + Ej[lev_star]
    g_post = np.sqrt(np.maximum(g2 - 2.0 * delta_I / law.mu, 0.0))
    log_b = _log_b(kernel, False, E=E)
    with np.errstate(divide="ignore"):
        log_a = log_b + np.log(g_post) - 0.5 * np.log(np.maximum(E, _TINY))
    # (k', l') has probability g_k' g_l' / (sum g_i)(sum g_j): A/q over
    # (k', l', sigma) is 4 pi (sum g_i)(sum g_j) |V'| b / sqrt(E)
    log_aq = np.where(ok, log_a - (log_q - _log_weight(4.0 * np.pi * gi.sum() * gj.sum())),
                      -np.inf)
    return vp, k_post, vsp, l_post, log_aq, {"inadmissible": int(np.sum(~ok))}


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
    kind = prop.law.kind
    sampler = _discrete_pair if kind is PairKind.DISC_DISC else _exchange_pair
    if isinstance(kernel, ResonantTensored):
        if not (i == j and kind is PairKind.CONT_CONT and spec.n_species == 1):
            raise ValueError("resonant kernels require a single continuous species")
        sampler = _resonant_pair
    v_star, i_star, log_q = sample_state(prop, j, rng, n)
    vp, ip, vsp, isp, log_aq, diag = sampler(
        kernel, v, internal, v_star, i_star, log_q, prop, rng, n)
    log_phi = _log_phi_ratio(spec, pair, (internal, i_star), (ip, isp), n)
    return TransitionBatch(v, internal, v_star, i_star, vp, ip, vsp, isp, log_phi, log_aq, diag)


def sample_state(prop: Proposal, species: int, rng: np.random.Generator, n: int):
    """Draw first-particle states from the proposal equilibrium marginals.

    Returns (v, internal, log_q) where log_q is the per-state proposal
    density (the equilibrium density divided by the species number density).
    """
    M = prop.maxwellian
    v, internal = M.sample(rng, n, species)
    return v, internal, M._kin_log(v, species) + M._int_log(internal, species)
