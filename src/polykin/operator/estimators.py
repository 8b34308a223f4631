"""Monte Carlo estimators built on the transition samplers.

All estimators share one numerical convention: gain and loss terms are
evaluated on the same sampled transitions, in log space, and a difference
whose magnitude falls below the cancellation floor (SNAP_RTOL times the
summed magnitudes of the log terms) is treated as an exact zero.  This
makes identities that hold samplewise, detailed balance at equilibrium and
collision-invariant defects, produce estimates of exactly 0 +/- 0 instead
of rounding noise.

Every estimator samples through one path, ``_estimate``: it builds the
pair's proposal once, fills the first slot per chunk (a fixed state tiled,
or equilibrium draws with their density), samples the transitions and
accumulates the per-sample values the estimator computes from the batch.
An estimator keeps only its argument checks and those values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..collide import ParticleState, internal_variable
from ..equilib import Maxwellian
from ..model import KernelModel
from .mc import MCEstimate, QuadratureConfig, SNAP_RTOL, accumulate
from .transitions import make_proposal, sample_state, sample_transition

__all__ = [
    "DistributionFn",
    "collision_frequency",
    "entropy_production",
    "eval_k",
    "eval_q",
    "weak_moment",
]


@dataclass(frozen=True)
class DistributionFn:
    """Evaluable one-species distribution, optionally perturbed.

    The base is an equilibrium (possibly two-temperature) Maxwellian; with
    ``h`` set, the distribution is M + M^(1/2) h with h a callable of
    (velocities, internal states).  Evaluation is nonnegative; a negative
    perturbed value raises.
    """

    maxwellian: Maxwellian
    species: int = 0
    h: Callable | None = None

    def log_eval(self, v, internal):
        base = np.asarray(
            self.maxwellian.log_density(v, internal, self.species), dtype=float
        )
        if self.h is None:
            return base
        with np.errstate(over="ignore"):
            val = np.exp(base) + np.exp(0.5 * base) * np.asarray(
                self.h(v, internal), dtype=float
            )
        if np.any(val < 0.0):
            raise ValueError("distribution is negative at a sampled state")
        with np.errstate(divide="ignore"):
            return np.log(val)


def _abs_finite(x):
    return np.where(np.isfinite(x), np.abs(x), 0.0)


def _signed_difference(log_a, log_b, log_w, scale):
    """exp(log_w) * (exp(log_a) - exp(log_b)) with the cancellation floor.

    ``scale`` is the summed magnitude of the log terms entering the two
    sides; |log_a - log_b| <= SNAP_RTOL * scale snaps to exact zero.
    Returns (values, snapped_count).
    """
    fa = np.isfinite(log_a)
    fb = np.isfinite(log_b)
    both = fa & fb
    out = np.zeros(np.shape(log_w))
    with np.errstate(over="ignore", invalid="ignore"):
        delta = np.where(both, log_a - log_b, 0.0)
        keep = both & (np.abs(delta) > SNAP_RTOL * scale)
        snapped = int(np.sum(both & ~keep))
        out = np.where(keep, np.exp(log_b + log_w) * np.expm1(delta), out)
        out = np.where(fa & ~fb, np.exp(log_a + log_w), out)
        out = np.where(fb & ~fa, -np.exp(log_b + log_w), out)
        out = np.where(np.isneginf(log_w), 0.0, out)
    return out, snapped


def _gain_loss(f: DistributionFn, g: DistributionFn, batch):
    """Log gain and loss products of a transition batch, f at the first slot
    and g at the partner's, with the summed magnitude of their log terms as
    the cancellation scale.  Returns (log_a, log_b, scale)."""
    lf_pre = f.log_eval(batch.v, batch.i_pre)
    lg_star = g.log_eval(batch.v_star, batch.i_star)
    lf_post = f.log_eval(batch.v_post, batch.i_post)
    lg_post_star = g.log_eval(batch.v_post_star, batch.i_post_star)
    log_a = lf_post + lg_post_star + batch.log_phi
    log_b = lf_pre + lg_star
    scale = (
        _abs_finite(lf_post)
        + _abs_finite(lg_post_star)
        + _abs_finite(batch.log_phi)
        + _abs_finite(lf_pre)
        + _abs_finite(lg_star)
    )
    return log_a, log_b, scale


def _estimate(M: Maxwellian, pair, kernel, cfg, values, w=None, seed_seq=None):
    """Accumulate ``values(batch, log_q_w)`` over transitions of species
    ``pair`` drawn from the proposal around ``M``.

    The first slot is the fixed state ``w`` tiled over each chunk (log_q_w is
    then None) or, without ``w``, states drawn from the proposal with their
    log density log_q_w.  ``values`` returns the per-sample values and a dict
    of diagnostic counters added to the batch's.  ``seed_seq`` overrides the
    seed stream of ``cfg``.
    """
    spec = M.spec
    kern = kernel if kernel is not None else spec.kernel(*pair)
    prop = make_proposal(M, pair)
    if w is not None:
        v0, i0 = w.v, internal_variable(spec, w)

    def sampler(rng, n):
        if w is None:
            v, internal, log_q_w = sample_state(prop, pair[0], rng, n)
        else:
            # n copies of the state; a level index tiles as integers
            v, log_q_w = np.broadcast_to(v0, (n, 3)), None
            internal = None if i0 is None else np.full(n, i0)
        batch = sample_transition(spec, pair, kern, v, internal, prop, rng, n)
        vals, extra = values(batch, log_q_w)
        return vals, {**batch.diagnostics, **extra}

    return accumulate(sampler, cfg, seed_seq)


def eval_q(
    f: DistributionFn,
    g: DistributionFn,
    w: ParticleState,
    cfg: QuadratureConfig,
    kernel: KernelModel | None = None,
) -> MCEstimate:
    """Estimate the collision operator Q(f, g) at state ``w``.

    Importance-samples the transition integral of the gain minus loss
    bracket; inadmissible transitions contribute zero.  At equilibrium
    (f = g = the base Maxwellian) every sample cancels exactly and the
    result is 0 +/- 0.
    """
    if f.maxwellian.spec is not g.maxwellian.spec and f.maxwellian.spec != g.maxwellian.spec:
        raise ValueError("f and g must share one mixture description")
    if w.species != f.species:
        raise ValueError("w must belong to f's species")

    def values(batch, _):
        log_a, log_b, scale = _gain_loss(f, g, batch)
        vals, snapped = _signed_difference(log_a, log_b, batch.log_aq, scale)
        return vals, {"snapped": snapped}

    return _estimate(g.maxwellian, (f.species, g.species), kernel, cfg, values, w)


def collision_frequency(
    w: ParticleState,
    M: Maxwellian,
    kernel: KernelModel | None = None,
    cfg: QuadratureConfig | None = None,
) -> MCEstimate:
    """Estimate the loss-term rate at ``w`` against equilibrium partners.

    For a mixture the estimate sums over partner species, each with its own
    sample budget and seed stream.
    """
    if cfg is None:
        raise ValueError("a QuadratureConfig is required")
    n_species = M.spec.n_species
    parent = np.random.SeedSequence(cfg.seed)
    streams = [parent] if n_species == 1 else parent.spawn(n_species)

    total, count, stderrs = 0.0, 0, []
    diagnostics: dict = {}
    for j in range(n_species):

        def values(batch, _, j=j):
            log_m = np.asarray(M.log_density(batch.v_star, batch.i_star, j), dtype=float)
            with np.errstate(over="ignore"):
                return np.exp(log_m + batch.log_aq), {}

        est = _estimate(M, (w.species, j), kernel, cfg, values, w, streams[j])
        total += est.value
        stderrs.append(est.stderr)
        count += est.n_samples
        for key, val in est.diagnostics.items():
            diagnostics[key] = diagnostics.get(key, 0) + val
    # the squares summed in partner order, or hypot where a square overflows
    var = 0.0
    try:
        for err in stderrs:
            var += err**2
    except OverflowError:
        var = math.inf
    stderr = float(np.sqrt(var)) if math.isfinite(var) else math.hypot(*stderrs)
    return MCEstimate(total, stderr, count, cfg.seed, diagnostics)


def eval_k(
    h: Callable,
    w: ParticleState,
    part: int,
    M: Maxwellian,
    kernel: KernelModel | None = None,
    cfg: QuadratureConfig | None = None,
) -> MCEstimate:
    """Estimate one of the three integral contributions of the compact part.

    ``part`` selects which collision partner the test function ``h`` is
    evaluated at: 1 the pre-collisional partner (with a minus sign), 2 the
    post-collisional partner, 3 the post-collisional state itself.  The
    total over parts applied to M^(1/2) times a collision invariant equals
    the collision frequency times h(w).
    """
    if part not in (1, 2, 3):
        raise ValueError("part must be 1, 2, or 3")
    if cfg is None:
        raise ValueError("a QuadratureConfig is required")
    if M.spec.n_species != 1:
        raise ValueError("the linearized-part estimator covers single species")
    log_m_w = float(np.asarray(M.log_density(w.v, internal_variable(M.spec, w), 0), dtype=float))

    def values(batch, _):
        log_m_star = np.asarray(M.log_density(batch.v_star, batch.i_star, 0), float)
        if part == 1:
            expo = 0.5 * log_m_w + 0.5 * log_m_star + batch.log_aq
            hval = -np.asarray(h(batch.v_star, batch.i_star), dtype=float)
        else:
            post = ((batch.v_post_star, batch.i_post_star) if part == 2
                    else (batch.v_post, batch.i_post))
            log_m_post = np.asarray(M.log_density(*post, 0), float)
            expo = 0.5 * log_m_w + log_m_star - 0.5 * log_m_post + batch.log_aq
            hval = np.asarray(h(*post), dtype=float)
        dead = np.isneginf(batch.log_aq) | np.isnan(expo)
        clipped = int(np.sum(expo > 700.0))
        with np.errstate(over="ignore"):
            vals = np.where(dead, 0.0, hval * np.exp(np.minimum(expo, 700.0)))
        return vals, {"clipped": clipped}

    return _estimate(M, (0, 0), kernel, cfg, values, w)


def weak_moment(
    f: DistributionFn,
    psi: Callable,
    cfg: QuadratureConfig,
    kernel: KernelModel | None = None,
) -> MCEstimate:
    """Estimate the moment of Q(f, f) against a test function.

    Uses the symmetrized form: one quarter of the gain-loss bracket times
    the defect psi + psi_* - psi' - psi'_*, with both pre states sampled.
    For collision invariants the defect is snapped to zero samplewise, so
    the estimate is exactly 0 +/- 0.
    """
    if f.maxwellian.spec.n_species != 1:
        raise ValueError("weak-form estimators cover single-species models")

    def values(batch, log_q_w):
        p_pre = np.asarray(psi(batch.v, batch.i_pre), dtype=float)
        p_star = np.asarray(psi(batch.v_star, batch.i_star), dtype=float)
        p_post = np.asarray(psi(batch.v_post, batch.i_post), dtype=float)
        p_post_star = np.asarray(psi(batch.v_post_star, batch.i_post_star), float)
        defect = p_pre + p_star - p_post - p_post_star
        psi_scale = np.abs(p_pre) + np.abs(p_star) + np.abs(p_post) + np.abs(p_post_star)
        zero = np.abs(defect) <= SNAP_RTOL * psi_scale
        defect = np.where(zero, 0.0, defect)

        log_a, log_b, scale = _gain_loss(f, f, batch)
        diff, snapped = _signed_difference(
            log_a, log_b, batch.log_aq - log_q_w, scale
        )
        vals = np.where(defect == 0.0, 0.0, 0.25 * defect * diff)
        return vals, {"snapped": snapped, "defect_zero": int(np.sum(zero))}

    return _estimate(f.maxwellian, (0, 0), kernel, cfg, values)


def entropy_production(
    f: DistributionFn,
    cfg: QuadratureConfig,
    kernel: KernelModel | None = None,
) -> MCEstimate:
    """Estimate the entropy production of f; samplewise nonnegative.

    The integrand is one quarter of (a - b) log(a/b) with a the gain
    product and b the loss product; it vanishes exactly at equilibrium.
    Raises if f is not strictly positive on the sampled states.
    """
    if f.maxwellian.spec.n_species != 1:
        raise ValueError("weak-form estimators cover single-species models")

    def values(batch, log_q_w):
        log_a, log_b, scale = _gain_loss(f, f, batch)
        live = ~np.isneginf(batch.log_aq)
        if np.any(~np.isfinite(log_a[live])) or np.any(~np.isfinite(log_b[live])):
            raise ValueError(
                "entropy production requires a strictly positive distribution "
                "on the sampled states"
            )
        delta = np.where(live, log_a - log_b, 0.0)
        keep = live & (np.abs(delta) > SNAP_RTOL * scale)
        with np.errstate(over="ignore"):
            vals = np.where(
                keep,
                0.25
                * np.exp(log_b + batch.log_aq - log_q_w)
                * np.expm1(delta)
                * delta,
                0.0,
            )
        return vals, {"snapped": int(np.sum(live & ~keep)),
                      "negative_terms": int(np.sum(vals < 0.0))}

    return _estimate(f.maxwellian, (0, 0), kernel, cfg, values)
