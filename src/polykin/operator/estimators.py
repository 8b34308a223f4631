"""Monte Carlo estimators built on the transition samplers.

All estimators share one numerical convention: gain and loss terms are
evaluated on the same sampled transitions, in log space, and a difference
whose magnitude falls below the cancellation floor (SNAP_RTOL times the
summed magnitudes of the log terms) is treated as an exact zero.  This
makes identities that hold samplewise, detailed balance at equilibrium and
collision-invariant defects, produce estimates of exactly 0 +/- 0 instead
of rounding noise.
"""

from __future__ import annotations

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


def _tile(v, internal, n):
    """``n`` copies of a fixed state; a level index tiles as integers."""
    return np.broadcast_to(v, (n, 3)), None if internal is None else np.full(n, internal)


def _check_specs(f: DistributionFn, g: DistributionFn):
    if f.maxwellian.spec is not g.maxwellian.spec and f.maxwellian.spec != g.maxwellian.spec:
        raise ValueError("f and g must share one mixture description")


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
    _check_specs(f, g)
    spec = f.maxwellian.spec
    if w.species != f.species:
        raise ValueError("w must belong to f's species")
    pair = (f.species, g.species)
    kern = kernel if kernel is not None else spec.kernel(*pair)
    prop = make_proposal(g.maxwellian, pair)
    v0, i0 = w.v, internal_variable(spec, w)

    def sampler(rng, n):
        v, internal = _tile(v0, i0, n)
        batch = sample_transition(spec, pair, kern, v, internal, prop, rng, n)
        log_a, log_b, scale = _gain_loss(f, g, batch)
        vals, snapped = _signed_difference(log_a, log_b, batch.log_aq, scale)
        diag = dict(batch.diagnostics)
        diag["snapped"] = snapped
        return vals, diag

    return accumulate(sampler, cfg)


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
    spec = M.spec
    i = w.species
    v0, i0 = w.v, internal_variable(spec, w)
    parent = np.random.SeedSequence(cfg.seed)
    streams = [parent] if spec.n_species == 1 else parent.spawn(spec.n_species)

    total, var, count = 0.0, 0.0, 0
    diagnostics: dict = {}
    for j in range(spec.n_species):
        kern = kernel if kernel is not None else spec.kernel(i, j)
        prop = make_proposal(M, (i, j))

        def sampler(rng, n, j=j, kern=kern, prop=prop):
            v, internal = _tile(v0, i0, n)
            batch = sample_transition(spec, (i, j), kern, v, internal, prop, rng, n)
            log_m = np.asarray(
                M.log_density(batch.v_star, batch.i_star, j), dtype=float
            )
            with np.errstate(over="ignore"):
                vals = np.exp(log_m + batch.log_aq)
            return vals, dict(batch.diagnostics)

        est = accumulate(sampler, cfg, seed_seq=streams[j])
        total += est.value
        var += est.stderr**2
        count += est.n_samples
        for key, val in est.diagnostics.items():
            diagnostics[key] = diagnostics.get(key, 0) + val
    return MCEstimate(total, float(np.sqrt(var)), count, cfg.seed, diagnostics)


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
    spec = M.spec
    if spec.n_species != 1:
        raise ValueError("the linearized-part estimator covers single species")
    kern = kernel if kernel is not None else spec.kernel(0, 0)
    prop = make_proposal(M, (0, 0))
    v0, i0 = w.v, internal_variable(spec, w)
    log_m_w = float(np.asarray(M.log_density(v0, i0, 0), dtype=float))

    def sampler(rng, n):
        v, internal = _tile(v0, i0, n)
        batch = sample_transition(spec, (0, 0), kern, v, internal, prop, rng, n)
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
        diag = dict(batch.diagnostics)
        diag["clipped"] = clipped
        return vals, diag

    return accumulate(sampler, cfg)


def _joint_sampler_parts(f: DistributionFn, kernel):
    spec = f.maxwellian.spec
    if spec.n_species != 1:
        raise ValueError("weak-form estimators cover single-species models")
    kern = kernel if kernel is not None else spec.kernel(0, 0)
    prop = make_proposal(f.maxwellian, (0, 0))
    return spec, kern, prop


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
    spec, kern, prop = _joint_sampler_parts(f, kernel)

    def sampler(rng, n):
        v, i_w, log_q_w = sample_state(prop, 0, rng, n)
        batch = sample_transition(spec, (0, 0), kern, v, i_w, prop, rng, n)
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
        diag = dict(batch.diagnostics)
        diag["snapped"] = snapped
        diag["defect_zero"] = int(np.sum(zero))
        return vals, diag

    return accumulate(sampler, cfg)


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
    spec, kern, prop = _joint_sampler_parts(f, kernel)

    def sampler(rng, n):
        v, i_w, log_q_w = sample_state(prop, 0, rng, n)
        batch = sample_transition(spec, (0, 0), kern, v, i_w, prop, rng, n)
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
        diag = dict(batch.diagnostics)
        diag["snapped"] = int(np.sum(live & ~keep))
        diag["negative_terms"] = int(np.sum(vals < 0.0))
        return vals, diag

    return accumulate(sampler, cfg)
