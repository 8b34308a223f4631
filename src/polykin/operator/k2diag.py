"""Integrability diagnostic for the reduced exchange-kernel norm.

The squared norm of the exchange contribution reduces, after closed-form
integration of the state variables, to a weighted integral over the unit
square of energy-split parameters:

    G(r, R) = Psi(r, R)^2 (1-r)^(d-3-z) r^(d/2-2) R (1-R)^(3d/2-3-z)

with d the internal-energy dimension and z the kernel energy exponent.
The diagnostic computes partial integrals over nested squares
(eps, 1-eps)^2 and pairs the numeric Cauchy test with the analytic
corner-exponent test (every edge exponent > -1); the verdict requires
both tests, and a disagreement raises an inconsistency flag.  The set of
corner exponents includes the mirrored (r <-> 1-r) assignment, which is
the form taken by the companion contribution where the roles of the two
post-collisional internal energies swap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

__all__ = ["K2Diagnostic", "k2_integrability_diagnostic"]

# nested squares (eps, 1-eps)^2, shrinking; the Cauchy test compares the
# last two partial integrals
_EPSILONS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
_CAUCHY_TOL = 0.01
_GL_POINTS = 16
_PANELS_PER_DECADE = 6


@dataclass(frozen=True)
class K2Diagnostic:
    delta: float
    zeta: float
    epsilons: tuple[float, ...]
    partials: tuple[float, ...]
    cauchy_change: float
    corner_exponents: dict[str, float]
    numeric_integrable: bool
    analytic_integrable: bool
    verdict: str
    inconsistent: bool

    def rows(self) -> list[tuple[float, float]]:
        """(epsilon, partial_integral) pairs for tabular output."""
        return list(zip(self.epsilons, self.partials))


def _check_symmetry(psi: Callable) -> None:
    r = np.array([0.11, 0.29, 0.5, 0.83])
    R = np.array([0.21, 0.47, 0.64, 0.9])
    a = np.asarray(psi(r, R), dtype=float)
    b = np.asarray(psi(1.0 - r, R), dtype=float)
    if not np.allclose(a, b, rtol=1e-9, atol=1e-12):
        raise ValueError("psi must be symmetric under r <-> 1-r")


@cache
def _edge_nodes(eps: float):
    """Gauss-Legendre nodes on (eps, 1-eps), panels geometric near both ends.

    Built on first use for each epsilon and shared (read-only) afterwards.
    """
    n_panels = max(2, int(np.ceil(_PANELS_PER_DECADE * np.log10(0.5 / eps))))
    edges = eps * (0.5 / eps) ** np.linspace(0.0, 1.0, n_panels + 1)
    x, w = np.polynomial.legendre.leggauss(_GL_POINTS)
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    left = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wl = (half[:, None] * w[None, :]).ravel()
    nodes = np.concatenate([left, 1.0 - left])
    weights = np.concatenate([wl, wl])
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _edge_exponents(delta_i: float, delta_j: float, zeta: float,
                    shift: float = 0.0) -> dict[str, float]:
    """The power of each edge factor of the two reduced split integrands of
    the species pair (i, j), without psi: r^(d_i/2-2), (1-r)^(d_j-3-z), the
    plain R and (1-R)^(d_i/2+d_j-3-z), then the companion's r and 1-r powers
    (d_i+d_j)/2-3-z and d_j/2-2, the mirror of the first pair at d_i = d_j.
    ``shift`` raises each constant before the arithmetic: the mixture
    hypothesis H7 takes its margins (exponent + 1) with shift 1."""
    return {
        "r -> 0": 0.5 * delta_i + (shift - 2.0),
        "r -> 1": delta_j + (shift - 3.0) - zeta,
        "R -> 0": 1.0 + shift,
        "R -> 1": 0.5 * delta_i + delta_j + (shift - 3.0) - zeta,
        "r -> 0 (mirror)": 0.5 * (delta_i + delta_j) + (shift - 3.0) - zeta,
        "r -> 1 (mirror)": 0.5 * delta_j + (shift - 2.0),
    }


def _integrand(e: dict[str, float], psi: Callable | None):
    er0, er1, eR1 = e["r -> 0"], e["r -> 1"], e["R -> 1"]

    def g(r, R):
        base = (1.0 - r) ** er1 * r**er0 * R * (1.0 - R) ** eR1
        if psi is not None:
            base = base * np.asarray(psi(r, R), dtype=float) ** 2
        return base

    return g


def _log_integrand(e: dict[str, float], psi: Callable | None):
    """log g, finite wherever psi is nonzero, however large zeta is."""
    er0, er1, eR1 = e["r -> 0"], e["r -> 1"], e["R -> 1"]

    def log_g(r, R):
        base = er1 * np.log(1.0 - r) + er0 * np.log(r) + np.log(R) + eR1 * np.log(1.0 - R)
        if psi is not None:
            base = base + 2.0 * np.log(np.abs(np.asarray(psi(r, R), dtype=float)))
        return base

    return log_g


def _log_partial(log_g, eps: float) -> float:
    """log of the partial integral over (eps, 1-eps)^2, a log-sum-exp of log g."""
    x, w = _edge_nodes(eps)
    terms = log_g(x[:, None], x[None, :]) + np.log(w)[:, None] + np.log(w)
    top = float(np.max(terms))
    return top + math.log(float(np.sum(np.exp(terms - top)))) if math.isfinite(top) else top


def _partial_integral(g, log_g, eps: float) -> float:
    # the same nodes serve both axes; a sum that is not finite is redone from
    # log g, and reads inf only where the integral exceeds the largest double
    x, w = _edge_nodes(eps)
    vals = g(x[:, None], x[None, :])
    value = float(w @ vals @ w)
    return value if math.isfinite(value) else float(np.exp(_log_partial(log_g, eps)))


def _edge_slope(g, log_g, edge: str) -> float:
    """Power-law order of the integrand along one edge of the exponent
    table, fitted numerically.  For symmetric psi the companion integrand is
    g with r <-> 1-r, so a mirror edge is read at the opposite end in r."""
    t = 10.0 ** np.arange(-4.0, -7.5, -1.0)
    mid = np.full_like(t, 0.5)
    at_one = edge.startswith(("r -> 1", "R -> 1")) != edge.endswith("(mirror)")
    x = 1.0 - t if at_one else t
    args = (x, mid) if edge.startswith("r") else (mid, x)
    vals = g(*args)
    logs = np.log(np.maximum(vals, 1e-300)) if np.all(np.isfinite(vals)) else log_g(*args)
    return float(np.polyfit(np.log(t), logs, 1)[0])


def k2_integrability_diagnostic(
    delta: float,
    zeta: float,
    psi: Callable | None = None,
) -> K2Diagnostic:
    """Decide integrability of the reduced kernel-norm integrand.

    Partial integrals are computed over (eps, 1-eps)^2 for each epsilon;
    the verdict is "integrable" only when the last two partials agree
    within ``_CAUCHY_TOL`` relative AND all corner exponents exceed -1.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if zeta <= -1:
        raise ValueError("zeta must exceed -1")
    if psi is not None:
        _check_symmetry(psi)

    exps = _edge_exponents(delta, delta, zeta)
    g, log_g = _integrand(exps, psi), _log_integrand(exps, psi)
    # a factor of g overflows at large zeta; those sums are redone from log g
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        partials = tuple(_partial_integral(g, log_g, eps) for eps in _EPSILONS)
        prev, last = partials[-2:]
        if not (math.isfinite(prev) and math.isfinite(last)):
            # the last two partials over the larger one, from their logs
            logs = [_log_partial(log_g, eps) for eps in _EPSILONS[-2:]]
            prev, last = (math.exp(L - max(logs)) for L in logs)
        if psi is not None:
            exps = {edge: _edge_slope(g, log_g, edge) for edge in exps}
    cauchy_change = abs(last - prev) / max(abs(last), 1e-300)
    numeric = cauchy_change < _CAUCHY_TOL
    analytic = all(e > -1.0 for e in exps.values())

    verdict = "integrable" if (numeric and analytic) else "divergent"
    return K2Diagnostic(
        delta=float(delta),
        zeta=float(zeta),
        epsilons=_EPSILONS,
        partials=partials,
        cauchy_change=float(cauchy_change),
        corner_exponents=exps,
        numeric_integrable=numeric,
        analytic_integrable=analytic,
        verdict=verdict,
        inconsistent=numeric != analytic,
    )
