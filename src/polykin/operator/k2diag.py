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

G is written once, in log space, from the edge-exponent table: each
partial is a log-sum-exp of log G on Gauss-Legendre nodes, so it stays
finite however large z is until its log passes the largest double.
Without Psi, G is a power of r times a power of R and the double sum
factorizes into two one-dimensional ones.  With Psi, each corner exponent
is the table's plus the order of Psi^2 along that edge, fitted
numerically.
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
_LOG_MAX = math.log(np.finfo(float).max)


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


def _abs_psi(psi: Callable, r: np.ndarray, R: np.ndarray) -> np.ndarray:
    """|psi(r, R)| broadcast to the shape of the (r, R) grid."""
    shape = np.broadcast_shapes(r.shape, R.shape)
    return np.abs(np.broadcast_to(np.asarray(psi(r, R), dtype=float), shape))


def _lse(terms: np.ndarray) -> float:
    top = float(np.max(terms, initial=-np.inf))
    return top + math.log(float(np.sum(np.exp(terms - top)))) if math.isfinite(top) else top


def _log_partial(exps: dict[str, float], psi: Callable | None, eps: float) -> float:
    """log of the partial integral over (eps, 1-eps)^2, a log-sum-exp of
    log g on the edge nodes.  A log past the largest double reads inf."""
    x, w = _edge_nodes(eps)
    with np.errstate(over="ignore"):
        a = exps["r -> 0"] * np.log(x) + exps["r -> 1"] * np.log1p(-x) + np.log(w)
        b = np.log(x) + exps["R -> 1"] * np.log1p(-x) + np.log(w)
        if psi is None:
            # g is a power of r times a power of R: the double sum factorizes
            return _lse(a) + _lse(b)
        p = _abs_psi(psi, x[:, None], x[None, :])
        kept = p != 0.0  # g vanishes where psi does
        return _lse((a[:, None] + b)[kept] + 2.0 * np.log(p[kept]))


def _psi_order(psi: Callable, edge: str) -> float:
    """Power-law order of psi^2 along one edge of the exponent table, fitted
    numerically; inf where psi vanishes at every fit point.  For symmetric
    psi the companion integrand is g with r <-> 1-r, so a mirror edge is
    read at the opposite end in r."""
    t = 10.0 ** np.arange(-4.0, -7.5, -1.0)
    mid = np.full_like(t, 0.5)
    at_one = edge.startswith(("r -> 1", "R -> 1")) != edge.endswith("(mirror)")
    x = 1.0 - t if at_one else t
    p = _abs_psi(psi, *((x, mid) if edge.startswith("r") else (mid, x)))
    if not np.any(p):
        return math.inf
    return float(np.polyfit(np.log(t), 2.0 * np.log(p), 1)[0])


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
    for name, value in (("delta", delta), ("zeta", zeta)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")
    if psi is not None:
        _check_symmetry(psi)

    exps = _edge_exponents(delta, delta, zeta)
    logs = [_log_partial(exps, psi, eps) for eps in _EPSILONS]
    partials = tuple(math.inf if L > _LOG_MAX else math.exp(L) for L in logs)
    prev, last = logs[-2:]
    # |prev/last - 1| from the logs (min keeps a NaN): NaN where both logs
    # overflow, 0 where g vanishes on every node
    cauchy_change = 0.0 if last == -math.inf else abs(math.expm1(min(prev - last, _LOG_MAX)))
    if psi is not None:
        exps = {edge: e + _psi_order(psi, edge) for edge, e in exps.items()}
    numeric = cauchy_change < _CAUCHY_TOL
    analytic = all(e > -1.0 for e in exps.values())

    verdict = "integrable" if (numeric and analytic) else "divergent"
    return K2Diagnostic(
        delta=float(delta),
        zeta=float(zeta),
        epsilons=_EPSILONS,
        partials=partials,
        cauchy_change=cauchy_change,
        corner_exponents=exps,
        numeric_integrable=numeric,
        analytic_integrable=analytic,
        verdict=verdict,
        inconsistent=numeric != analytic,
    )
