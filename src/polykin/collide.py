"""Exact collision rules for all model families.

Three layers live here.  The pair-law table (:func:`pair_law`) resolves,
once per species pair, which exchange law the pair follows: its
Borgnakke-Larsen Beta shapes, the closed-form weight integral and, for two
discrete species, their level tables.  The array layer
(:func:`monatomic_rule`, :func:`bl_poly_poly`, :func:`resonant_rule`,
:func:`discrete_rule`, ...) works on numpy arrays with leading batch
dimensions and is what the Monte Carlo estimators and the relaxation
simulator call, together with the draws both share: the scattering
direction (:func:`unit_sphere`), the exchange split
(:func:`exchange_split`) and a disc-disc pair's post levels
(:func:`channel_draw`), and the inverse map and invariant bookkeeping of
batches of collisions (:func:`inverse_parameters`,
:func:`invariant_defect`).  The object layer
(:func:`collide_borgnakke_larsen` and friends) wraps single collisions in
:class:`ParticleState` / :class:`CollisionOutcome` records and validates its
inputs; it reads a pair through :func:`pair_rows`, its law and its array
rows (v, v_*, e, e_*), and :func:`internal_variable` is the one reader of a
state's internal variable, for every layer that takes a
:class:`ParticleState`.

Conventions: the pre-collision pair is (v, I) and (v_*, I_*); V = v - v_* is
the relative velocity; E is the conserved pair energy in the center-of-mass
frame, (mu/2)|V|^2 plus whatever internal energy the two particles carry.
Exchange collisions split E via the kinetic fraction R and the internal split
r; resonant collisions conserve kinetic and internal energy separately;
discrete transitions are admissible only when the relative speed can absorb
the level jump.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .model import (
    ContinuousEnergy,
    DiscreteLevels,
    MixtureSpec,
    Monatomic,
    _energy_to_obj,
    reduced_mass,
)

__all__ = [
    "PairKind",
    "PairLaw",
    "pair_law",
    "beta_draw",
    "exchange_split",
    "channel_draw",
    "ParticleState",
    "internal_variable",
    "BorgnakkeLarsenParams",
    "ResonantParams",
    "DiscreteParams",
    "CollisionOutcome",
    "InverseParams",
    "DefectReport",
    "sq_norm",
    "unit_vector",
    "unit_sphere",
    "com_energy",
    "pair_rows",
    "monatomic_rule",
    "bl_poly_poly",
    "resonant_rule",
    "discrete_rule",
    "collide_borgnakke_larsen",
    "collide_resonant",
    "collide_discrete",
    "inverse_parameters",
    "invariant_defect",
    "jacobian_bl",
]

_SIGMA_TOL = 1e-12
# relative conservation defect inverse_parameters accepts between its rows
_SHELL_TOL = 1e-10
# least Beta shape of an internal split drawn from Gamma variates: a
# Gamma(0.05) draw is subnormal with probability about 2^-51
_GAMMA_FLOOR = 0.05


def sq_norm(x: np.ndarray) -> np.ndarray:
    """Squared length of each 3-vector along the last axis.

    Bit for bit ``np.sum(x * x, axis=-1)``, which adds the three squares
    left to right from +0.0 (a square is never -0.0), at about a quarter of
    its cost on (n, 3) arrays.
    """
    return x[..., 0] * x[..., 0] + x[..., 1] * x[..., 1] + x[..., 2] * x[..., 2]


def unit_vector(sigma) -> np.ndarray:
    """Check that sigma is unit length within ``_SIGMA_TOL`` and renormalize it."""
    sigma = np.asarray(sigma, dtype=float)
    norm = np.sqrt(sq_norm(sigma))
    if np.any(np.abs(norm - 1.0) > _SIGMA_TOL):
        raise ValueError("sigma must be a unit vector (|sigma| - 1 beyond tolerance)")
    return sigma / norm[..., None]


def unit_sphere(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` directions uniform on the sphere, as one (n, 3) array.

    Marsaglia's method (Ann. Math. Statist. 43, 1972): a pair (x1, x2)
    uniform on [-1, 1]^2 with S = x1^2 + x2^2 < 1 gives the direction
    (2 x1 sqrt(1 - S), 2 x2 sqrt(1 - S), 1 - 2 S), with no trigonometric
    call.  A pair is kept with probability pi/4, so the pairs are drawn in
    blocks a third larger than the number of directions still missing: a
    block of m pairs is m uniforms x1, then m uniforms x2.  The kept pairs
    fill the rows in order, the rest of a block is dropped, and a block that
    keeps too few is followed by another.  The number of blocks depends only
    on the stream, so a seed reproduces the output bit for bit.
    """
    out = np.empty((n, 3))
    filled = 0
    while filled < n:
        need = n - filled
        x = rng.uniform(-1.0, 1.0, (2, need + need // 3 + 8))
        S = x[0] * x[0] + x[1] * x[1]
        keep = np.flatnonzero(S < 1.0)[:need]
        S = S[keep]
        t = 1.0 - S
        np.sqrt(t, out=t)
        t *= 2.0
        rows = out[filled:filled + keep.size]
        np.multiply(x[0, keep], t, out=rows[:, 0])
        np.multiply(x[1, keep], t, out=rows[:, 1])
        np.subtract(1.0, 2.0 * S, out=rows[:, 2])
        filled += keep.size
    return out


# ---------------------------------------------------------------------------
# pair-law table
# ---------------------------------------------------------------------------


class PairKind(str, Enum):
    """Which collision family couples a species pair: continuous (cont),
    monatomic (mono, with poly naming its continuous partner) or discrete
    (disc) internal structure on each side, first species first."""

    CONT_CONT = "cont-cont"
    POLY_MONO = "poly-mono"
    MONO_POLY = "mono-poly"
    MONO_MONO = "mono-mono"
    DISC_DISC = "disc-disc"


@dataclass(frozen=True)
class PairLaw:
    """Exchange law of one species pair (i, j).

    ``beta_r`` and ``beta_R`` are the Beta shapes of the internal split r and
    the kinetic fraction R (Borgnakke & Larsen, J. Comput. Phys. 18, 1975),
    None where the family has no such parameter.  ``weight`` integrates the
    transition weight over the exchange parameters and the scattering
    direction without the kernel prefactor C: 4 pi B(beta_r) B(beta_R),
    which is 16 pi/15 for two continuous species at delta = 2.
    ``r_fixed`` is the split of a pair with internal energy on one side, for
    :func:`bl_poly_poly` with 0 on the other: 1.0 (poly-mono), 0.0
    (mono-poly), None for every other family.
    ``levels_i`` and ``levels_j`` are the level tables of a disc-disc pair,
    each species' ``DiscreteLevels.table``, and None for every other family;
    they take no part in comparison.
    """

    kind: PairKind
    m_i: float
    m_j: float
    mu: float
    beta_r: tuple[float, float] | None
    beta_R: tuple[float, float] | None
    weight: float
    r_fixed: float | None = None
    levels_i: tuple | None = field(default=None, compare=False, repr=False)
    levels_j: tuple | None = field(default=None, compare=False, repr=False)

    def majorant(self, C: float, zeta: float) -> float | None:
        """An exact bound on the pair's transition rate under the
        energy-power kernel C E^(zeta/2), or None where no constant bounds it.

        Only zeta = 0 has one: for zeta > 0, E^(zeta/2) grows without bound,
        and for zeta < 0 it is unbounded near E = 0.  An exchange pair's rate
        at zeta = 0 is C * weight for every pair, and this returns that same
        double.  A disc-disc pair's rate into its drawn channel (k', l') is
        C * weight * (sum g_i)(sum g_j) * E^(-1/2) * |V'| (see
        :func:`channel_draw`), and |V'|^2 = 2 (E - E_k' - E_l') / mu <= 2 E / mu
        while every level energy is nonnegative (as ``validate`` requires), so
        the rate is at most C * weight * sqrt(2/mu) * (sum g_i)(sum g_j); a
        spectrum with a negative level gets None.  Rates reach that bound
        when every level is at 0 or the pair is hot.  The rate and the bound
        each round a fixed handful of operations, whatever the channel
        count, which a constant pad of eight ulps (2^-52 each) covers.
        """
        if zeta != 0.0:
            return None
        if self.kind is not PairKind.DISC_DISC:
            return C * self.weight
        (li, gi), (lj, gj) = self.levels_i, self.levels_j
        if min(li.min(), lj.min()) < 0.0:
            return None
        pad = 1.0 + 8 * 2.0**-52
        return float(C * self.weight * np.sqrt(2.0 / self.mu) * gi.sum() * gj.sum() * pad)


def _stirling_tail(x: float) -> float:
    """lgamma(x) - ((x - 1/2) log x - x + log(2 pi)/2), from the first
    three terms of Stirling's series; below 1e-17 absolute error for x >= 85."""
    x2 = x * x
    return (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (1260.0 * x2)) / x2) / x


def _beta(a: float, b: float) -> float:
    """Euler's Beta function B(a, b) for a, b >= 0, inf where it overflows.

    A unit shape gives 1/a or 1/b exactly.  Below a + b = 171, where no
    Gamma value overflows, it is Gamma(a) / Gamma(a + b) * Gamma(b), the
    smaller shape first, so the running value stays finite whenever B is.
    Beyond, it is exp(lgamma(a) + lgamma(b) - lgamma(a + b)) with the last
    difference taken from Stirling's series instead of two lgamma values,
    which would cancel: for b >> a, a + b even rounds to b.
    """
    a, b = min(a, b), max(a, b)
    if a == 0.0:                    # half of the least delta rounds to 0
        return math.inf
    if a == 1.0 or b == 1.0:
        return 1.0 / (a * b)
    try:
        if a + b < 171.0:
            return math.gamma(a) / math.gamma(a + b) * math.gamma(b)
        gap = (-(b - 0.5) * math.log1p(a / b) - a * math.log(a + b) + a
               + _stirling_tail(b) - _stirling_tail(a + b))
        return math.exp(math.lgamma(a) + gap)
    except OverflowError:           # Gamma(a) or B itself, for a near 0
        return math.inf


def pair_law(spec: MixtureSpec, i: int, j: int) -> PairLaw:
    """Resolve the exchange law of species pair (i, j).

    Raises ValueError for pairs no collision rule couples (a discrete species
    with a continuous or monatomic one).
    """
    ei, ej = spec.species[i].energy, spec.species[j].energy
    beta_r = beta_R = r_fixed = levels_i = levels_j = None
    if isinstance(ei, ContinuousEnergy) and isinstance(ej, ContinuousEnergy):
        kind = PairKind.CONT_CONT
        beta_r = (0.5 * ei.delta, 0.5 * ej.delta)
        beta_R = (1.5, 0.5 * (ei.delta + ej.delta))
    elif isinstance(ei, ContinuousEnergy) and isinstance(ej, Monatomic):
        kind = PairKind.POLY_MONO
        beta_R, r_fixed = (1.5, 0.5 * ei.delta), 1.0
    elif isinstance(ei, Monatomic) and isinstance(ej, ContinuousEnergy):
        kind = PairKind.MONO_POLY
        beta_R, r_fixed = (1.5, 0.5 * ej.delta), 0.0
    elif isinstance(ei, Monatomic) and isinstance(ej, Monatomic):
        kind = PairKind.MONO_MONO
    elif isinstance(ei, DiscreteLevels) and isinstance(ej, DiscreteLevels):
        kind = PairKind.DISC_DISC
        levels_i, levels_j = ei.table, ej.table
    else:
        ki, kj = (_energy_to_obj(e)["kind"] for e in (ei, ej))
        raise ValueError(f"kernels[{i}][{j}]: no collision rule couples "
                         f"species {i} ({ki}) and {j} ({kj})")
    weight = 4.0 * np.pi
    if beta_r is not None:
        weight *= _beta(*beta_r)
    if beta_R is not None:
        weight *= _beta(*beta_R)
    mi, mj = spec.species[i].mass, spec.species[j].mass
    return PairLaw(kind=kind, m_i=mi, m_j=mj, mu=reduced_mass(mi, mj),
                   beta_r=beta_r, beta_R=beta_R, weight=float(weight), r_fixed=r_fixed,
                   levels_i=levels_i, levels_j=levels_j)


# ---------------------------------------------------------------------------
# array layer
# ---------------------------------------------------------------------------


def beta_draw(shapes: tuple[float, float], rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` draws from Beta(a, b), ``shapes`` = (a, b).

    A unit shape has a closed-form inverse distribution function, so those
    laws are drawn exactly from one uniform U each: U^(1/a) for (a, 1),
    which is U itself for (1, 1), and 1 - U^(1/b) for (1, b).  numpy's
    ``beta`` draws (1, 1), the resonant split at delta = 2, by rejection at
    tens of times the cost of a uniform.  Every other pair of shapes goes
    to ``rng.beta``.  It draws the laws with one Beta parameter (R of a
    one-sided exchange pair, the resonant split) and the rows and shapes
    :func:`exchange_split` does not take from Gamma draws.
    """
    a, b = shapes
    if b == 1.0:
        return rng.random(n) ** (1.0 / a)
    if a == 1.0:
        return 1.0 - rng.random(n) ** (1.0 / b)
    return rng.beta(a, b, n)


def exchange_split(law: PairLaw, rng: np.random.Generator,
                   n: int) -> tuple[np.ndarray | None, np.ndarray | None]:
    """``n`` draws of the exchange parameters (r, R) of a pair following
    ``law``, each None where the law has no such parameter.

    For two continuous species (R, r (1 - R), (1 - r)(1 - R)) is
    Dirichlet(beta_R[0], *beta_r), so the split is three Gamma draws, in
    this order: g1 ~ Gamma(beta_r[0]), g2 ~ Gamma(beta_r[1]) and
    g3 ~ Gamma(beta_R[0] = 3/2).  Then r = g1 / (g1 + g2) is Beta(beta_r)
    and R = g3 / (g3 + g1 + g2) is Beta(beta_R), the two independent (the
    Beta-Gamma algebra), at three Gamma draws where two ``rng.beta`` calls
    take four.  Rows where g1 + g2 underflows to 0 take r from
    :func:`beta_draw` after the three batches; R is exactly 1 there, its
    limit, and as r is independent of g1 + g2 the law is unchanged.

    A Gamma(a) draw falls below the least normal double with probability
    about 2^(-1022 a), so below a = ``_GAMMA_FLOOR`` the ratio g1 / (g1 + g2)
    would put visible mass at exactly 0 or 1; a split with a shape that
    small draws r and R with :func:`beta_draw` instead, as does a law with
    R alone (poly-mono, mono-poly).
    """
    if law.beta_r is None:
        return None, None if law.beta_R is None else beta_draw(law.beta_R, rng, n)
    if min(law.beta_r) < _GAMMA_FLOOR:
        return beta_draw(law.beta_r, rng, n), beta_draw(law.beta_R, rng, n)
    g1 = rng.standard_gamma(law.beta_r[0], n)
    g2 = rng.standard_gamma(law.beta_r[1], n)
    g3 = rng.standard_gamma(law.beta_R[0], n)
    s = g1 + g2
    if s.all():
        r = np.divide(g1, s, out=g1)
    else:
        empty = s == 0.0
        r = np.divide(g1, s, out=g1, where=~empty)
        r[empty] = beta_draw(law.beta_r, rng, int(np.count_nonzero(empty)))
    s += g3
    return r, np.divide(g3, s, out=g3)


def channel_draw(law: PairLaw, rng: np.random.Generator,
                 n: int) -> tuple[np.ndarray, np.ndarray]:
    """``n`` draws of a disc-disc pair's post levels (k', l'): k' with
    probability g_k' / sum g_i, then l' with probability g_l' / sum g_j.

    A channel's weight g_k' g_l' |V'| b / sqrt(E) over this probability is
    (sum g_i)(sum g_j) |V'| b / sqrt(E): the degeneracies cancel.
    """
    return tuple(rng.choice(g.size, n, p=g / g.sum())
                 for _, g in (law.levels_i, law.levels_j))


def com_energy(mu, v, v_star, internal=0.0, internal_star=0.0):
    """Conserved pair energy (mu/2)|v - v_*|^2 + internal + internal_star."""
    v = np.asarray(v, dtype=float)
    v_star = np.asarray(v_star, dtype=float)
    V = v - v_star
    return 0.5 * np.asarray(mu) * sq_norm(V) + np.asarray(internal) + np.asarray(
        internal_star
    )


def _pair_masses(m, m_star):
    """The two masses where m + m_* is finite, else both over the larger:
    the mass fractions the pair rules form are then left finite."""
    if math.isfinite(m + m_star):
        return m, m_star
    big = max(m, m_star)
    return m / big, m_star / big


def _mass_center(v, v_star, m, m_star):
    m, m_star = _pair_masses(m, m_star)
    return (m * v + m_star * v_star) / (m + m_star)


def _post_velocities(center, gprime, sigma, m, m_star):
    """Scattered pair with relative speed gprime along sigma, momentum kept."""
    m, m_star = _pair_masses(m, m_star)
    tot = m + m_star
    gs = np.asarray(gprime)[..., None] * sigma
    return center + (m_star / tot) * gs, center - (m / tot) * gs


def monatomic_rule(v, v_star, sigma, m: float = 1.0, m_star: float | None = None):
    """Elastic scattering: relative speed preserved, direction rotated to sigma."""
    v = np.asarray(v, dtype=float)
    v_star = np.asarray(v_star, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if m_star is None:
        m_star = m
    g = np.sqrt(sq_norm(v - v_star))
    center = _mass_center(v, v_star, m, m_star)
    return _post_velocities(center, g, sigma, m, m_star)


def bl_poly_poly(v, v_star, I, I_star, r, R, sigma, m: float, m_star: float | None = None):
    """Exchange collision between two continuous-energy particles.

    Returns (v', v'_*, I', I'_*, E).  The kinetic fraction R and internal
    split r must lie in [0, 1]; E = (mu/2)|V|^2 + I + I_*; post energies are
    (mu/2)|V'|^2 = R E, I' = r(1-R)E, I'_* = (1-r)(1-R)E.
    """
    v = np.asarray(v, dtype=float)
    v_star = np.asarray(v_star, dtype=float)
    if m_star is None:
        m_star = m
    mu = reduced_mass(m, m_star)
    I = np.asarray(I, dtype=float)
    I_star = np.asarray(I_star, dtype=float)
    r = np.asarray(r, dtype=float)
    R = np.asarray(R, dtype=float)
    E = com_energy(mu, v, v_star, I, I_star)
    center = _mass_center(v, v_star, m, m_star)
    gprime = np.sqrt(2.0 * R * E / mu)
    vp, vsp = _post_velocities(center, gprime, np.asarray(sigma, dtype=float), m, m_star)
    Ip = r * (1.0 - R) * E
    Isp = (1.0 - r) * (1.0 - R) * E
    return vp, vsp, Ip, Isp, E


def resonant_rule(v, v_star, I, I_star, I_prime, sigma):
    """Resonant collision: velocities scatter elastically, internal energy
    redistributes as (I', I + I_* - I').  Equal masses only."""
    vp, vsp = monatomic_rule(v, v_star, sigma)
    I_prime = np.asarray(I_prime, dtype=float)
    Isp = np.asarray(I, dtype=float) + np.asarray(I_star, dtype=float) - I_prime
    return vp, vsp, I_prime, Isp


def discrete_rule(v, v_star, delta_I, sigma, m: float, m_star: float | None = None):
    """Level-jump collision.  Returns (v', v'_*, admissible).

    The transition absorbs delta_I (post minus pre level energies) from the
    relative motion; it is admissible iff |V|^2 >= 2*delta_I/mu.  For
    inadmissible entries the pre velocities are returned unchanged with
    admissible = False.
    """
    v = np.asarray(v, dtype=float)
    v_star = np.asarray(v_star, dtype=float)
    if m_star is None:
        m_star = m
    mu = reduced_mass(m, m_star)
    delta_I = np.asarray(delta_I, dtype=float)
    V = v - v_star
    g2_post = sq_norm(V) - 2.0 * delta_I / mu
    ok = g2_post >= 0.0
    gprime = np.sqrt(np.where(ok, g2_post, 0.0))
    center = _mass_center(v, v_star, m, m_star)
    vp, vsp = _post_velocities(center, gprime, np.asarray(sigma, dtype=float), m, m_star)
    okb = np.broadcast_to(ok[..., None], vp.shape)
    return np.where(okb, vp, v), np.where(okb, vsp, v_star), ok


def jacobian_bl(r, R):
    """Volume distortion 8/((1-r)(1-R)) of the exchange-collision map.

    Defined for r, R in [0, 1); raises at the upper boundary.
    """
    r = np.asarray(r, dtype=float)
    R = np.asarray(R, dtype=float)
    if np.any((r < 0) | (r >= 1) | (R < 0) | (R >= 1)):
        raise ValueError("jacobian_bl requires r, R in [0, 1)")
    out = 8.0 / ((1.0 - r) * (1.0 - R))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class InverseParams:
    """Reverse-collision parameters, one entry (a row of sigma) per pair.

    NaN where undefined: R where the pair energy is 0, a row of sigma where
    the relative velocity is 0, r where the internal energies sum to 0.  r
    is None where the pair's law has no internal split (``PairLaw.beta_r``).
    """

    r: np.ndarray | None
    R: np.ndarray
    sigma: np.ndarray


@dataclass(frozen=True)
class DefectReport:
    """Post-minus-pre invariant defects, one entry (a row of momentum) per pair."""

    momentum: np.ndarray
    energy: np.ndarray
    kinetic: np.ndarray
    internal: np.ndarray


def invariant_defect(law: PairLaw, pre, post) -> DefectReport:
    """Momentum and energy defects of collisions of pairs following ``law``,
    with the kinetic-internal split reported separately (the resonant family
    conserves both).  ``pre`` and ``post`` are the rows (v, v_*, e, e_*),
    e the internal energies, with any leading batch dimensions: the order
    :func:`bl_poly_poly` returns."""
    (v, vs, e, es), (w, ws, f, fs) = ([np.asarray(x, dtype=float) for x in rows]
                                      for rows in (pre, post))
    mi, mj = law.m_i, law.m_j
    kin_pre = 0.5 * mi * sq_norm(v) + 0.5 * mj * sq_norm(vs)
    kin_post = 0.5 * mi * sq_norm(w) + 0.5 * mj * sq_norm(ws)
    int_pre, int_post = e + es, f + fs
    return DefectReport(momentum=mi * w + mj * ws - (mi * v + mj * vs),
                        energy=(kin_post + int_post) - (kin_pre + int_pre),
                        kinetic=kin_post - kin_pre, internal=int_post - int_pre)


def inverse_parameters(law: PairLaw, pre, post) -> InverseParams:
    """Parameters (r', R', sigma') of the collisions taking ``post`` back to
    ``pre``, both rows (v, v_*, e, e_*) as :func:`invariant_defect` takes.

    Read off the pre rows: R' is the kinetic fraction (mu/2)|V|^2 / E, r'
    the internal split e/(e + e_*) and sigma' the relative direction V/|V|,
    each NaN where its denominator is 0.  Every pair must sit on the same
    conservation shell before and after within ``_SHELL_TOL``, relative to
    the larger of E and the first particle's momentum, else ValueError.
    """
    d = invariant_defect(law, pre, post)
    v, vs, e, es = (np.asarray(x, dtype=float) for x in pre)
    V = v - vs
    g2 = sq_norm(V)
    E = com_energy(law.mu, v, vs, e, es)
    tol = _SHELL_TOL * np.maximum(np.maximum(np.abs(E), np.abs(law.m_i * v).max(axis=-1)), 1e-300)
    if np.any((np.abs(d.energy) > tol) | (np.abs(d.momentum).max(axis=-1) > tol)):
        raise ValueError("pre and post pairs are not on the same conservation shell")
    with np.errstate(divide="ignore", invalid="ignore"):
        return InverseParams(r=None if law.beta_r is None else e / (e + es),
                             R=0.5 * law.mu * g2 / E, sigma=V / np.sqrt(g2)[..., None])


# ---------------------------------------------------------------------------
# object layer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParticleState:
    """One particle: velocity plus whatever internal state its species has.

    ``I`` is set for continuous-energy species, ``level`` for discrete ones,
    neither for monatomic species.  ``species`` indexes into the
    MixtureSpec's species tuple.
    """

    v: np.ndarray
    species: int = 0
    I: float | None = None
    level: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        if self.v.shape != (3,) or not np.isfinite(self.v).all():
            raise ValueError(f"particle velocity v must be a finite 3-vector, got {self.v}")
        if self.I is not None and not 0.0 <= self.I < math.inf:
            raise ValueError(f"internal energy I must be finite and nonnegative, got {self.I}")


def _level(k: int, n_levels: int) -> int:
    """``k`` as a level index of an ``n_levels``-level species, else
    ValueError: outside the table, or not a whole number (``int`` would
    truncate 1.7 to level 1)."""
    if not 0 <= k < n_levels:
        raise ValueError(f"level {k} lies outside [0, {n_levels})")
    if k != int(k):
        raise ValueError(f"level {k} is not an integer")
    return int(k)


def internal_variable(spec: MixtureSpec, state: ParticleState) -> float | int | None:
    """None (monatomic), ``float(I)`` (continuous) or ``int(level)``
    (discrete levels) by the species of ``state``; a state missing its
    variable, a monatomic state carrying one, or a level outside the
    species' table raises ValueError."""
    e = spec.species[state.species].energy
    if isinstance(e, Monatomic):
        if state.I is not None or state.level is not None:
            raise ValueError("monatomic states carry no internal variable")
        return None
    if isinstance(e, ContinuousEnergy):
        if state.I is None:
            raise ValueError("continuous-energy states need I")
        return float(state.I)
    if isinstance(e, DiscreteLevels):
        if state.level is None:
            raise ValueError("discrete states need a level index")
        return _level(state.level, e.n_levels)
    raise TypeError(f"unknown energy model {type(e).__name__}")


def pair_rows(spec: MixtureSpec, s1: ParticleState,
              s2: ParticleState) -> tuple[PairLaw, tuple]:
    """The law of the pair (s1, s2) and its rows (v, v_*, e, e_*), e the
    internal energy each state carries: its I, its level's energy from the
    law's table, or 0.0 for a monatomic state."""
    law = pair_law(spec, s1.species, s2.species)
    e = [0.0 if x is None else x if table is None else table[0][x]
         for x, table in ((internal_variable(spec, s1), law.levels_i),
                          (internal_variable(spec, s2), law.levels_j))]
    return law, (s1.v, s2.v, *e)


@dataclass(frozen=True, kw_only=True)
class BorgnakkeLarsenParams:
    """Exchange parameters: direction sigma, kinetic fraction R and internal
    split r, each of R and r None where the pair's law has no such parameter
    (``PairLaw.beta_R``, ``PairLaw.beta_r``): both for two polyatomic
    particles, R alone for a polyatomic-monatomic pair, neither for two
    monatomic particles."""

    sigma: np.ndarray
    R: float | None = None
    r: float | None = None

    def __post_init__(self) -> None:
        if any(x is not None and not 0.0 <= x <= 1.0 for x in (self.r, self.R)):
            raise ValueError("r and R must lie in [0, 1]")
        object.__setattr__(self, "sigma", unit_vector(self.sigma))


@dataclass(frozen=True)
class ResonantParams:
    I_prime: float
    sigma: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma", unit_vector(self.sigma))


@dataclass(frozen=True)
class DiscreteParams:
    k_prime: int
    l_prime: int
    sigma: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma", unit_vector(self.sigma))


@dataclass(frozen=True)
class CollisionOutcome:
    post: tuple[ParticleState, ParticleState]
    admissible: bool
    E: float
    jacobian: float | None = None


def collide_borgnakke_larsen(
    spec: MixtureSpec,
    s1: ParticleState,
    s2: ParticleState,
    params: BorgnakkeLarsenParams,
) -> CollisionOutcome:
    """Exchange collision of a pair with continuous or monatomic species.

    ``params`` must carry r and R exactly where the pair's law has them,
    else ValueError.  Two monatomic particles scatter elastically; every
    other pair is one :func:`bl_poly_poly` call, a polyatomic-monatomic pair
    at the law's fixed split ``r_fixed``.  The jacobian field is only filled
    for two polyatomic particles of equal mass.
    """
    if not isinstance(params, BorgnakkeLarsenParams):
        raise ValueError("exchange collisions need BorgnakkeLarsenParams")
    law, rows = pair_rows(spec, s1, s2)
    if law.kind is PairKind.DISC_DISC:
        raise ValueError("exchange collisions need continuous or monatomic species")
    shapes = (("r", params.r, law.beta_r), ("R", params.R, law.beta_R))
    if any((x is None) != (shape is None) for _, x, shape in shapes):
        takes = " and ".join(name for name, _, shape in shapes if shape is not None)
        raise ValueError(f"a {law.kind.value} pair takes {takes or 'neither r nor R'}; "
                         f"got r={params.r}, R={params.R}")

    jac = None
    if law.kind is PairKind.MONO_MONO:
        vp, vsp = monatomic_rule(*rows[:2], params.sigma, law.m_i, law.m_j)
        Ip = Isp = None
    else:
        r = law.r_fixed if params.r is None else params.r
        if params.r is not None and law.m_i == law.m_j and params.r < 1 and params.R < 1:
            jac = jacobian_bl(params.r, params.R)
        vp, vsp, Ip, Isp, _ = bl_poly_poly(*rows, r, params.R, params.sigma, law.m_i, law.m_j)
    post = (
        ParticleState(v=vp, species=s1.species, I=None if s1.I is None else float(Ip)),
        ParticleState(v=vsp, species=s2.species, I=None if s2.I is None else float(Isp)),
    )
    return CollisionOutcome(post=post, admissible=True, E=float(com_energy(law.mu, *rows)),
                            jacobian=jac)


def collide_resonant(
    spec: MixtureSpec,
    s1: ParticleState,
    s2: ParticleState,
    params: ResonantParams,
) -> CollisionOutcome:
    """Resonant collision: kinetic and internal energies conserved separately."""
    law, rows = pair_rows(spec, s1, s2)
    if s1.species != s2.species or law.kind is not PairKind.CONT_CONT:
        raise ValueError("resonant collisions need a single continuous-energy species")
    if not 0.0 <= params.I_prime <= rows[2] + rows[3]:
        raise ValueError("I_prime must lie in [0, I + I_*]")
    vp, vsp, Ip, Isp = resonant_rule(*rows, params.I_prime, params.sigma)
    post = (
        ParticleState(v=vp, species=s1.species, I=float(Ip)),
        ParticleState(v=vsp, species=s2.species, I=float(Isp)),
    )
    return CollisionOutcome(post=post, admissible=True, E=float(com_energy(law.mu, *rows)))


def collide_discrete(
    spec: MixtureSpec,
    s1: ParticleState,
    s2: ParticleState,
    params: DiscreteParams,
) -> CollisionOutcome:
    """Level transition (k, l) -> (k', l'); inadmissible jumps are flagged,
    not raised, and leave the pair unchanged.  The jump takes the law's
    level energies in the order ``relax`` does, so one (k', l', sigma)
    gives the same post pair bit for bit."""
    law, (v, v_star, e, e_star) = pair_rows(spec, s1, s2)
    if law.kind is not PairKind.DISC_DISC:
        raise ValueError("discrete collisions need discrete-level species")
    li, lj = law.levels_i[0], law.levels_j[0]
    kp, lp = _level(params.k_prime, li.size), _level(params.l_prime, lj.size)
    vp, vsp, ok = discrete_rule(v, v_star, li[kp] + lj[lp] - (e + e_star), params.sigma,
                                law.m_i, law.m_j)
    E = float(com_energy(law.mu, v, v_star, e, e_star))
    if not ok:
        return CollisionOutcome(post=(s1, s2), admissible=False, E=E)
    post = (
        ParticleState(v=vp, species=s1.species, level=kp),
        ParticleState(v=vsp, species=s2.species, level=lp),
    )
    return CollisionOutcome(post=post, admissible=True, E=E)
