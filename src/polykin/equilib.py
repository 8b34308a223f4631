"""Equilibrium distributions and detailed-balance machinery.

The product form

    M(v, I) = n * (m / (2 pi T_kin))^(3/2) exp(-m|v-u|^2 / (2 T_kin)) * g(I; T_int)

covers every family: g is the normalized continuous internal-energy law
I^(delta/2-1) exp(-I/T_int) / (Gamma(delta/2) T_int^(delta/2)),
the Gibbs law over discrete levels, or 1 for monatomic species.  With
T_kin = T_int this is the single-temperature equilibrium of the exchange and
discrete families; with distinct temperatures it is the resonant-family
equilibrium (and doubles as a handy non-equilibrium state for the other
families).

Detailed balance is checked in log space: the relative residual
(M'M'_* Phi - M M_*) / (M M_*) is evaluated as expm1(log-gain - log-loss),
which keeps the relative error near machine precision even deep in the tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .collide import ParticleState, _beta, internal_variable, sq_norm
from .model import ContinuousEnergy, DiscreteLevels, EnergyModel, MixtureSpec, Monatomic

__all__ = [
    "EquilibriumParams",
    "Maxwellian",
    "MomentSummary",
    "maxwellian_eval",
    "partition_function",
    "psi_res",
    "detailed_balance_residual",
    "equilibrium_moments",
    "mean_internal_energy",
    "internal_temperature",
    "level_weights",
]


@dataclass(frozen=True)
class EquilibriumParams:
    """Densities per species, shared drift velocity, and temperature(s).

    ``T_kin`` and ``T_int`` coincide for a true single-temperature
    equilibrium; they may differ, which is the resonant-family equilibrium
    (velocities and internal energies then equilibrate separately).
    """

    n: tuple[float, ...]
    u: np.ndarray
    T_kin: float
    T_int: float

    def __post_init__(self) -> None:
        n = self.n if isinstance(self.n, tuple) else tuple(np.atleast_1d(self.n))
        object.__setattr__(self, "n", tuple(float(x) for x in n))
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))
        if self.u.shape != (3,):
            raise ValueError("drift velocity must be a 3-vector")
        if not np.all(np.isfinite(self.u)):
            raise ValueError("drift velocity must be finite")
        if not all(0 <= x < math.inf for x in self.n):
            raise ValueError("densities must be finite and nonnegative")
        if not (0 < self.T_kin < math.inf and 0 < self.T_int < math.inf):
            raise ValueError("temperatures must be finite and positive")

    @classmethod
    def single(cls, n, u, T: float) -> "EquilibriumParams":
        return cls(n=n, u=u, T_kin=T, T_int=T)

    @property
    def T(self) -> float:
        if self.T_kin != self.T_int:
            raise ValueError("two-temperature state has no single T")
        return self.T_kin


def partition_function(energy: EnergyModel, T: float) -> float:
    """Internal-energy partition function at temperature T.

    Continuous: Gamma(delta/2) T^(delta/2), inf where a factor overflows;
    discrete: the weighted Gibbs sum; monatomic: 1.
    """
    if isinstance(energy, Monatomic):
        return 1.0
    if isinstance(energy, ContinuousEnergy):
        a = 0.5 * energy.delta
        try:
            return float(math.gamma(a) * T**a)
        except OverflowError:
            return math.inf
    if isinstance(energy, DiscreteLevels):
        E, g = energy.table
        return float(np.sum(g * np.exp(-E / T)))
    raise TypeError(f"unknown energy model {type(energy).__name__}")


def level_weights(energy: DiscreteLevels, T: float):
    """Unnormalised Gibbs weights g exp(-(E - E_min)/T) of a discrete spectrum.

    Taken relative to the lowest level, so the ground weight is g_0 however
    cold T is and the weights never all underflow.
    """
    E, g = energy.table
    return g * np.exp(-(E - E.min()) / T)


def _log_phi(energy: EnergyModel, internal):
    """log of a species' internal-energy weight phi: (delta/2 - 1) log I,
    I clamped at 1e-300 and 0 log 0 = 0, for a continuous species; log g_k
    at level k of a discrete one; 0 for a monatomic one."""
    if isinstance(energy, Monatomic):
        return 0.0
    if isinstance(energy, ContinuousEnergy):
        p = 0.5 * energy.delta - 1.0
        if p == 0.0:
            return np.zeros(np.shape(internal))
        return p * np.log(np.maximum(internal, 1e-300))
    if isinstance(energy, DiscreteLevels):
        return np.log(energy.table[1][np.asarray(internal)])
    raise TypeError(f"unknown energy model {type(energy).__name__}")


def _log_phi_ratio(spec: MixtureSpec, pair: tuple[int, int], pre, post, shape):
    """log Phi = log phi(I) - log phi(I') + log phi(I_*) - log phi(I'_*),
    added left to right to ``np.zeros(shape)``, of transitions of species
    ``pair`` between (first, second) internal states ``pre`` and ``post``."""
    ei, ej = (spec.species[s].energy for s in pair)
    return (np.zeros(shape) + _log_phi(ei, pre[0]) - _log_phi(ei, post[0])
            + _log_phi(ej, pre[1]) - _log_phi(ej, post[1]))


def psi_res(Z, delta: float):
    """Self-convolution of the internal-energy weight at total energy Z.

    Equals Z^(delta-1) * B(delta/2, delta/2), with B = Gamma(delta/2)^2 /
    Gamma(delta) from ``collide._beta``, which stays finite where the Gamma
    values overflow; vectorized in Z.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    Z = np.asarray(Z, dtype=float)
    if np.any(Z < 0):
        raise ValueError("total internal energy must be nonnegative")
    out = _beta(0.5 * delta, 0.5 * delta) * Z ** (delta - 1.0)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class Maxwellian:
    """Evaluable equilibrium distribution over a whole mixture.

    ``density`` and ``log_density`` broadcast over batched inputs;
    ``sample`` draws particle states for one species.  The internal argument
    is a continuous energy, a level index, or None depending on the species.
    """

    spec: MixtureSpec
    params: EquilibriumParams

    def __post_init__(self) -> None:
        if len(self.params.n) != self.spec.n_species:
            raise ValueError("need one density per species")

    def _kin_log(self, v, species: int):
        m = self.spec.species[species].mass
        T = self.params.T_kin
        dv = np.asarray(v, dtype=float) - self.params.u
        return 1.5 * np.log(m / (2.0 * np.pi * T)) - 0.5 * m * sq_norm(dv) / T

    def _int_log(self, internal, species: int):
        e = self.spec.species[species].energy
        T = self.params.T_int
        if isinstance(e, Monatomic):
            if internal is not None:
                raise ValueError("monatomic species carries no internal state")
            return 0.0
        if isinstance(e, ContinuousEnergy):
            I = np.asarray(internal, dtype=float)
            a = 0.5 * e.delta
            if a < 1.0 and np.any(I == 0.0):
                raise ValueError("I = 0 requires delta >= 2")
            return _log_phi(e, I) - I / T - math.lgamma(a) - a * np.log(T)
        if isinstance(e, DiscreteLevels):
            k = np.asarray(internal)
            E = e.table[0]
            q = np.sum(level_weights(e, T))
            return _log_phi(e, k) - (E[k] - E.min()) / T - np.log(q)
        raise TypeError(f"unknown energy model {type(e).__name__}")

    def log_density(self, v, internal=None, species: int = 0):
        n = self.params.n[species]
        # at zero density: -inf after the same checks, in the same shape
        log_n = np.log(n) if n > 0.0 else -np.inf
        return log_n + self._kin_log(v, species) + self._int_log(internal, species)

    def density(self, v, internal=None, species: int = 0):
        out = np.exp(self.log_density(v, internal, species))
        return out if np.ndim(out) else float(out)

    def sample(self, rng: np.random.Generator, n: int, species: int = 0):
        """Draw n states: returns (velocities, internal) where internal is an
        energy array, a level-index array, or None.

        The draws are unit-scale variates times the scale, which is how
        numpy forms ``normal(0, scale)`` and ``gamma(a, scale)``, so the
        states are theirs bit for bit, scaled in place instead of through
        numpy's per-call broadcasting.
        """
        sp = self.spec.species[species]
        v = rng.standard_normal((n, 3))
        v *= math.sqrt(self.params.T_kin / sp.mass)
        v += self.params.u
        e = sp.energy
        if isinstance(e, Monatomic):
            return v, None
        T = self.params.T_int
        if isinstance(e, ContinuousEnergy):
            I = rng.standard_gamma(0.5 * e.delta, n)
            I *= T
            if e.delta < 2.0:
                # a draw below the smallest positive double underflows to 0,
                # where the density of I is infinite for delta < 2; it is
                # kept at that double instead
                I = np.maximum(I, np.finfo(float).smallest_subnormal)
            return v, I
        weights = level_weights(e, T)
        weights = weights / weights.sum()
        return v, rng.choice(len(weights), size=n, p=weights)


def maxwellian_eval(M: Maxwellian, state: ParticleState) -> float:
    """Evaluate a Maxwellian at one particle state."""
    return float(M.density(state.v, internal_variable(M.spec, state), state.species))


# ---------------------------------------------------------------------------
# detailed balance
# ---------------------------------------------------------------------------


def detailed_balance_residual(
    M: Maxwellian,
    pre: Sequence[tuple],
    post: Sequence[tuple],
    species: tuple[int, int] = (0, 0),
):
    """Relative detailed-balance residual (M'M'_* Phi - M M_*) / (M M_*) for
    batched collisions, computed stably as expm1 of the log difference.

    ``pre`` and ``post`` are pairs ((v1, internal1), (v2, internal2)) of
    batched arrays; ``species`` names the two colliding species.  Phi is the
    ratio of pre to post internal-energy weights, the factor that makes the
    strong (pointwise) form of detailed balance hold at equilibrium.
    """
    (v1, i1), (v2, i2) = pre
    (w1, j1), (w2, j2) = post
    i, j = species
    log_gain = M.log_density(w1, j1, i) + M.log_density(w2, j2, j)
    log_loss = M.log_density(v1, i1, i) + M.log_density(v2, i2, j)
    log_phi = _log_phi_ratio(M.spec, species, (i1, i2), (j1, j2), np.shape(log_gain))
    return np.expm1(log_gain + log_phi - log_loss)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentSummary:
    n: float
    u: np.ndarray
    T_velocity: float
    mean_internal: float


def mean_internal_energy(energy: EnergyModel, T: float) -> float:
    """Equilibrium mean internal energy per particle at temperature T.

    Discrete levels are weighted by ``level_weights``, relative to the
    lowest one, so the mean stays finite however cold T is.
    """
    if isinstance(energy, Monatomic):
        return 0.0
    if isinstance(energy, ContinuousEnergy):
        return 0.5 * energy.delta * T
    if isinstance(energy, DiscreteLevels):
        w = level_weights(energy, T)
        return float(np.sum(w * energy.table[0]) / np.sum(w))
    raise TypeError(f"unknown energy model {type(energy).__name__}")


def internal_temperature(energy: EnergyModel, mean_I: float) -> float:
    """Invert the equilibrium mean internal energy for the temperature.

    Closed form for the continuous law; bracketed root solve for discrete
    levels.  Returns inf when mean_I sits at or above the infinite-T limit
    of a discrete spectrum, and 0 (the T -> 0 limit) when it equals the
    ground energy.
    """
    if isinstance(energy, Monatomic):
        raise ValueError("monatomic species has no internal temperature")
    if isinstance(energy, ContinuousEnergy):
        if mean_I <= 0:
            raise ValueError("mean internal energy must be positive")
        return 2.0 * mean_I / energy.delta
    if isinstance(energy, DiscreteLevels):
        E, g = energy.table
        if mean_I == E[0]:
            return 0.0
        if mean_I < E[0]:
            raise ValueError("mean internal energy below the ground level")
        limit = float(np.sum(g * E) / np.sum(g))
        if mean_I >= limit:
            return np.inf
        from scipy.optimize import brentq

        scale = E[-1] - E[0]
        f = lambda T: mean_internal_energy(energy, T) - mean_I
        lo, hi = 1e-8 * scale, 1e12 * scale
        return float(brentq(f, lo, hi, xtol=1e-14, rtol=1e-14))
    raise TypeError(f"unknown energy model {type(energy).__name__}")


def equilibrium_moments(params: EquilibriumParams, energy: EnergyModel) -> MomentSummary:
    """Closed-form moments of the product equilibrium for the first species."""
    return MomentSummary(
        n=params.n[0],
        u=params.u.copy(),
        T_velocity=params.T_kin,
        mean_internal=mean_internal_energy(energy, params.T_int),
    )
