"""Stochastic particle simulation of space-homogeneous relaxation.

Binary collisions are realized with a majorant (no-time-counter) scheme:
candidate pairs are drawn uniformly, accepted with probability equal to the
pair's total transition rate divided by a majorant bound, and accepted pairs
exchange energy through the exact collision rules of :mod:`polykin.collide`.
Exchange parameters are drawn from the Beta laws matching the transition
weights (``collide.exchange_split``, one Dirichlet draw for two continuous
species), so accepted collisions follow the kernel's law exactly and the
per-collision conservation defects are at rounding level.  A disc-disc
candidate draws its post levels with ``collide.channel_draw``; its rate is
the rate into that channel over the channel's probability, whose mean over
the draw is the pair's total rate, and if accepted it jumps to them.

Each step draws all its candidates and their random numbers up front; the
draws read no particle state (a pair type's candidate count comes from its
fixed majorant), so the steps of one ``step`` call, which ``run`` makes
once per recorded row, are drawn in groups and each group's candidates run
in dependency levels, in the order step, pair type, draw position: a
candidate's level is one more than the deepest earlier candidate sharing a
particle with it.  Candidates of one level touch disjoint particles and so
commute; each level's rates are evaluated against the state the earlier
levels left, accepted with the candidates' own uniforms and collided in one
batched call per pair type.  The chain therefore has exact sequential
semantics, and a group costs a handful of array calls per level: at seed 1
a 10-step interval of 5e4 particles (8400 candidates) takes 5.5 levels,
where one step (840) took 2.5, and an 8-step group of 1e5 particles
(13 400) takes 5.4.

A group holds about ``_GROUP_CANDIDATES`` expected candidates, at least one
step; past that its arrays outgrow the cache.  Medians of five alternating
rounds of fresh processes (three runs each, ``relax.run`` at seed 1 with
the mmap and trim thresholds pinned as ``polykin.cli`` does) on 2 vCPUs of
an Intel Xeon, for a delta = 2 gas at dt = 0.01, t_end = 2 (6 for 1e5
particles) and zeta = 0 unless stated:

    expected candidates   particles, cadence (s)
    per group             5e4, 10   1e5, 40   5000, 10   2e4 at zeta 0.5, 10
    one step (before)     0.178     0.580     0.057      0.151
     4 096                0.161     0.554     0.035      0.160
     8 192                0.170     0.507     0.038      0.153
    16 384                0.162     0.501     0.034      0.169
    32 768                0.160     0.527     0.035      0.160
    whole interval        0.158     0.703     0.034      0.165

The host's spread between rounds was 10-25 %; the zeta = 0.5 column read
0.150 s before and 0.155 s at 16 384 over ten further alternating rounds
(quartiles 0.143-0.175 and 0.137-0.176 s).

Scope: energy-power kernels without a split weight psi;
continuous and discrete internal structure, single species or binary
mixtures.  Resonant collisions are excluded here and exercised through the
Monte Carlo estimators instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .collide import (PairKind, PairLaw, bl_poly_poly, channel_draw, discrete_rule,
                      exchange_split, monatomic_rule, pair_law, sq_norm, unit_sphere)
from .equilib import (EquilibriumParams, Maxwellian, _log_phi, internal_temperature,
                      mean_internal_energy)
from .model import (
    ContinuousEnergy,
    DiscreteLevels,
    MixtureSpec,
    Monatomic,
    PowerLawE,
    validate,
)

__all__ = [
    "Ensemble",
    "MajorantViolation",
    "RelaxConfig",
    "TimeSeries",
    "equilibrium_temperature",
    "h_estimate",
    "init_ensemble",
    "nonincreasing_trend",
    "relax_summary",
    "run",
    "step",
    "step_count",
]

_MAJORANT_SAFETY = 2.0
_MAJORANT_PROBE_PAIRS = 4096
# longest run accepted; at tens of microseconds per step even a tiny
# ensemble would need minutes
MAX_STEPS = 1_000_000
# largest ensemble accepted; a run peaks at about 130 bytes per particle
# (48 of them state; 121 at 1e6 and 129 at 3e6 particles, peak resident set
# over the imported process), so this one needs about 1.3 GB
MAX_PARTICLES = 10_000_000
# most candidates one step may expect; a step of 1e6 candidates among 1e5
# particles peaks at about 170 traced bytes per candidate (its candidate
# table, the draws' temporaries and the schedule's indices; 161 among 1e6),
# and the runs in use expect a few thousand
MAX_CANDIDATES = 10_000_000
# expected candidates (x summed over pair types and steps) that one
# dependency-level schedule covers; the module docstring has the measured
# table
_GROUP_CANDIDATES = 16_384
# h_estimate's speed and internal-energy bins when the sample fills them
_SPEED_BINS, _INTERNAL_BINS = 64, 32
# nonincreasing_trend allows a positive slope this many standard errors wide
_TREND_Z = 3.0


class MajorantViolation(RuntimeError):
    """Raised when too many sampled rates exceed the majorant bound."""

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass
class RelaxConfig:
    """Simulation controls.

    ``b_maj`` overrides the automatic majorant of every pair type.  That
    majorant is exact where a constant bounds the pair's rate, which is at
    zeta = 0 (:meth:`~polykin.collide.PairLaw.majorant`): C times the pair
    law's weight for exchange pairs, so every candidate is accepted, and
    C * weight * sqrt(2/mu) * (sum g_i)(sum g_j) for two discrete species.
    At any other zeta it is the largest of up to 4096 probed rates (less at
    most 0.4 % of its gap to the second largest: the quantile 1 - 1e-6)
    times a safety factor.  ``cadence`` is the number of steps between
    recorded moment rows.  A step aborts when more than ``violation_tol`` of
    its candidates exceed the majorant.
    """

    dt: float = 0.01
    n_particles: int = 10_000
    seed: int = 0
    cadence: int = 10
    b_maj: Optional[float] = None
    violation_tol: float = 1e-3

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.n_particles < 2:
            raise ValueError("need at least two particles")
        if self.cadence < 1:
            raise ValueError("cadence must be at least 1")
        if self.b_maj is not None and self.b_maj <= 0:
            raise ValueError("majorant bound must be positive")
        if not 0.0 <= self.violation_tol <= 1.0:
            raise ValueError("violation_tol must be a fraction")


@dataclass
class Ensemble:
    """Particle arrays plus the simulation clock and counters.

    ``internal`` holds internal energies (zero for monatomic species, the
    level energy for discrete species); ``levels`` holds level indices where
    applicable.  Collisions mutate the arrays in place.
    """

    spec: MixtureSpec
    v: np.ndarray
    internal: np.ndarray
    levels: np.ndarray
    species: np.ndarray
    rng: np.random.Generator
    time: float = 0.0
    collisions: int = 0
    majorant_violations: int = 0
    _pair_types: Optional[list] = field(default=None, repr=False)
    _masses: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def n_particles(self) -> int:
        return self.v.shape[0]

    @property
    def masses(self) -> np.ndarray:
        """Each particle's mass.  Built on first use and cached, since
        species never change; the array is read-only and every call returns
        the same object."""
        if self._masses is None:
            m = np.array([sp.mass for sp in self.spec.species])[self.species]
            m.flags.writeable = False
            self._masses = m
        return self._masses

    def momentum(self) -> np.ndarray:
        """Total momentum, each component a running sum over the particles
        in order.  Bit for bit ``np.sum(masses[:, None] * v, axis=0)``, which
        adds the rows of the C-ordered (n, 3) product one after another to
        +0.0, at about half its cost.  Adding +0.0 at the end instead changes
        only a sum of -0.0 terms alone, which is -0.0 and nothing else."""
        m = self.masses
        return np.array([np.cumsum(m * self.v[:, k])[-1] for k in range(3)]) + 0.0

    def kinetic_energy(self) -> float:
        return float(0.5 * np.sum(self.masses * sq_norm(self.v)))

    def internal_energy(self) -> float:
        return float(np.sum(self.internal))

    def total_energy(self) -> float:
        return self.kinetic_energy() + self.internal_energy()

    def bulk_velocity(self) -> np.ndarray:
        """Momentum over total mass; where the total mass overflows, both
        over the largest mass first."""
        total = np.sum(self.masses)
        if math.isfinite(total):
            return self.momentum() / total
        big = np.max(self.masses)
        return self.momentum() / big / np.sum(self.masses / big)

    def peculiar_sq(self) -> np.ndarray:
        """Each particle's squared peculiar speed |v - u|^2 about the bulk
        velocity u."""
        return sq_norm(self.v - self.bulk_velocity())

    def kinetic_temperature(self, c2: Optional[np.ndarray] = None) -> float:
        """Translational temperature; ``c2`` is ``peculiar_sq()`` of the
        current state when the caller has already formed it."""
        if c2 is None:
            c2 = self.peculiar_sq()
        return float(np.sum(self.masses * c2) / (3.0 * self.n_particles))

    def _species_rows(self, s: int) -> tuple:
        """An index selecting species ``s``'s particles, and their count.
        The index is a full slice, which copies nothing, when the species
        fills the ensemble."""
        mask = self.species == s
        ns = int(np.count_nonzero(mask))
        return (slice(None) if ns == self.n_particles else mask), ns

    def internal_temperature(self) -> float:
        """Species-wise inversion of the mean internal energy, combined with
        internal-degree-of-freedom weights; nan without internal structure
        (monatomic species and one-level spectra have none)."""
        temps, weights = [], []
        for s, sp in enumerate(self.spec.species):
            rows, ns = self._species_rows(s)
            if (ns == 0 or isinstance(sp.energy, Monatomic)
                    or isinstance(sp.energy, DiscreteLevels) and sp.energy.n_levels == 1):
                continue
            # a discrete mean is taken over the excess above the ground, which
            # is exactly 0 there: a mean of many ground energies can round below
            # the ground itself
            e0 = sp.energy.energies[0] if isinstance(sp.energy, DiscreteLevels) else 0.0
            mean_i = float(np.mean(self.internal[rows] - e0)) + e0
            t = internal_temperature(sp.energy, mean_i)
            w = sp.energy.delta if isinstance(sp.energy, ContinuousEnergy) else 2.0
            temps.append(t)
            weights.append(w * ns)
        if not temps:
            return float("nan")
        return float(np.average(temps, weights=weights))

    def mean_internal(self) -> float:
        return float(np.mean(self.internal))


@dataclass(frozen=True)
class TimeSeries:
    """Sampled relaxation moments; one row per recorded time."""

    t: np.ndarray
    T_kin: np.ndarray
    T_int: np.ndarray
    mean_I: np.ndarray
    H: np.ndarray
    collisions: np.ndarray
    seed: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if np.any(np.diff(self.t) <= 0):
            raise ValueError("times must be strictly increasing")

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# seed={self.seed}\n")
            fh.write("t,T_kin,T_int,mean_I,H,collisions\n")
            for k in range(len(self.t)):
                fh.write(
                    f"{self.t[k]:.17g},{self.T_kin[k]:.17g},"
                    f"{self.T_int[k]:.17g},{self.mean_I[k]:.17g},"
                    f"{self.H[k]:.17g},{int(self.collisions[k])}\n"
                )


def init_ensemble(
    spec: MixtureSpec,
    n: int,
    T_kin0: float,
    T_int0: float,
    u0=None,
    seed: int = 0,
) -> Ensemble:
    """Factorized two-temperature initial data.

    Velocities are Gaussian about ``u0`` at ``T_kin0``; internal energies
    follow the species' equilibrium law at ``T_int0``.  Particles are split
    evenly across species (remainder to the earlier species).  Raises
    ValueError listing the violations of an invalid spec.
    """
    problems = validate(spec)
    if problems:
        raise ValueError("; ".join(problems))
    if n < 2:
        raise ValueError("need at least two particles")
    if n > MAX_PARTICLES:
        raise ValueError(f"n_particles: {n:.6g} particles; at most {MAX_PARTICLES} are allowed")
    if T_kin0 <= 0 or T_int0 <= 0:
        raise ValueError("temperatures must be positive")
    u0 = np.zeros(3) if u0 is None else np.asarray(u0, dtype=float)
    ns = spec.n_species
    counts = [n // ns + (1 if k < n % ns else 0) for k in range(ns)]
    params = EquilibriumParams(n=tuple(1.0 for _ in range(ns)), u=u0,
                               T_kin=T_kin0, T_int=T_int0)
    M = Maxwellian(spec, params)
    rng = np.random.Generator(np.random.PCG64(seed))
    v = np.empty((n, 3))
    internal = np.zeros(n)
    levels = np.full(n, -1, dtype=np.int64)
    species = np.empty(n, dtype=np.int64)
    start = 0
    for s, count in enumerate(counts):
        stop = start + count
        vs, extra = M.sample(rng, count, s)
        v[start:stop] = vs
        species[start:stop] = s
        energy = spec.species[s].energy
        if isinstance(energy, ContinuousEnergy):
            internal[start:stop] = extra
        elif isinstance(energy, DiscreteLevels):
            levels[start:stop] = extra
            internal[start:stop] = energy.table[0][extra]
        start = stop
    ensemble = Ensemble(spec=spec, v=v, internal=internal, levels=levels,
                        species=species, rng=rng)
    _check_ranges(ensemble, u0)
    return ensemble


def _check_ranges(ensemble: Ensemble, u0: np.ndarray) -> None:
    """ValueError where a sum or squared speed of the run would overflow.

    The energy about ``u0``, E_0, is at least the center-of-momentum energy,
    which bounds 1/2 m c^2 for each peculiar speed c: so every squared speed
    the run forms (relative, post-collision, histogram) stays below
    32 E_0 / m for the lightest mass m.  The lab-frame momentum and energy
    are conserved, so finite at the start they stay finite.
    """
    masses = [sp.mass for sp in ensemble.spec.species]
    k = int(np.argmin(masses))
    e0 = 0.5 * float(np.sum(ensemble.masses * sq_norm(ensemble.v - u0)))
    e0 += ensemble.internal_energy()
    if not math.isfinite(32.0 * e0 / masses[k]):
        raise ValueError(f"species[{k}].mass: {masses[k]:.6g} is too small for this "
                         f"run's energy {e0:.6g}; its squared speeds could overflow")
    k = int(np.argmax(masses))
    momenta = np.sum(np.abs(ensemble.masses[:, None] * ensemble.v))
    if not (math.isfinite(momenta) and math.isfinite(ensemble.total_energy())):
        raise ValueError(f"u0: bulk speed {math.hypot(*u0):.6g} overflows this run's "
                         f"momentum or energy at species[{k}].mass = {masses[k]:.6g}")


def _kernel_parameters(spec: MixtureSpec, i: int, j: int) -> tuple[float, float]:
    """(C, zeta) of the (i, j) kernel, which the simulator must support."""
    kernel = spec.kernel(i, j)
    if isinstance(kernel, PowerLawE) and kernel.psi is None:
        return kernel.C, kernel.zeta
    raise ValueError(
        f"kernels[{i}][{j}]: the relaxation simulator supports energy-power kernels only"
    )


@dataclass
class _PairType:
    """Per-species-pair data for candidate generation, fixed by the species;
    ``sampled_b_maj`` is probed when first needed."""

    i: int
    j: int
    idx_i: np.ndarray
    idx_j: np.ndarray
    law: PairLaw
    C: float
    zeta: float
    n_pairs: float
    sampled_b_maj: Optional[float] = None


def _pair_types(ensemble: Ensemble) -> list[_PairType]:
    """The ensemble's pair types, resolved at the first step and cached on
    the ensemble: species never change."""
    if ensemble._pair_types is not None:
        return ensemble._pair_types
    spec = ensemble.spec
    out = []
    for i in range(spec.n_species):
        idx_i = np.flatnonzero(ensemble.species == i)
        for j in range(i, spec.n_species):
            idx_j = idx_i if j == i else np.flatnonzero(ensemble.species == j)
            if idx_i.size == 0 or idx_j.size == 0:
                continue
            C, zeta = _kernel_parameters(spec, i, j)
            n_pairs = (
                idx_i.size * (idx_i.size - 1) / 2.0 if i == j
                else float(idx_i.size) * float(idx_j.size)
            )
            if n_pairs <= 0:
                continue
            out.append(_PairType(i=i, j=j, idx_i=idx_i, idx_j=idx_j,
                                 law=pair_law(spec, i, j), C=C, zeta=zeta, n_pairs=n_pairs))
    ensemble._pair_types = out
    return out


def _majorants(ensemble: Ensemble, config: RelaxConfig) -> list[tuple[_PairType, float, float]]:
    """Each pair type with its majorant and expected candidates per step;
    ValueError naming the majorant's source if any count is not finite or
    exceeds ``MAX_CANDIDATES``."""
    out = []
    for pt in _pair_types(ensemble):
        exact = pt.law.majorant(pt.C, pt.zeta)
        if config.b_maj is not None:
            b_maj, source = config.b_maj, "b_maj: "
        elif exact is not None:
            b_maj, source = exact, f"kernels[{pt.i}][{pt.j}]: exact majorant "
        else:
            # zeta != 0: E^(zeta/2) is unbounded near E = 0 for zeta < 0 and
            # at large E for zeta > 0, so the bound is estimated from probes
            if pt.sampled_b_maj is None:
                pt.sampled_b_maj = _sampled_majorant(ensemble, pt)
            b_maj, source = pt.sampled_b_maj, f"kernels[{pt.i}][{pt.j}]: sampled majorant "
        x = pt.n_pairs * b_maj * config.dt / ensemble.n_particles
        if not math.isfinite(x) or x > MAX_CANDIDATES:
            raise ValueError(f"{source}{b_maj:.6g} gives {x:.6g} expected candidates per "
                             f"step; at most {MAX_CANDIDATES} are allowed")
        out.append((pt, b_maj, x))
    return out


def _sampled_majorant(ensemble: Ensemble, pt: _PairType) -> float:
    """The quantile 1 - 1e-6 of the rates of m sampled pairs times a safety
    factor.  That quantile is the largest probe less (m - 1) * 1e-6 of its
    gap to the second largest: at most 0.4 % of the gap, since m is at most
    ``_MAJORANT_PROBE_PAIRS``.

    A disc-disc probe reads each pair's rate into its lowest channel, level
    0 of both spectra, where |V'| is largest, so it bounds the rate into
    every channel a candidate may draw: a probe through drawn channels reads
    0 wherever the draw lands on a closed one, which at low temperature can
    be every probe.  An exchange pair's rate reads no draw.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([8231, pt.i, pt.j])))
    m = min(_MAJORANT_PROBE_PAIRS, int(pt.n_pairs))
    ii, jj = _draw_pairs(rng, pt, m)
    vals = _rates(ensemble, pt, ii, jj, (np.zeros(m, dtype=np.int64),) * 2)
    # m >= 1, as _pair_types keeps no empty pair type; np.quantile of one
    # inf reads nan, so a single probe is its own top
    top = float(vals[0]) if m == 1 else float(np.quantile(vals, 1.0 - 1e-6))
    return _MAJORANT_SAFETY * top


def _draw_pairs(rng: np.random.Generator, pt: _PairType, m: int):
    """``m`` candidate pairs of distinct particles, uniform over the pair type."""
    if pt.i == pt.j:
        a = rng.integers(0, pt.idx_i.size, m)
        k = rng.integers(1, pt.idx_i.size, m)
        return pt.idx_i[a], pt.idx_i[(a + k) % pt.idx_i.size]
    return (pt.idx_i[rng.integers(0, pt.idx_i.size, m)],
            pt.idx_j[rng.integers(0, pt.idx_j.size, m)])


def _rates(ensemble: Ensemble, pt: _PairType, ii: np.ndarray, jj: np.ndarray,
           draws: tuple) -> np.ndarray:
    """Transition rate of the particle pairs (ii, jj), whose ``draws`` are
    the two draw columns of their rows of the candidate table.  An exchange
    pair's rate is its total rate and reads neither column (the split, NaN
    where the law lacks a parameter).  A disc-disc pair's rate is the rate
    into its post levels (k', l') = ``draws`` over the probability
    ``collide.channel_draw`` gives them, whose mean over that draw is the
    pair's total rate."""
    if pt.zeta == 0.0 and pt.law.kind is not PairKind.DISC_DISC:
        # C * weight * E ** 0.0 is C * weight for every E, even 0, inf and nan
        return np.full(ii.size, pt.C * pt.law.weight)
    g2 = sq_norm(ensemble.v[ii] - ensemble.v[jj])
    E = 0.5 * pt.law.mu * g2 + ensemble.internal[ii] + ensemble.internal[jj]
    if pt.law.kind is not PairKind.DISC_DISC:
        return pt.C * pt.law.weight * E ** (0.5 * pt.zeta)
    (li, gi), (lj, gj) = pt.law.levels_i, pt.law.levels_j
    kp, lp = draws
    pre = ensemble.internal[ii] + ensemble.internal[jj]
    gp2 = g2 - 2.0 * (li[kp] + lj[lp] - pre) / pt.law.mu
    with np.errstate(divide="ignore", invalid="ignore"):
        return (pt.C * pt.law.weight * gi.sum() * gj.sum()
                * np.where(E > 0, E ** (0.5 * pt.zeta - 0.5), 0.0) * np.sqrt(np.maximum(gp2, 0.0)))


def _dependency_levels(ii: np.ndarray, jj: np.ndarray):
    """Yield the candidate positions level by level, in order.

    A candidate's level is one more than the deepest earlier candidate that
    shares a particle with it, so the candidates of one level touch disjoint
    particles.  The deepest such candidate is the last earlier one on either
    particle, so a candidate joins the next level once those two have one.
    """
    m = ii.size
    ends = np.column_stack((ii, jj)).ravel()
    # the ends in order, ties by position: a stable argsort, as one sort of
    # the unique keys end * 2m + position (below 2e14 for MAX_PARTICLES
    # particles and MAX_CANDIDATES candidates)
    end, order = np.divmod(np.sort(ends * (2 * m) + np.arange(2 * m)), 2 * m)
    same = end[1:] == end[:-1]
    prev = np.full(2 * m, -1)
    prev[order[1:][same]] = order[:-1][same] // 2
    prev_a, prev_b = prev[0::2], prev[1::2]
    waiting = np.ones(m + 1, dtype=bool)
    waiting[-1] = False                 # prev == -1: no earlier candidate
    rest = np.arange(m)
    while rest.size:
        free = ~(waiting[prev_a[rest]] | waiting[prev_b[rest]])
        level = rest[free]
        yield level
        waiting[level] = False
        rest = rest[~free]


def _collide(ensemble: Ensemble, pt: _PairType, a: np.ndarray, b: np.ndarray,
             draws: tuple, sigma: np.ndarray) -> int:
    """Collide the disjoint pairs (a, b) in place; return how many collided.

    ``draws`` are the two draw columns of the pairs' rows of the candidate
    table: for an exchange pair the split (r, R), NaN (or None) where the
    law lacks the parameter, which no rule reads (a one-sided pair takes the
    law's fixed r, a monatomic pair scatters elastically); for a disc-disc
    pair the post levels (k', l'), to which it jumps where the relative
    motion admits it (as it does for every accepted pair).
    """
    law, v, I = pt.law, ensemble.v, ensemble.internal
    if law.kind is PairKind.MONO_MONO:
        v[a], v[b] = monatomic_rule(v[a], v[b], sigma, law.m_i, law.m_j)
    elif law.kind is PairKind.DISC_DISC:
        kp, lp = draws
        li, lj = law.levels_i[0], law.levels_j[0]
        w1, w2, ok = discrete_rule(v[a], v[b], li[kp] + lj[lp] - (I[a] + I[b]), sigma,
                                   law.m_i, law.m_j)
        a, b, kp, lp = a[ok], b[ok], kp[ok], lp[ok]
        v[a], v[b] = w1[ok], w2[ok]
        ensemble.levels[a], ensemble.levels[b] = kp, lp
        I[a], I[b] = li[kp], lj[lp]
    else:
        r, R = draws
        r = r if law.r_fixed is None else law.r_fixed
        v[a], v[b], I[a], I[b], _ = bl_poly_poly(v[a], v[b], I[a], I[b], r, R, sigma,
                                                 law.m_i, law.m_j)
    return a.size


def _group_sizes(n_steps: int, per_step: float) -> list[int]:
    """``n_steps`` split evenly into the fewest groups of at most
    ``_GROUP_CANDIDATES`` expected candidates, at least one step each."""
    if per_step * n_steps <= _GROUP_CANDIDATES:
        return [n_steps]
    cap = max(1, int(_GROUP_CANDIDATES / per_step))
    groups = -(-n_steps // cap)
    size, extra = divmod(n_steps, groups)
    return [size + 1] * extra + [size] * (groups - extra)


def step(ensemble: Ensemble, config: RelaxConfig, n_steps: int = 1) -> Ensemble:
    """Advance the ensemble by ``n_steps`` time steps of length ``config.dt``.

    The steps run in groups of about ``_GROUP_CANDIDATES`` expected
    candidates, one dependency-level schedule per group, and leave the
    ensemble bit for bit as ``n_steps`` one-step calls do.  When a step's
    candidates exceed the majorant more often than ``violation_tol``
    allows, ``MajorantViolation`` carries that step's own diagnostics, and
    ``time`` and ``majorant_violations`` read as one-step calls leave them
    (the step's start, its violations counted); the particles and
    ``collisions`` may have advanced to the end of its group.
    """
    if ensemble.n_particles < 2:
        raise ValueError("need at least two particles to step")
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    majorants = _majorants(ensemble, config)
    per_step = sum(x for _, _, x in majorants)
    for size in _group_sizes(n_steps, per_step):
        _step_group(ensemble, config, majorants, size)
    return ensemble


def _joined(parts: list) -> np.ndarray:
    """``parts`` concatenated; a single part is returned as it is, uncopied."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _step_group(ensemble: Ensemble, config: RelaxConfig, majorants: list,
                n_steps: int) -> None:
    """Run ``n_steps`` steps under one dependency-level schedule.

    Each step draws its candidates and their random numbers pair type by
    pair type, in one fixed order: the count's rounding uniform, the pairs,
    the acceptance uniforms, the directions, then the split or post levels.
    Each block of draws becomes rows of the group's candidate table, in the
    order step, pair type, draw position, the order the candidates are
    levelled in; each level is rated, accepted and collided by pair type.
    """
    rng = ensemble.rng
    candidates = [0] * n_steps
    parts = []                          # one tuple of columns per drawing block
    for k in range(n_steps):
        for p, (pt, b_maj, x) in enumerate(majorants):
            if b_maj <= 0.0:
                continue
            m = int(x)
            if rng.random() < x - m:
                m += 1
            if m == 0:
                continue
            candidates[k] += m
            # drawn left to right, last a disc-disc pair's post levels (k', l')
            # or the exchange split (r, R), NaN where the law lacks a parameter
            draw = channel_draw if pt.law.kind is PairKind.DISC_DISC else exchange_split
            parts.append((np.full(m, p), *_draw_pairs(rng, pt, m), rng.random(m),
                          unit_sphere(rng, m),
                          *(np.full(m, np.nan) if d is None else d for d in draw(pt.law, rng, m))))

    violations = np.zeros(n_steps, dtype=np.int64)
    if parts:
        type_of, ii, jj, u_acc, sigma, d0, d1 = map(_joined, zip(*parts))
        del parts
        violated = np.zeros(ii.size, dtype=bool)
        # candidates of one level touch disjoint particles and commute;
        # later levels see their results
        for lev in _dependency_levels(ii, jj):
            for p, (pt, b_maj, _) in enumerate(majorants):
                at = lev if len(majorants) == 1 else lev[type_of[lev] == p]
                if not at.size:
                    continue
                rates = _rates(ensemble, pt, ii[at], jj[at], (d0[at], d1[at]))
                violated[at] = rates > b_maj
                hit = at[u_acc[at] * b_maj < rates]
                if hit.size:
                    ensemble.collisions += _collide(ensemble, pt, ii[hit], jj[hit],
                                                    (d0[hit], d1[hit]), sigma[hit])
        # the step of each violation: step k's candidates follow those of
        # the steps before it
        step_of = np.searchsorted(np.cumsum(candidates), np.flatnonzero(violated), "right")
        violations = np.bincount(step_of, minlength=n_steps)

    for step_candidates, step_violations in zip(candidates, violations.tolist()):
        ensemble.majorant_violations += step_violations
        if step_candidates and step_violations / step_candidates > config.violation_tol:
            raise MajorantViolation(
                "sampled rates exceeded the majorant too often",
                diagnostics={
                    "step_candidates": step_candidates,
                    "step_violations": step_violations,
                    "violation_fraction": step_violations / step_candidates,
                    "majorants": {f"{pt.i}-{pt.j}": b_maj for pt, b_maj, _ in majorants},
                    "time": ensemble.time,
                },
            )
        ensemble.time += config.dt


def _scott_bins(x: np.ndarray, cap: int) -> int:
    sd = float(np.std(x))
    if sd == 0.0:
        return 1
    width = 3.5 * sd / len(x) ** (1.0 / 3.0)
    span = float(np.max(x) - np.min(x))
    if width <= 0 or span <= 0:
        return 1
    return max(1, min(cap, int(np.ceil(span / width))))


def _bins(x: np.ndarray, cap: int, floor: int) -> tuple[np.ndarray, np.ndarray]:
    """Edges over [0, max x] and each sample's bin: ``cap`` bins when the
    sample fills them, else Scott's rule but at least ``floor``."""
    nb = cap if x.size >= 20 * cap else max(floor, _scott_bins(x, cap))
    top = float(x.max()) * (1.0 + 1e-9)
    edges = np.linspace(0.0, top, nb + 1)
    if top == 0.0:                      # an all-zero sample: every edge is 0
        return edges, np.full(x.size, nb - 1)
    # floor(x nb / top) is at most one bin from the last edge <= x, which
    # one comparison on each side finds
    k = np.clip((x / top * nb).astype(np.intp), 0, nb - 1)
    k -= edges[k] > x
    k += edges[k + 1] <= x
    return edges, np.clip(k, 0, nb - 1)


def _log_cell_density(n: int, c: np.ndarray, I: Optional[np.ndarray] = None) -> np.ndarray:
    """Log of the isotropic histogram density of speeds ``c`` (and internal
    energies ``I`` when given), normalized by ``n`` particles, at each
    sample's own cell."""
    c_edges, cell = _bins(c, _SPEED_BINS, 8)
    size = np.diff(c_edges)[:, None]
    if I is not None:
        i_edges, ki = _bins(I, _INTERNAL_BINS, 4)
        size = size * np.diff(i_edges)[None, :]
        cell = cell * (i_edges.size - 1) + ki
    counts = np.bincount(cell, minlength=size.size).reshape(size.shape)
    mids = 0.5 * (c_edges[:-1] + c_edges[1:])
    with np.errstate(divide="ignore"):
        log_f = (
            np.log(np.maximum(counts, 1e-300))
            - math.log(n)
            - np.log(size)
            - np.log(4.0 * np.pi * mids[:, None] ** 2)
        )
    return log_f.ravel()[cell]


def h_estimate(ensemble: Ensemble, c2: Optional[np.ndarray] = None) -> float:
    """Histogram estimate of the entropy functional.

    Each species contributes the mean of log f - log phi, phi its internal
    weight (``equilib._log_phi``), with f reconstructed isotropically from a
    speed-by-internal-energy histogram, or per level from the speeds for a
    discrete species; a monatomic species counts as one level.  Bin counts
    fall back to Scott's rule when the sample is too small to fill the
    default grid.  ``c2`` is ``ensemble.peculiar_sq()`` when the caller has
    already formed it.
    """
    n = ensemble.n_particles
    if n < 1000:
        raise ValueError("need at least 1000 particles for a stable histogram")
    if c2 is None:
        c2 = ensemble.peculiar_sq()
    speeds = np.sqrt(c2)
    total = 0.0
    for s, sp in enumerate(ensemble.spec.species):
        rows, ns = ensemble._species_rows(s)
        if ns == 0:
            continue
        c = speeds[rows]
        energy = sp.energy
        if isinstance(energy, ContinuousEnergy):
            I = ensemble.internal[rows]
            log_f = _log_cell_density(n, c, I) - _log_phi(energy, I)
            total += (ns / n) * float(np.mean(log_f))
            continue
        if isinstance(energy, DiscreteLevels):
            lev = ensemble.levels[rows]
            groups = [(c[lev == k], k) for k in range(len(energy.degeneracies))]
        else:
            groups = [(c, None)]
        for ck, k in groups:
            if ck.size:
                log_f = _log_cell_density(n, ck)
                total += (ck.size / n) * float(np.mean(log_f) - _log_phi(energy, k))
    return total


def equilibrium_temperature(ensemble: Ensemble) -> float:
    """Temperature implied by the conserved center-of-momentum energy."""
    n = ensemble.n_particles
    e_com = 0.5 * float(np.sum(ensemble.masses * ensemble.peculiar_sq()))
    e_com += ensemble.internal_energy()
    counts = [int(np.count_nonzero(ensemble.species == s))
              for s in range(ensemble.spec.n_species)]
    if all(not isinstance(sp.energy, DiscreteLevels) for sp in ensemble.spec.species):
        dof = 0.0
        for sp, ns in zip(ensemble.spec.species, counts):
            d = sp.energy.delta if isinstance(sp.energy, ContinuousEnergy) else 0.0
            dof += ns * (3.0 + d)
        return 2.0 * e_com / dof

    from scipy import optimize

    def gap(T: float) -> float:
        tot = 0.0
        for sp, ns in zip(ensemble.spec.species, counts):
            tot += ns * (1.5 * T + mean_internal_energy(sp.energy, T))
        return tot - e_com

    hi = 2.0 * e_com / (1.5 * n)
    return float(optimize.brentq(gap, 1e-12, max(hi, 1e-9), xtol=1e-12, rtol=1e-12))


def nonincreasing_trend(t: np.ndarray, values: np.ndarray) -> bool:
    """True when the least-squares slope is at most ``_TREND_Z`` standard
    errors above zero."""
    t = np.asarray(t, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(t) < 3:
        raise ValueError("need at least three points for a trend")
    design = np.column_stack([np.ones_like(t), t])
    coef, res, _, _ = np.linalg.lstsq(design, values, rcond=None)
    slope = float(coef[1])
    dof = len(t) - 2
    if dof <= 0 or res.size == 0:
        return slope <= 0.0
    s2 = float(res[0]) / dof
    var = s2 / float(np.sum((t - t.mean()) ** 2))
    return slope <= _TREND_Z * math.sqrt(var) + 1e-12


def _moments(ensemble: Ensemble) -> tuple:
    """One recorded row: time, T_kin, T_int, mean I, H (nan below 1000
    particles) and collisions.  The squared peculiar speeds are formed once
    and shared by T_kin and H."""
    c2 = ensemble.peculiar_sq()
    return (
        ensemble.time,
        ensemble.kinetic_temperature(c2),
        ensemble.internal_temperature(),
        ensemble.mean_internal(),
        # a module-global lookup, so a wrapper set on relax.h_estimate sees each row
        h_estimate(ensemble, c2) if ensemble.n_particles >= 1000 else float("nan"),
        ensemble.collisions,
    )


def step_count(t_end: float, dt: float) -> int:
    """Number of steps of length ``dt`` that reach ``t_end``; ValueError when
    it is not finite or exceeds ``MAX_STEPS``."""
    n = t_end / dt
    if not math.isfinite(n) or round(n) > MAX_STEPS:
        raise ValueError(f"t_end / dt = {n:.6g} steps; at most {MAX_STEPS} are allowed")
    return int(round(n))


def run(
    spec: MixtureSpec,
    config: RelaxConfig,
    T_kin0: float,
    T_int0: float,
    t_end: float,
    u0=None,
) -> TimeSeries:
    """Relax a fresh two-temperature ensemble to ``t_end``.

    Records moments every ``config.cadence`` steps (plus the initial and
    final states) and returns the series with conservation and equilibrium
    diagnostics in ``meta``.
    """
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    n_steps = step_count(t_end, config.dt)
    ens = init_ensemble(spec, config.n_particles, T_kin0, T_int0, u0, seed=config.seed)
    e0 = ens.total_energy()
    p0 = ens.momentum()
    t_eq = equilibrium_temperature(ens)
    rows = [_moments(ens)]
    for start in range(0, n_steps, config.cadence):
        # a module-global lookup, so a wrapper set on relax.step sees each
        # recording interval
        step(ens, config, min(config.cadence, n_steps - start))
        rows.append(_moments(ens))
    e1 = ens.total_energy()
    p1 = ens.momentum()
    cols = list(zip(*rows))
    scale_p = max(float(np.sum(np.abs(ens.masses[:, None] * ens.v))), 1e-300)
    meta = {
        "t_eq": t_eq,
        "energy_initial": e0,
        "energy_final": e1,
        "energy_drift": abs(e1 - e0) / max(abs(e0), 1e-300),
        "momentum_drift": float(np.max(np.abs(p1 - p0))) / scale_p,
        "majorant_violations": ens.majorant_violations,
    }
    return TimeSeries(
        t=np.asarray(cols[0]),
        T_kin=np.asarray(cols[1]),
        T_int=np.asarray(cols[2]),
        mean_I=np.asarray(cols[3]),
        H=np.asarray(cols[4]),
        collisions=np.asarray(cols[5], dtype=np.int64),
        seed=config.seed,
        meta=meta,
    )


def relax_summary(series: TimeSeries) -> dict:
    """Machine-readable run verdicts for reporting."""
    t_eq = series.meta["t_eq"]
    # the last row records the final state
    T_kin, T_int = float(series.T_kin[-1]), float(series.T_int[-1])
    gap = abs(T_kin - T_int) / t_eq
    h = series.H[np.isfinite(series.H)]
    t_h = series.t[np.isfinite(series.H)]
    trend = nonincreasing_trend(t_h, h) if len(h) >= 3 else None
    return {
        "seed": series.seed,
        "t_eq": t_eq,
        "T_kin_final": T_kin,
        "T_int_final": T_int,
        "equipartition_gap": gap,
        "equipartition_within_2pct": bool(gap <= 0.02) if math.isfinite(gap) else None,
        "mean_I_final": float(series.mean_I[-1]),
        "energy_drift": series.meta["energy_drift"],
        "momentum_drift": series.meta["momentum_drift"],
        "collisions": int(series.collisions[-1]),
        "majorant_violations": series.meta["majorant_violations"],
        "h_nonincreasing": trend,
    }
