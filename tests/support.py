"""Shared builders and samplers for the test suite."""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np

import polykin
from polykin.model import (
    ContinuousEnergy,
    DiscreteLevels,
    MixtureSpec,
    Monatomic,
    PowerLawE,
    ResonantTensored,
    Species,
    single_species,
)


def run_python(*args):
    """Run a fresh interpreter that imports the same polykin as this one."""
    src = str(Path(polykin.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})


def traced_peak(fn):
    """Bytes allocated at the peak of fn(), beyond what was live before."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def uniform_sphere(rng: np.random.Generator, n: int) -> np.ndarray:
    """n unit vectors drawn uniformly on the sphere."""
    x = rng.normal(size=(n, 3))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def equilibrium_collisions_bl(M, n, rng, species=(0, 0)):
    """Random exchange collisions with pre states drawn from M.

    Returns (pre, post) in the shape detailed_balance_residual expects.
    Dispatches on which side is polyatomic; a one-sided pair is the
    exchange with internal energy 0 on the monatomic side and the whole
    internal share on the polyatomic one.
    """
    from polykin.collide import bl_poly_poly, monatomic_rule

    i, j = species
    spi, spj = M.spec.species[i], M.spec.species[j]
    v1, I1 = M.sample(rng, n, i)
    v2, I2 = M.sample(rng, n, j)
    sig = uniform_sphere(rng, n)
    r = rng.uniform(0.0, 1.0, n)
    R = rng.uniform(0.0, 1.0, n)
    if spi.polyatomic and spj.polyatomic:
        w1, w2, J1, J2, _ = bl_poly_poly(v1, v2, I1, I2, r, R, sig, spi.mass, spj.mass)
    elif spi.polyatomic:
        w1, w2, J1, _, _ = bl_poly_poly(v1, v2, I1, 0.0, 1.0, R, sig, spi.mass, spj.mass)
        J2 = None
    elif spj.polyatomic:
        w1, w2, _, J2, _ = bl_poly_poly(v1, v2, 0.0, I2, 0.0, R, sig, spi.mass, spj.mass)
        J1 = None
    else:
        w1, w2 = monatomic_rule(v1, v2, sig, spi.mass, spj.mass)
        J1 = J2 = None
    return ((v1, I1), (v2, I2)), ((w1, J1), (w2, J2))


def equilibrium_collisions_resonant(M, n, rng):
    """Random resonant collisions with pre states drawn from M."""
    from polykin.collide import resonant_rule

    v1, I1 = M.sample(rng, n, 0)
    v2, I2 = M.sample(rng, n, 0)
    sig = uniform_sphere(rng, n)
    Ip = rng.uniform(0.0, 1.0, n) * (I1 + I2)
    w1, w2, J1, J2 = resonant_rule(v1, v2, I1, I2, Ip, sig)
    return ((v1, I1), (v2, I2)), ((w1, J1), (w2, J2))


def equilibrium_collisions_discrete(M, n, rng, species=(0, 0)):
    """Random admissible level transitions with pre states drawn from M.

    Inadmissible draws are dropped, so fewer than n pairs may come back.
    """
    from polykin.collide import discrete_rule

    i, j = species
    spi, spj = M.spec.species[i], M.spec.species[j]
    Ei = np.asarray(spi.energy.energies)
    Ej = np.asarray(spj.energy.energies)
    v1, k1 = M.sample(rng, n, i)
    v2, k2 = M.sample(rng, n, j)
    kp = rng.integers(0, len(Ei), n)
    lp = rng.integers(0, len(Ej), n)
    sig = uniform_sphere(rng, n)
    dI = Ei[kp] + Ej[lp] - Ei[k1] - Ej[k2]
    w1, w2, ok = discrete_rule(v1, v2, dI, sig, spi.mass, spj.mass)
    pre = ((v1[ok], k1[ok]), (v2[ok], k2[ok]))
    post = ((w1[ok], kp[ok]), (w2[ok], lp[ok]))
    return pre, post


def bl_spec(delta: float = 2.0, C: float = 1.0, zeta: float = 0.0, mass: float = 1.0) -> MixtureSpec:
    return single_species(ContinuousEnergy(delta=delta), PowerLawE(C=C, zeta=zeta), mass=mass)


def resonant_spec(delta: float = 2.0, C: float = 1.0, zeta2: float = 0.0, mass: float = 1.0) -> MixtureSpec:
    return single_species(
        ContinuousEnergy(delta=delta), ResonantTensored(C=C, zeta2=zeta2), mass=mass
    )


def discrete_spec(
    energies=(0.0, 0.7, 1.8), degeneracies=(1.0, 2.0, 1.0), C: float = 1.0,
    zeta: float = 0.0, mass: float = 1.0,
) -> MixtureSpec:
    return single_species(
        DiscreteLevels(energies=energies, degeneracies=degeneracies),
        PowerLawE(C=C, zeta=zeta),
        mass=mass,
    )


def mixture_cont_spec(
    delta_a: float = 2.0, delta_b: float | None = 3.0, m_a: float = 1.0,
    m_b: float = 2.0, C: float = 1.0, zeta: float = 0.0,
) -> MixtureSpec:
    """Two species: species 0 polyatomic; species 1 polyatomic too unless
    delta_b is None, in which case it is monatomic."""
    ker = PowerLawE(C=C, zeta=zeta)
    eb = Monatomic() if delta_b is None else ContinuousEnergy(delta=delta_b)
    return MixtureSpec(
        species=(
            Species(label="a", mass=m_a, energy=ContinuousEnergy(delta=delta_a)),
            Species(label="b", mass=m_b, energy=eb),
        ),
        kernels=((ker, ker), (ker, ker)),
    )


def mixture_disc_spec(m_a: float = 1.0, m_b: float = 2.0, C: float = 1.0, zeta: float = 0.0) -> MixtureSpec:
    ker = PowerLawE(C=C, zeta=zeta)
    return MixtureSpec(
        species=(
            Species(label="a", mass=m_a, energy=DiscreteLevels((0.0, 1.1), (1.0, 2.0))),
            Species(label="b", mass=m_b, energy=DiscreteLevels((0.0, 0.4, 0.9), (2.0, 1.0, 1.0))),
        ),
        kernels=((ker, ker), (ker, ker)),
    )


# degeneracies that are not powers of two, so log(g_a g_b) and
# log g_a + log g_b differ in their last bits and log_phi's order shows
ODD_DEGENERACIES = MixtureSpec(
    species=(Species("a", 1.0, DiscreteLevels((0.0, 0.6, 1.5), (3.0, 5.0, 7.0))),
             Species("b", 1.7, DiscreteLevels((0.0, 0.45), (5.0, 3.0)))),
    kernels=((PowerLawE(C=1.0, zeta=0.3),) * 2,) * 2,
)
