"""``relax.h_estimate`` against a three-branch reference.

``_reference_h_estimate`` below bins continuous species with
``np.histogram2d``, monatomic species and each discrete level with
``np.histogram``, then looks every sample's cell up again with
``np.searchsorted``.  ``relax.h_estimate`` bins each coordinate once and
treats a monatomic species as one level of degeneracy 1; the two must agree
bit for bit, on the Scott-bin fallback and on the full grid, before and after
collisions.
"""

import math

import numpy as np
import pytest

from polykin import relax
from polykin.model import ContinuousEnergy, Monatomic, PowerLawE, single_species

from support import bl_spec, discrete_spec, mixture_cont_spec, mixture_disc_spec


def _reference_h_estimate(ensemble, n_speed=64, n_internal=32):
    n = ensemble.n_particles
    u = ensemble.bulk_velocity()
    total = 0.0
    for s, sp in enumerate(ensemble.spec.species):
        mask = ensemble.species == s
        ns = int(np.count_nonzero(mask))
        if ns == 0:
            continue
        frac = ns / n
        dv = ensemble.v[mask] - u
        c = np.sqrt(np.sum(dv * dv, axis=1))
        nc = n_speed if ns >= 20 * n_speed else max(8, relax._scott_bins(c, n_speed))
        c_edges = np.linspace(0.0, float(c.max()) * (1.0 + 1e-9), nc + 1)
        energy = sp.energy
        if isinstance(energy, ContinuousEnergy):
            I = ensemble.internal[mask]
            ni = n_internal if ns >= 20 * n_internal else max(4, relax._scott_bins(I, n_internal))
            i_edges = np.linspace(0.0, float(I.max()) * (1.0 + 1e-9), ni + 1)
            counts, _, _ = np.histogram2d(c, I, bins=(c_edges, i_edges))
            area = np.diff(c_edges)[:, None] * np.diff(i_edges)[None, :]
            mids = 0.5 * (c_edges[:-1] + c_edges[1:])
            with np.errstate(divide="ignore"):
                log_f = (
                    np.log(np.maximum(counts, 1e-300))
                    - math.log(n)
                    - np.log(area)
                    - np.log(4.0 * np.pi * mids[:, None] ** 2)
                )
            ci = np.clip(np.searchsorted(c_edges, c, side="right") - 1, 0, nc - 1)
            ki = np.clip(np.searchsorted(i_edges, I, side="right") - 1, 0, ni - 1)
            weight = (1.0 - 0.5 * energy.delta) * np.log(np.maximum(I, 1e-300))
            total += frac * float(np.mean(log_f[ci, ki] + weight))
        elif isinstance(energy, Monatomic):
            counts, _ = np.histogram(c, bins=c_edges)
            widths = np.diff(c_edges)
            mids = 0.5 * (c_edges[:-1] + c_edges[1:])
            with np.errstate(divide="ignore"):
                log_f = (
                    np.log(np.maximum(counts, 1e-300))
                    - math.log(n)
                    - np.log(widths)
                    - np.log(4.0 * np.pi * mids**2)
                )
            ci = np.clip(np.searchsorted(c_edges, c, side="right") - 1, 0, nc - 1)
            total += frac * float(np.mean(log_f[ci]))
        else:
            degeneracies = np.asarray(energy.degeneracies)
            lev = ensemble.levels[mask]
            for k in range(len(degeneracies)):
                lmask = lev == k
                nk = int(np.count_nonzero(lmask))
                if nk == 0:
                    continue
                ck = c[lmask]
                nck = n_speed if nk >= 20 * n_speed else max(8, relax._scott_bins(ck, n_speed))
                edges = np.linspace(0.0, float(ck.max()) * (1.0 + 1e-9), nck + 1)
                counts, _ = np.histogram(ck, bins=edges)
                widths = np.diff(edges)
                mids = 0.5 * (edges[:-1] + edges[1:])
                with np.errstate(divide="ignore"):
                    log_f = (
                        np.log(np.maximum(counts, 1e-300))
                        - math.log(n)
                        - np.log(widths)
                        - np.log(4.0 * np.pi * mids**2)
                    )
                ci = np.clip(np.searchsorted(edges, ck, side="right") - 1, 0, nck - 1)
                total += (nk / n) * float(
                    np.mean(log_f[ci]) - math.log(degeneracies[k])
                )
    return total


# discrete majorants are large, so their steps are shorter
CASES = {
    "bl": (bl_spec(), 0.01),
    "bl_delta3": (bl_spec(delta=3.0), 0.01),
    "cont_mixture": (mixture_cont_spec(), 0.01),
    "poly_mono_mixture": (mixture_cont_spec(delta_b=None), 0.01),
    "monatomic": (single_species(Monatomic(), PowerLawE(C=1.0, zeta=0.0)), 0.01),
    "discrete": (discrete_spec(), 0.001),
    "discrete_mixture": (mixture_disc_spec(), 0.001),
}


@pytest.mark.parametrize("n", [1000, 1500, 20_000])
@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_reference_bitwise(name, n):
    # below 1280 particles a species' speeds fall back to Scott's rule, and
    # below 640 its internal energies; discrete levels fall back per level
    spec, dt = CASES[name]
    ens = relax.init_ensemble(spec, n, 1.7, 1.1, seed=11)
    cfg = relax.RelaxConfig(dt=dt, n_particles=n, seed=11)
    for _ in range(3):
        assert relax.h_estimate(ens) == _reference_h_estimate(ens)
        relax.step(ens, cfg)
    assert ens.collisions > 0
    assert relax.h_estimate(ens) == _reference_h_estimate(ens)
