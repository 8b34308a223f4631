"""The level-scheduled relaxation step against a one-candidate-at-a-time
reference.

``_sequential_step`` below walks each step's candidates strictly in order
with single-pair collision calls; a candidate whose particles were hit
earlier in the step gets its rate re-evaluated against the current states
with its original acceptance uniform.  A disc-disc candidate's post levels
are drawn up front in proportion to their degeneracies, and its rate is the
rate into that channel over the channel's probability.  ``relax.step`` runs
the same draws in dependency levels, and every recorded moment must agree
bit for bit.
"""

import numpy as np
import pytest

from polykin import relax
from polykin.collide import (PairKind, bl_poly_poly, discrete_rule, exchange_split,
                             monatomic_rule, unit_sphere)

from support import bl_spec, discrete_spec, mixture_cont_spec, mixture_disc_spec

FIELDS = ("t", "T_kin", "T_int", "mean_I", "H", "collisions")


def _levels(ensemble, pt):
    ei = ensemble.spec.species[pt.i].energy
    ej = ensemble.spec.species[pt.j].energy
    return (np.asarray(ei.energies), np.asarray(ei.degeneracies),
            np.asarray(ej.energies), np.asarray(ej.degeneracies))


def _rates(ensemble, pt, ii, jj, post):
    """Exchange pairs' total rates; disc-disc pairs' rates into the drawn
    channels ``post`` = (k', l'), over the probability
    g_k' g_l' / (sum g_i)(sum g_j) they were drawn with."""
    dv = ensemble.v[ii] - ensemble.v[jj]
    g2 = np.sum(dv * dv, axis=-1)
    E = 0.5 * pt.law.mu * g2 + ensemble.internal[ii] + ensemble.internal[jj]
    if pt.law.kind is not PairKind.DISC_DISC:
        return pt.C * pt.law.weight * E ** (0.5 * pt.zeta)
    li, gi, lj, gj = _levels(ensemble, pt)
    kp, lp = post
    pre = ensemble.internal[ii] + ensemble.internal[jj]
    gp2 = g2 - 2.0 * (li[kp] + lj[lp] - pre) / pt.law.mu
    with np.errstate(divide="ignore", invalid="ignore"):
        return (pt.C * pt.law.weight * np.sum(gi) * np.sum(gj)
                * np.where(E > 0, E ** (0.5 * pt.zeta - 0.5), 0.0) * np.sqrt(np.maximum(gp2, 0.0)))


def _apply_continuous(ensemble, pt, a, b, r, R, sigma):
    law = pt.law
    v1, v2, sig = ensemble.v[a][None, :], ensemble.v[b][None, :], sigma[None, :]
    if law.kind is PairKind.CONT_CONT:
        w1, w2, J1, J2, _ = bl_poly_poly(v1, v2, ensemble.internal[a:a + 1],
                                         ensemble.internal[b:b + 1], np.array([r]),
                                         np.array([R]), sig, law.m_i, law.m_j)
        ensemble.internal[a] = J1[0]
        ensemble.internal[b] = J2[0]
    elif law.kind is PairKind.POLY_MONO:
        w1, w2, J, _, _ = bl_poly_poly(v1, v2, ensemble.internal[a:a + 1], 0.0, 1.0,
                                       np.array([R]), sig, law.m_i, law.m_j)
        ensemble.internal[a] = J[0]
    elif law.kind is PairKind.MONO_POLY:
        w1, w2, _, J, _ = bl_poly_poly(v1, v2, 0.0, ensemble.internal[b:b + 1], 0.0,
                                       np.array([R]), sig, law.m_i, law.m_j)
        ensemble.internal[b] = J[0]
    else:
        w1, w2 = monatomic_rule(v1, v2, sig, law.m_i, law.m_j)
    ensemble.v[a] = w1[0]
    ensemble.v[b] = w2[0]


def _apply_discrete(ensemble, pt, a, b, kp, lp, sigma):
    li, _, lj, _ = _levels(ensemble, pt)
    pre = ensemble.internal[a] + ensemble.internal[b]
    w1, w2, ok = discrete_rule(ensemble.v[a][None, :], ensemble.v[b][None, :],
                               np.array([li[kp] + lj[lp] - pre]), sigma[None, :],
                               pt.law.m_i, pt.law.m_j)
    if not bool(ok[0]):
        return False
    ensemble.v[a] = w1[0]
    ensemble.v[b] = w2[0]
    ensemble.levels[a], ensemble.levels[b] = kp, lp
    ensemble.internal[a], ensemble.internal[b] = li[kp], lj[lp]
    return True


def _sequential_step(ensemble, config):
    rng = ensemble.rng
    n_total = ensemble.n_particles
    step_candidates = step_violations = 0
    for pt, b_maj, _ in relax._majorants(ensemble, config):
        if b_maj <= 0.0:
            continue
        x = pt.n_pairs * b_maj * config.dt / n_total
        m = int(x)
        if rng.random() < x - m:
            m += 1
        if m == 0:
            continue
        step_candidates += m
        if pt.i == pt.j:
            a_loc = rng.integers(0, pt.idx_i.size, m)
            k_loc = rng.integers(1, pt.idx_i.size, m)
            ii = pt.idx_i[a_loc]
            jj = pt.idx_i[(a_loc + k_loc) % pt.idx_i.size]
        else:
            ii = pt.idx_i[rng.integers(0, pt.idx_i.size, m)]
            jj = pt.idx_j[rng.integers(0, pt.idx_j.size, m)]
        u_acc = rng.random(m)
        sigmas = unit_sphere(rng, m)
        discrete = pt.law.kind is PairKind.DISC_DISC
        if discrete:
            _, gi, _, gj = _levels(ensemble, pt)
            r_draw = rng.choice(gi.size, m, p=gi / np.sum(gi))
            R_draw = rng.choice(gj.size, m, p=gj / np.sum(gj))
        else:
            r_draw, R_draw = exchange_split(pt.law, rng, m)

        post = (r_draw, R_draw) if discrete else None
        rates = _rates(ensemble, pt, ii, jj, post)
        dirty = np.zeros(n_total, dtype=bool)
        for k in range(m):
            a, b = int(ii[k]), int(jj[k])
            rate = rates[k]
            if dirty[a] or dirty[b]:
                post_k = post and (r_draw[k:k + 1], R_draw[k:k + 1])
                rate = _rates(ensemble, pt, np.array([a]), np.array([b]), post_k)[0]
            if rate > b_maj:
                step_violations += 1
            if not u_acc[k] * b_maj < rate:
                continue
            sigma = sigmas[k]
            if discrete:
                collided = _apply_discrete(ensemble, pt, a, b, r_draw[k], R_draw[k], sigma)
            else:
                r = None if r_draw is None else r_draw[k]
                R = None if R_draw is None else R_draw[k]
                _apply_continuous(ensemble, pt, a, b, r, R, sigma)
                collided = True
            if collided:
                ensemble.collisions += 1
                dirty[a] = dirty[b] = True
    ensemble.majorant_violations += step_violations
    if step_candidates and step_violations / step_candidates > config.violation_tol:
        raise relax.MajorantViolation("sampled rates exceeded the majorant too often", {})
    ensemble.time += config.dt
    return ensemble


def _assert_same_series(a, b):
    for name in FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True), name
    assert a.meta.keys() == b.meta.keys()
    for key, value in a.meta.items():
        assert value == b.meta[key] or (value != value and b.meta[key] != b.meta[key]), key


def _both(monkeypatch, spec, config, t_end):
    levelled = relax.run(spec, config, 2.0, 1.0, t_end)
    with monkeypatch.context() as patch:
        patch.setattr(relax, "step", _sequential_step)
        sequential = relax.run(spec, config, 2.0, 1.0, t_end)
    return levelled, sequential


# discrete majorants are large (about 780 at these temperatures), so their
# steps are shorter to keep the sequential reference affordable
CASES = {
    "bl": (bl_spec(), 0.01),
    "bl_zeta": (bl_spec(C=2.5, zeta=0.5), 0.01),
    "cont_mixture": (mixture_cont_spec(), 0.01),
    "poly_mono_mixture": (mixture_cont_spec(delta_b=None), 0.01),
    "discrete": (discrete_spec(), 0.001),
    "discrete_mixture": (mixture_disc_spec(), 0.001),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_sequential_reference(monkeypatch, name):
    spec, dt = CASES[name]
    config = relax.RelaxConfig(dt=dt, n_particles=1000, seed=5, cadence=2)
    levelled, sequential = _both(monkeypatch, spec, config, 6 * dt)
    assert levelled.collisions[-1] > 0
    _assert_same_series(levelled, sequential)


@pytest.mark.parametrize("name", ["bl_zeta", "discrete_mixture"])
def test_matches_sequential_reference_under_deep_conflicts(monkeypatch, name):
    # 40 particles and fifty times the step: a particle meets several
    # candidates per step, so deep levels and re-evaluated rates both occur
    depth = []
    levels = relax._dependency_levels

    def counted(ii, jj):
        k = 0
        for k, level in enumerate(levels(ii, jj), start=1):
            yield level
        depth.append(k)

    monkeypatch.setattr(relax, "_dependency_levels", counted)
    spec, dt = CASES[name]
    config = relax.RelaxConfig(dt=50 * dt, n_particles=40, seed=7, cadence=1,
                               violation_tol=1.0)
    levelled, sequential = _both(monkeypatch, spec, config, 300 * dt)
    assert max(depth) >= 3
    assert levelled.collisions[-1] > 0
    _assert_same_series(levelled, sequential)


def test_dependency_levels_definition():
    rng = np.random.default_rng(3)
    ii = rng.integers(0, 12, 60)
    jj = (ii + rng.integers(1, 12, 60)) % 12
    level = np.zeros(60, dtype=int)
    for depth, positions in enumerate(relax._dependency_levels(ii, jj), start=1):
        assert np.all(np.diff(positions) > 0)
        level[positions] = depth
    last = {}
    for k in range(60):
        expected = 1 + max(last.get(ii[k], 0), last.get(jj[k], 0))
        assert level[k] == expected
        last[ii[k]] = last[jj[k]] = expected
