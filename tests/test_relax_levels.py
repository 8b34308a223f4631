"""The level-scheduled relaxation step against a one-candidate-at-a-time
reference.

``_sequential_step`` below walks each step's candidates strictly in order
with single-pair collision calls; a candidate whose particles were hit
earlier in the step gets its rate re-evaluated against the current states
with its original acceptance uniform.  A disc-disc candidate's post levels
are drawn up front in proportion to their degeneracies, and its rate is the
rate into that channel over the channel's probability.  ``relax.run``
calls ``relax.step`` once per recording interval, which runs the same draws
in dependency levels over groups of steps, and every recorded moment must
agree bit for bit with the reference called in its place.
"""

import json

import numpy as np
import pytest

from polykin import cli, relax
from polykin.collide import (PairKind, bl_poly_poly, discrete_rule, exchange_split,
                             monatomic_rule, unit_sphere)
from polykin.model import ContinuousEnergy, MixtureSpec, Monatomic, PowerLawE, Species, spec_to_json

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


def _sequential_step(ensemble, config, n_steps=1):
    """``relax.step``'s signature, one step at a time."""
    for _ in range(n_steps):
        _sequential_one_step(ensemble, config)
    return ensemble


def _sequential_one_step(ensemble, config):
    rng = ensemble.rng
    n_total = ensemble.n_particles
    step_candidates = step_violations = 0
    majorants = relax._majorants(ensemble, config)
    for pt, b_maj, _ in majorants:
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
        raise relax.MajorantViolation("sampled rates exceeded the majorant too often", {
            "step_candidates": step_candidates,
            "step_violations": step_violations,
            "violation_fraction": step_violations / step_candidates,
            "majorants": {f"{pt.i}-{pt.j}": b_maj for pt, b_maj, _ in majorants},
            "time": ensemble.time,
        })
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
    calls = []

    def reference(ensemble, config, n_steps=1):
        calls.append(n_steps)
        return _sequential_step(ensemble, config, n_steps)

    with monkeypatch.context() as patch:
        patch.setattr(relax, "step", reference)
        sequential = relax.run(spec, config, 2.0, 1.0, t_end)
    # the reference ran every step, one call per recording interval
    n_steps = relax.step_count(t_end, config.dt)
    assert sum(calls) == n_steps
    assert len(calls) == -(-n_steps // config.cadence)
    return levelled, sequential


def _zero_cross_spec(zeta):
    """A continuous species (delta 2.5, mass 1) and a monatomic one (mass 2)
    with C = 1 on the diagonal and C = 0 across: the cross pair type's
    majorant is 0, so it never draws."""
    on, off = PowerLawE(C=1.0, zeta=zeta), PowerLawE(C=0.0, zeta=zeta)
    return MixtureSpec(species=(Species("a", 1.0, ContinuousEnergy(2.5)),
                                Species("b", 2.0, Monatomic())),
                       kernels=((on, off), (off, on)))


# (spec, dt, cadence): discrete majorants are large (about 780 at these
# temperatures), so their steps are shorter to keep the sequential reference
# affordable; three steps per recording interval put chains of conflicts
# across steps into one level schedule
CASES = {
    "bl": (bl_spec(), 0.01, 3),
    "bl_zeta": (bl_spec(C=2.5, zeta=0.5), 0.01, 3),
    "cont_mixture": (mixture_cont_spec(), 0.01, 3),
    "poly_mono_mixture": (mixture_cont_spec(delta_b=None), 0.01, 3),
    "discrete": (discrete_spec(), 0.001, 3),
    "discrete_mixture": (mixture_disc_spec(), 0.001, 3),
    "zero_cross": (_zero_cross_spec(0.0), 0.01, 3),
    "zero_cross_zeta": (_zero_cross_spec(0.5), 0.01, 3),
}


@pytest.mark.parametrize("name", ["zero_cross", "zero_cross_zeta"])
def test_zero_cross_kernel_has_a_zero_majorant(name):
    spec, dt, _ = CASES[name]
    ens = relax.init_ensemble(spec, 1000, 2.0, 1.0, seed=5)
    majorants = relax._majorants(ens, relax.RelaxConfig(dt=dt, n_particles=1000))
    assert [(pt.i, pt.j, b_maj > 0.0) for pt, b_maj, _ in majorants] == [
        (0, 0, True), (0, 1, False), (1, 1, True)]


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_sequential_reference(monkeypatch, name):
    spec, dt, cadence = CASES[name]
    config = relax.RelaxConfig(dt=dt, n_particles=1000, seed=5, cadence=cadence)
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
    spec, dt, _ = CASES[name]
    config = relax.RelaxConfig(dt=50 * dt, n_particles=40, seed=7, cadence=5,
                               violation_tol=1.0)
    levelled, sequential = _both(monkeypatch, spec, config, 300 * dt)
    assert max(depth) >= 3
    assert levelled.collisions[-1] > 0
    _assert_same_series(levelled, sequential)


@pytest.mark.parametrize("name, sizes", [("bl", [3, 2, 3, 2]), ("discrete_mixture", [1] * 10)])
def test_matches_sequential_reference_across_groups(monkeypatch, name, sizes):
    # 64 expected candidates per group: bl (about 17 per step) runs each
    # five-step interval as groups of 3 and 2 steps, the discrete mixture
    # (hundreds per step) as one group per step
    groups = []
    step_group = relax._step_group

    def counted(ensemble, config, majorants, n_steps):
        groups.append(n_steps)
        return step_group(ensemble, config, majorants, n_steps)

    monkeypatch.setattr(relax, "_GROUP_CANDIDATES", 64)
    monkeypatch.setattr(relax, "_step_group", counted)
    spec, dt, _ = CASES[name]
    config = relax.RelaxConfig(dt=dt, n_particles=1000, seed=5, cadence=5)
    levelled, sequential = _both(monkeypatch, spec, config, 10 * dt)
    assert groups == sizes
    assert levelled.collisions[-1] > 0
    _assert_same_series(levelled, sequential)


class TestViolationInsideAnInterval:
    """At b_maj = 16 and no tolerance, the first violation is in step 2, the
    third step of the first five-step recording interval."""

    SPEC = bl_spec(C=2.5, zeta=0.5)
    CONFIG = relax.RelaxConfig(dt=0.01, n_particles=1000, seed=5, cadence=5, b_maj=16.0,
                               violation_tol=0.0)

    def one_step_at_a_time(self, step):
        ens = relax.init_ensemble(self.SPEC, 1000, 2.0, 1.0, seed=5)
        with pytest.raises(relax.MajorantViolation) as err:
            for _ in range(5):
                step(ens, self.CONFIG)
        return ens, err.value

    def test_run_raises_the_steps_own_diagnostics(self):
        ens, expected = self.one_step_at_a_time(relax.step)
        assert expected.diagnostics["time"] == 2 * self.CONFIG.dt
        _, reference = self.one_step_at_a_time(_sequential_step)
        assert reference.diagnostics == expected.diagnostics
        with pytest.raises(relax.MajorantViolation) as err:
            relax.run(self.SPEC, self.CONFIG, 2.0, 1.0, 0.2)
        assert str(err.value) == str(expected)
        assert err.value.diagnostics == expected.diagnostics

    def test_grouped_call_leaves_the_clock_at_the_step(self):
        ens, expected = self.one_step_at_a_time(_sequential_step)
        grouped = relax.init_ensemble(self.SPEC, 1000, 2.0, 1.0, seed=5)
        with pytest.raises(relax.MajorantViolation):
            relax.step(grouped, self.CONFIG, 5)
        assert grouped.time == ens.time == expected.diagnostics["time"]
        assert grouped.majorant_violations == ens.majorant_violations > 0

    def test_cli_exits_4_with_the_steps_diagnostics(self, tmp_path, capsys):
        _, expected = self.one_step_at_a_time(relax.step)
        doc = json.loads(spec_to_json(self.SPEC))
        doc["relax"] = {"dt": 0.01, "n_particles": 1000, "seed": 5, "cadence": 5,
                        "b_maj": 16.0, "violation_tol": 0.0, "t_end": 0.2,
                        "T_kin0": 2.0, "T_int0": 1.0}
        config = tmp_path / "run.json"
        config.write_text(json.dumps(doc))
        code = cli.main(["relax", "--config", str(config), "--out", str(tmp_path / "s.csv")])
        err = capsys.readouterr().err
        assert code == 4
        assert err == json.dumps({"error": str(expected), **expected.diagnostics}) + "\n"


@pytest.mark.parametrize("n_steps", [0, -1])
def test_step_count_must_be_positive(n_steps):
    ens = relax.init_ensemble(bl_spec(), 100, 2.0, 1.0, seed=1)
    with pytest.raises(ValueError, match="n_steps must be at least 1"):
        relax.step(ens, relax.RelaxConfig(n_particles=100), n_steps)
    assert ens.time == 0.0


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
