"""Every sampled collision draws its direction, its exchange split and its
post levels through the one helper each.

The scattering direction is ``collide.unit_sphere``, the exchange
parameters (r, R) are ``collide.exchange_split``, which draws a split of two
continuous species as one Dirichlet draw, and a disc-disc pair's post
levels (k', l') are ``collide.channel_draw``.  These tests wrap all three,
in every module that imports them, with counters and check that each
consumer calls the ones its family needs and no other: the relaxation step
for every family and the transition sampler for every family.  A consumer
that drew sigma, (r, R) or (k', l') on its own would read no call here.
Exchange pairs reach ``exchange_split`` and ``unit_sphere``, disc-disc
pairs ``channel_draw`` and ``unit_sphere``, and resonant pairs
``unit_sphere`` alone.
"""

import numpy as np
import pytest

from polykin import collide, relax
from polykin.equilib import EquilibriumParams, Maxwellian
from polykin.model import Monatomic, PowerLawE, single_species
from polykin.operator import transitions
from polykin.operator.transitions import make_proposal, sample_state

from support import bl_spec, discrete_spec, mixture_cont_spec, mixture_disc_spec, resonant_spec

HELPERS = ("exchange_split", "unit_sphere", "channel_draw")
EXCHANGE = ("exchange_split", "unit_sphere")
DISCRETE = ("channel_draw", "unit_sphere")
MONO_MONO = single_species(Monatomic(), PowerLawE(C=1.0, zeta=0.4), mass=1.5)


@pytest.fixture
def calls(monkeypatch):
    """(module, helper) of every call made through a wrapped attribute."""
    seen = []
    for module in (relax, transitions):
        for name in HELPERS:
            helper = getattr(collide, name)
            if vars(module).get(name) is helper:
                def counted(*args, _helper=helper, _site=(module.__name__, name), **kwargs):
                    seen.append(_site)
                    return _helper(*args, **kwargs)
                monkeypatch.setattr(module, name, counted)
    return seen


def test_both_consumers_import_both_helpers():
    for module in (relax, transitions):
        for name in HELPERS:
            assert vars(module)[name] is getattr(collide, name), (module.__name__, name)


@pytest.mark.parametrize("spec, pair, helpers", [
    (bl_spec(delta=2.5, zeta=0.6), (0, 0), EXCHANGE),
    (mixture_cont_spec(), (0, 1), EXCHANGE),
    (mixture_cont_spec(delta_b=None), (0, 1), EXCHANGE),
    (mixture_cont_spec(delta_b=None), (1, 0), EXCHANGE),
    (MONO_MONO, (0, 0), EXCHANGE),
    (mixture_disc_spec(), (0, 1), DISCRETE),
    (resonant_spec(delta=3.0), (0, 0), ("unit_sphere",)),
], ids=["cont-cont", "cont-cont-mixture", "poly-mono", "mono-poly", "mono-mono",
        "disc-disc", "resonant"])
def test_sample_transition_draws_through_the_helpers(calls, spec, pair, helpers):
    M = Maxwellian(spec, EquilibriumParams(n=(1.0,) * spec.n_species, u=np.zeros(3),
                                           T_kin=1.0, T_int=1.0))
    prop = make_proposal(M, pair)
    rng = np.random.default_rng(0)
    v, internal, _ = sample_state(prop, pair[0], rng, 50)
    transitions.sample_transition(spec, pair, spec.kernel(*pair), v, internal, prop, rng, 50)
    name = transitions.__name__
    assert sorted(calls) == sorted((name, h) for h in helpers)


@pytest.mark.parametrize("spec, helpers", [
    (bl_spec(), EXCHANGE),
    (mixture_cont_spec(), EXCHANGE),
    (mixture_cont_spec(delta_b=None), EXCHANGE),
    (MONO_MONO, EXCHANGE),
    (discrete_spec(), DISCRETE),
    (mixture_disc_spec(), DISCRETE),
], ids=["bl", "cont-mixture", "poly-mono-mixture", "mono-mono", "discrete",
        "discrete-mixture"])
def test_relax_step_draws_through_the_helpers(calls, spec, helpers):
    config = relax.RelaxConfig(dt=0.02, n_particles=400, seed=3)
    ensemble = relax.init_ensemble(spec, 400, 1.5, 1.0, seed=3)
    del calls[:]
    relax.step(ensemble, config)
    assert ensemble.collisions > 0
    assert set(calls) == {(relax.__name__, h) for h in helpers}
