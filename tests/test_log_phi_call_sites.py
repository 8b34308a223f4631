"""Every consumer of the internal-energy weight reaches the one helper.

log phi, the log of a species' internal-energy weight (I^(delta/2 - 1) for
a continuous species, the degeneracy g_k of a discrete level, 1 for a
monatomic one), is written once, in ``equilib._log_phi``; the degeneracy
ratio Phi of a transition is ``equilib._log_phi_ratio``, built on it.  These
tests wrap the helper, in every module that imports it, with a counter and
check that each consumer calls it: the transition sampler for every family,
the detailed-balance residual, the equilibrium density and the entropy
estimate.  A consumer that wrote log phi out again would read no call here.
"""

import numpy as np
import pytest

from polykin import equilib, relax
from polykin.equilib import EquilibriumParams, Maxwellian, detailed_balance_residual
from polykin.model import Monatomic, PowerLawE, single_species
from polykin.operator import transitions
from polykin.operator.transitions import make_proposal, sample_state

from support import (bl_spec, discrete_spec, equilibrium_collisions_bl,
                     equilibrium_collisions_discrete, mixture_cont_spec, mixture_disc_spec,
                     resonant_spec)

MONO_MONO = single_species(Monatomic(), PowerLawE(C=1.0, zeta=0.4), mass=1.5)


@pytest.fixture
def calls(monkeypatch):
    """(energy model name, internal argument) of every call of the helper."""
    seen = []
    helper = equilib._log_phi

    def counted(energy, internal):
        seen.append((type(energy).__name__, internal))
        return helper(energy, internal)

    for module in (equilib, relax, transitions):
        if vars(module).get("_log_phi") is helper:
            monkeypatch.setattr(module, "_log_phi", counted)
    return seen


def equilibrium(spec):
    return Maxwellian(spec, EquilibriumParams(n=(1.0,) * spec.n_species, u=np.zeros(3),
                                              T_kin=1.0, T_int=1.0))


def test_the_ratio_is_the_one_transitions_imports():
    assert transitions._log_phi_ratio is equilib._log_phi_ratio
    assert "_log_phi" not in vars(transitions)


@pytest.mark.parametrize("spec, pair, kinds", [
    (bl_spec(delta=2.5, zeta=0.6), (0, 0), {"ContinuousEnergy"}),
    (mixture_cont_spec(delta_b=None), (0, 1), {"ContinuousEnergy", "Monatomic"}),
    (mixture_cont_spec(delta_b=None), (1, 0), {"ContinuousEnergy", "Monatomic"}),
    (MONO_MONO, (0, 0), {"Monatomic"}),
    (mixture_disc_spec(), (0, 1), {"DiscreteLevels"}),
    (resonant_spec(delta=3.0), (0, 0), {"ContinuousEnergy"}),
], ids=["cont-cont", "poly-mono", "mono-poly", "mono-mono", "disc-disc", "resonant"])
def test_sample_transition_forms_log_phi_through_the_helper(calls, spec, pair, kinds):
    prop = make_proposal(equilibrium(spec), pair)
    rng = np.random.default_rng(0)
    v, internal, _ = sample_state(prop, pair[0], rng, 50)
    del calls[:]
    batch = transitions.sample_transition(spec, pair, spec.kernel(*pair), v, internal,
                                          prop, rng, 50)
    assert {kind for kind, _ in calls} == kinds
    # each pre and post internal state of the batch went through the helper
    for name in ("i_pre", "i_star", "i_post", "i_post_star"):
        assert any(x is getattr(batch, name) for _, x in calls), name


@pytest.mark.parametrize("spec, collisions, kind", [
    (bl_spec(delta=3.0), equilibrium_collisions_bl, "ContinuousEnergy"),
    (discrete_spec(), equilibrium_collisions_discrete, "DiscreteLevels"),
], ids=["continuous", "discrete"])
def test_detailed_balance_residual_reaches_the_helper(calls, spec, collisions, kind):
    M = equilibrium(spec)
    pre, post = collisions(M, 40, np.random.default_rng(1))
    del calls[:]
    assert np.max(np.abs(detailed_balance_residual(M, pre, post))) < 1e-12
    # twice per state: in its density and in Phi
    assert [k for k, _ in calls] == [kind] * 8
    for _, internal in (*pre, *post):
        assert any(x is internal for _, x in calls)


@pytest.mark.parametrize("spec, internal, kind", [
    (bl_spec(delta=3.0), np.array([0.3, 1.7]), "ContinuousEnergy"),
    (discrete_spec(), np.array([0, 2]), "DiscreteLevels"),
], ids=["continuous", "discrete"])
def test_log_density_reaches_the_helper(calls, spec, internal, kind):
    equilibrium(spec).log_density(np.zeros((2, 3)), internal, 0)
    assert [k for k, _ in calls] == [kind]


@pytest.mark.parametrize("spec, kinds", [
    (bl_spec(delta=3.0), {"ContinuousEnergy"}),
    (discrete_spec(), {"DiscreteLevels"}),
    (mixture_cont_spec(delta_b=None), {"ContinuousEnergy", "Monatomic"}),
], ids=["continuous", "discrete", "poly-mono"])
def test_h_estimate_reaches_the_helper(calls, spec, kinds):
    ensemble = relax.init_ensemble(spec, 2000, 1.5, 1.0, seed=2)
    del calls[:]
    assert np.isfinite(relax.h_estimate(ensemble))
    assert {kind for kind, _ in calls} == kinds
