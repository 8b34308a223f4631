"""Every collision family reaches its rule through the attribute a tracer wraps.

A traced run counts collision-rule calls by replacing the rule names that
``relax`` and ``operator.transitions`` import (``perfbench/layers.py``).  A
rule reached any other way, through a dispatcher in ``collide`` or a local
alias, would read 0 calls there, and so would a rule those modules import
that the tracer's list does not name.  These tests wrap the same names with
counters and check that each family's path calls its rule through them, and
that the tracer's list names every rule the two modules import.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from polykin import collide, relax
from polykin.equilib import EquilibriumParams, Maxwellian
from polykin.model import Monatomic, PowerLawE, single_species
from polykin.operator import transitions
from polykin.operator.transitions import make_proposal, sample_state

from support import bl_spec, discrete_spec, mixture_cont_spec, mixture_disc_spec, resonant_spec

# the collision rules of collide's array layer
RULES = tuple(n for n in collide.__all__ if n.endswith("_rule") or n.startswith("bl_"))
LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
MONO_MONO = single_species(Monatomic(), PowerLawE(C=1.0, zeta=0.4), mass=1.5)


@pytest.fixture
def calls(monkeypatch):
    """(module, rule) of every rule call made through a wrapped attribute."""
    seen = []
    for module in (relax, transitions):
        for rule in RULES:
            if rule in vars(module):
                def counted(*args, _rule=getattr(module, rule),
                            _site=(module.__name__, rule), **kwargs):
                    seen.append(_site)
                    return _rule(*args, **kwargs)
                monkeypatch.setattr(module, rule, counted)
    return seen


@pytest.mark.parametrize("spec, pair, rule", [
    (bl_spec(delta=2.5, zeta=0.6), (0, 0), "bl_poly_poly"),
    (mixture_cont_spec(delta_b=None), (0, 1), "bl_poly_poly"),
    (mixture_cont_spec(delta_b=None), (1, 0), "bl_poly_poly"),
    (MONO_MONO, (0, 0), "monatomic_rule"),
    (mixture_disc_spec(), (0, 1), "discrete_rule"),
    (resonant_spec(delta=3.0), (0, 0), "resonant_rule"),
], ids=["cont-cont", "poly-mono", "mono-poly", "mono-mono", "disc-disc", "resonant"])
def test_transition_sampler_calls_its_rule_once(calls, spec, pair, rule):
    M = Maxwellian(spec, EquilibriumParams(n=(1.0,) * spec.n_species, u=np.zeros(3),
                                           T_kin=1.0, T_int=1.0))
    prop = make_proposal(M, pair)
    rng = np.random.default_rng(0)
    v, internal, _ = sample_state(prop, pair[0], rng, 50)
    transitions.sample_transition(spec, pair, spec.kernel(*pair), v, internal, prop, rng, 50)
    assert calls == [("polykin.operator.transitions", rule)]


@pytest.mark.parametrize("spec, rules", [
    (bl_spec(), {"bl_poly_poly"}),
    (mixture_cont_spec(delta_b=None), {"bl_poly_poly", "monatomic_rule"}),
    (MONO_MONO, {"monatomic_rule"}),
    (discrete_spec(), {"discrete_rule"}),
], ids=["continuous", "poly-mono", "mono-mono", "discrete"])
def test_relax_step_calls_its_rules(calls, spec, rules):
    cfg = relax.RelaxConfig(dt=0.05, n_particles=400, seed=1)
    ensemble = relax.init_ensemble(spec, cfg.n_particles, 1.0, 1.0, seed=cfg.seed)
    relax.step(ensemble, cfg)
    assert ensemble.collisions > 0
    assert set(calls) == {("polykin.relax", rule) for rule in rules}


def traced_rules() -> tuple:
    """``COLLISION_RULES`` of ``perfbench/layers.py``, read from its source."""
    for node in ast.parse(LAYERS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "COLLISION_RULES" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{LAYERS} assigns no COLLISION_RULES")


def test_rules_are_the_array_layer():
    assert set(RULES) == {"bl_poly_poly", "discrete_rule", "monatomic_rule", "resonant_rule"}


@pytest.mark.parametrize("module", [relax, transitions], ids=["relax", "transitions"])
def test_tracer_wraps_every_rule_the_module_imports(module):
    imported = {n for n in RULES if vars(module).get(n) is getattr(collide, n)}
    assert imported
    assert imported <= set(traced_rules())
