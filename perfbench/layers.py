"""Where the traced run wraps each polykin layer, and the per-layer metrics
derived from the recorded spans.

Every wrapper sits at the attribute the caller looks up: ``relax.run`` as
``cli`` calls it, the collision rules as imported into ``relax`` and
``operator.transitions``, the transition samplers and ``accumulate`` as
imported into ``operator.estimators``, and ``Maxwellian``/``K1Matrix``
methods on their classes.
"""

from __future__ import annotations

import numpy as np

from spans import SpanTable

COLLISION_RULES = ("bl_poly_poly", "bl_poly_mono", "discrete_rule",
                   "monatomic_rule", "resonant_rule")
ESTIMATORS = ("collision_frequency", "eval_q", "eval_k", "weak_moment",
              "entropy_production")


def _leading_rows(x) -> int:
    shape = getattr(x, "shape", ())
    return int(shape[0]) if len(shape) >= 2 else 1


def targets() -> list:
    """(owner, attribute, span name, rows) for every wrapped call site."""
    import polykin.operator as operator
    from polykin import cli, relax
    from polykin.equilib import Maxwellian
    from polykin.operator import estimators, transitions
    from polykin.operator.k1matrix import K1Matrix

    out = [
        (cli, "main", "cli.main", None),
        (relax, "run", "relax.run", None),
        (relax, "init_ensemble", "relax.init_ensemble", None),
        (relax, "step", "relax.step", None),
        (relax, "h_estimate", "relax.h_estimate", None),
    ]
    for module in (relax, transitions):
        for rule in COLLISION_RULES:
            if rule in vars(module):
                out.append((module, rule, f"collide.{rule}",
                            lambda a, k, r: _leading_rows(a[0])))
    out += [
        (Maxwellian, "sample", "equilib.sample", None),
        (Maxwellian, "log_density", "equilib.log_density",
         lambda a, k, r: _leading_rows(a[1])),
        (estimators, "accumulate", "operator.mc.accumulate",
         lambda a, k, r: int(r.diagnostics["n_chunks"])),
        (estimators, "sample_transition", "operator.transitions.sample_transition",
         lambda a, k, r: int(a[7])),
        (estimators, "sample_state", "operator.transitions.sample_state",
         lambda a, k, r: int(a[3])),
        (estimators, "make_proposal", "operator.transitions.make_proposal", None),
    ]
    for name in ESTIMATORS:
        out.append((operator, name, f"operator.estimators.{name}",
                    lambda a, k, r: int(r.n_samples)))
    out += [
        (operator, "assemble_k1", "operator.k1matrix.assemble_k1",
         lambda a, k, r: int(r.n_nodes)),
        (K1Matrix, "hs_norm", "operator.k1matrix.norms.hs_norm", None),
        (K1Matrix, "row_norms", "operator.k1matrix.norms.row_norms", None),
        (K1Matrix, "symmetry_defect", "operator.k1matrix.norms.symmetry_defect", None),
        (operator, "k2_integrability_diagnostic", "operator.k2diag.sweep", None),
    ]
    return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def metrics(spans, stats: dict) -> dict:
    """Per-layer metrics of one traced operation.  Layers the workload does
    not reach read 0."""
    t = SpanTable(spans)
    m: dict = {}
    m["cli.main.overhead_s"] = t.seconds("cli.main") - t.seconds("relax.run")

    m["relax.run.s"] = t.seconds("relax.run")
    m["relax.record.self_s"] = t.self_seconds("relax.run")
    m["relax.init_ensemble.s"] = t.seconds("relax.init_ensemble")
    steps = t.durations("relax.step")
    collisions = stats.get("collisions", 0)
    m["relax.step.calls"] = len(steps)
    m["relax.step.self_s"] = t.self_seconds("relax.step")
    m["relax.step.ms_p50"] = 1e3 * float(np.percentile(steps, 50)) if steps else 0.0
    m["relax.step.ms_p90"] = 1e3 * float(np.percentile(steps, 90)) if steps else 0.0
    m["relax.step.us_per_collision"] = 1e6 * _ratio(sum(steps), collisions)
    m["relax.h_estimate.calls"] = t.calls("relax.h_estimate")
    m["relax.h_estimate.s"] = t.seconds("relax.h_estimate")
    m["relax.collisions"] = collisions
    m["relax.majorant_violations"] = stats.get("majorant_violations", 0)

    m["collide.calls"] = t.calls("collide")
    m["collide.rows"] = t.rows("collide")
    m["collide.rows_per_call"] = _ratio(t.rows("collide"), t.calls("collide"))
    m["collide.s"] = t.seconds("collide")

    m["equilib.sample.s"] = t.seconds("equilib.sample")
    m["equilib.log_density.calls"] = t.calls("equilib.log_density")
    m["equilib.log_density.rows"] = t.rows("equilib.log_density")
    m["equilib.log_density.s"] = t.seconds("equilib.log_density")

    acc = "operator.mc.accumulate"
    m[f"{acc}.calls"] = t.calls(acc)
    m[f"{acc}.s"] = t.seconds(acc)
    m["operator.mc.chunks"] = t.rows(acc)
    m["operator.mc.parallel_share"] = _ratio(t.child_seconds(acc), t.seconds(acc))

    st = "operator.transitions.sample_transition"
    m[f"{st}.calls"] = t.calls(st)
    m[f"{st}.rows"] = t.rows(st)
    m[f"{st}.s"] = t.seconds(st)
    m["operator.transitions.sample_state.s"] = t.seconds("operator.transitions.sample_state")
    m["operator.transitions.make_proposal.s"] = t.seconds(
        "operator.transitions.make_proposal")

    for name in ESTIMATORS:
        key = f"operator.estimators.{name}"
        m[f"{key}.s"] = t.seconds(key)
        m[f"{key}.samples_per_s"] = _ratio(t.rows(key), t.seconds(key))
    for key in ("snapped", "clipped", "inadmissible", "defect_zero"):
        m[f"operator.estimators.{key}"] = stats.get(key, 0)

    k1 = "operator.k1matrix.assemble_k1"
    m[f"{k1}.s"] = t.seconds(k1)
    m[f"{k1}.nodes"] = t.rows(k1)
    m[f"{k1}.bytes_computed"] = sum(8 * n * n for n in t.row_counts(k1))
    m["operator.k1matrix.norms.s"] = t.seconds("operator.k1matrix.norms")
    m["operator.k2diag.sweep.s"] = t.seconds("operator.k2diag.sweep")
    return m
