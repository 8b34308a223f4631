"""The benchmark's workloads: inputs built from a seed, one operation each,
and the checks on that operation's outputs.

Every workload is a closed loop driven from one process: the runner calls
``run`` again only after the previous call returned.  Layer functions are
looked up as module attributes at call time (``cli.main``,
``operator.collision_frequency``, ...), so the traced run can wrap them.

* ``relax-bl``: ``polykin relax`` on one continuous species (delta=2,
  zeta=0).  Sparse candidate conflicts; time goes to one 1-row collision
  call per accepted collision.
* ``operator-diag``: the Monte Carlo estimators in 250k-row batches on a
  thread pool, plus the dense K1 matrix and the K2 diagnostic sweep.  It
  never runs the relaxation layer.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np

from polykin import cli
from polykin import operator as op
from polykin.collide import ParticleState
from polykin.equilib import EquilibriumParams, Maxwellian
from polykin.model import (
    ContinuousEnergy,
    MixtureSpec,
    Monatomic,
    PowerLawE,
    Species,
    single_species,
    spec_to_json,
)

from machine import nproc

# Collision frequency of the constant kernel at delta=2 and unit density:
# 4 pi C B(delta/2, delta/2) B(3/2, delta).  Against a unit-density
# monatomic partner the weight integral is 4 pi C B(3/2, delta/2).
NU_BL = 16.0 * math.pi / 15.0
NU_POLY_MONO = 8.0 * math.pi / 3.0
W_BL = ParticleState(v=np.array([0.4, -0.1, 0.2]), I=0.9)
MC_THREADS = min(2, nproc())

# Tolerances, set from the spread measured over seeds at full size (relax-bl
# over seeds 1-10 and 9001 at 5e4 particles; at 1e5 particles over ten seeds
# the spreads were smaller).
DRIFT_TOL = 1e-10
# relax-bl final gap: mean 0.7%, sd 0.4%, highest 1.3%
EQUIPARTITION_TOL = 0.02
# the collision count is sub-Poisson: z had sd 0.70 (0.48 at 1e5)
POISSON_Z = 4.0
# weighted fit of log(T_kin - T_int) over rows with gap >= 0.1 T_eq: the
# ratio to the closed form had mean 0.990 and sd 0.015 (range 0.956 ..
# 1.006)
DECAY_FIT_MIN_GAP = 0.1
DECAY_RATE_TOL = 0.08
HS_REFINEMENT_TOL = 0.05
SYMMETRY_TOL = 1e-8


@dataclass
class Outcome:
    """One operation: its polykin wall time, output digest and checks.

    ``collisions`` counts the collisions the operation computed (accepted
    collisions in relaxation, one sampled collision per Monte Carlo sample
    in the estimators) and ``collision_seconds`` the time spent on them.
    """

    seconds: float
    fingerprint: str
    collisions: int
    collision_seconds: float
    checks: list = field(default_factory=list)   # (name, passed, observed)
    stats: dict = field(default_factory=dict)


def _check(checks: list, name: str, passed, observed=None) -> None:
    checks.append((name, bool(passed), observed))


# ---------------------------------------------------------------------------
# relaxation
# ---------------------------------------------------------------------------


def _bl_spec() -> MixtureSpec:
    return single_species(ContinuousEnergy(delta=2.0), PowerLawE(C=1.0, zeta=0.0),
                          mass=1.0)


@dataclass
class RelaxInputs:
    spec: MixtureSpec
    doc: dict            # the config document handed to `polykin relax`
    config_path: Path | None = None
    csv_path: Path | None = None


class RelaxBL:
    def __init__(self, params: dict, toy_particles: int):
        self._params = params
        self._toy_particles = toy_particles

    def build(self, seed: int, size: str) -> RelaxInputs:
        spec = _bl_spec()
        params = dict(self._params, seed=seed)
        if size == "toy":
            params["n_particles"] = self._toy_particles
        doc = json.loads(spec_to_json(spec, indent=None))
        doc["relax"] = params
        return RelaxInputs(spec, doc)

    def prepare(self, inputs: RelaxInputs, out_dir: Path, tag: str) -> None:
        inputs.config_path = out_dir / f"{tag}.config.json"
        inputs.csv_path = out_dir / f"{tag}.series.csv"
        inputs.config_path.write_text(json.dumps(inputs.doc), encoding="utf-8")

    def run(self, inputs: RelaxInputs) -> Outcome:
        argv = ["relax", "--config", str(inputs.config_path),
                "--out", str(inputs.csv_path)]
        stdout = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        seconds = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"polykin relax exited with code {code}")
        checks: list = []
        csv_bytes = inputs.csv_path.read_bytes()
        summary = json.loads(stdout.getvalue().strip().splitlines()[-1])
        self._check_summary(checks, summary)
        self._check_physics(checks, inputs, summary, csv_bytes)
        stats = {"collisions": int(summary["collisions"]),
                 "majorant_violations": int(summary["majorant_violations"])}
        return Outcome(seconds, hashlib.sha256(csv_bytes).hexdigest(),
                       stats["collisions"], seconds, checks, stats)

    @staticmethod
    def _check_summary(checks: list, summary: dict) -> None:
        schema = json.loads(resources.files("polykin.schemas")
                            .joinpath("relax_summary.schema.json")
                            .read_text(encoding="utf-8"))
        try:
            jsonschema.validate(summary, schema)
            valid = True
        except jsonschema.ValidationError:
            valid = False
        _check(checks, "summary_schema", valid)
        _check(checks, "energy_drift", summary["energy_drift"] <= DRIFT_TOL,
               summary["energy_drift"])
        _check(checks, "momentum_drift", summary["momentum_drift"] <= DRIFT_TOL,
               summary["momentum_drift"])
        _check(checks, "no_majorant_violation", summary["majorant_violations"] == 0,
               summary["majorant_violations"])

    @staticmethod
    def _check_physics(checks, inputs, summary, csv_bytes) -> None:
        rc = inputs.doc["relax"]
        delta = inputs.spec.species[0].energy.delta
        gap_final = summary["equipartition_gap"]
        _check(checks, "equipartition_2pct",
               gap_final is not None and gap_final <= EQUIPARTITION_TOL, gap_final)
        expected = rc["n_particles"] * NU_BL * rc["t_end"] / 2.0
        z = (summary["collisions"] - expected) / math.sqrt(expected)
        _check(checks, "collision_count_poisson", abs(z) <= POISSON_Z, z)
        rows = np.loadtxt(io.StringIO(csv_bytes.decode("utf-8")), delimiter=",",
                          skiprows=2, ndmin=2)
        gap = (rows[:, 1] - rows[:, 2]) / summary["t_eq"]
        use = gap >= DECAY_FIT_MIN_GAP
        rate = float("nan")
        if np.count_nonzero(use) >= 3:
            # var(log gap) ~ 1/gap^2, so residuals are weighted by gap
            rate = -np.polyfit(rows[use, 0], np.log(gap[use]), 1, w=gap[use])[0]
        closed_form = NU_BL * (3.0 + delta) / (3.0 + 2.0 * delta)
        _check(checks, "decay_rate_closed_form",
               abs(rate / closed_form - 1.0) <= DECAY_RATE_TOL, rate / closed_form)


# ---------------------------------------------------------------------------
# operator diagnostics
# ---------------------------------------------------------------------------


@dataclass
class DiagInputs:
    estimator_calls: list      # (estimator, label, thunk, check)
    k1_maxwellian: Maxwellian
    k1_grid: object
    k2_sweep: list


def _equilibrium(spec: MixtureSpec) -> Maxwellian:
    """Unit densities and temperatures, at rest."""
    n = tuple(1.0 for _ in spec.species)
    return Maxwellian(spec, EquilibriumParams(n=n, u=np.zeros(3), T_kin=1.0, T_int=1.0))


class OperatorDiag:
    def __init__(self, n_samples: int, toy_samples: int):
        self._n_samples = n_samples
        self._toy_samples = toy_samples

    def build(self, seed: int, size: str) -> DiagInputs:
        n = self._toy_samples if size == "toy" else self._n_samples

        def cfg(k: int) -> op.QuadratureConfig:
            return op.QuadratureConfig(n_samples=n, seed=seed * 100 + k,
                                       threads=MC_THREADS)

        m_bl = _equilibrium(_bl_spec())
        ker = PowerLawE(C=1.0, zeta=0.0)
        mix = MixtureSpec(
            species=(Species("a", 1.0, ContinuousEnergy(delta=2.0)),
                     Species("b", 2.0, Monatomic())),
            kernels=((ker, ker), (ker, ker)),
        )
        m_mix = _equilibrium(mix)
        gen_spec = single_species(ContinuousEnergy(delta=2.5),
                                  PowerLawE(C=1.0, zeta=0.6), mass=2.0)
        m_gen = _equilibrium(gen_spec)
        f_eq = op.DistributionFn(m_gen)
        f_two_t = op.DistributionFn(Maxwellian(
            gen_spec, EquilibriumParams(n=(1.0,), u=np.zeros(3), T_kin=1.0, T_int=1.5)))

        def sqrt_m(v, I):
            return np.exp(0.5 * np.asarray(m_gen.log_density(v, I, 0), float))

        def h_energy(v, I):
            return (np.sum(v * v, -1) + I) * sqrt_m(v, I)

        invariants = {
            "mass": lambda v, I: np.ones(len(v)),
            "momentum_x": lambda v, I: 2.0 * v[:, 0],
            "total_energy": lambda v, I: 0.5 * 2.0 * np.sum(v * v, -1) + I,
        }

        def exact(ref):
            # the constant kernel makes every sample equal, so the estimate
            # is the closed form to rounding
            return lambda e: abs(e.value - ref) <= max(3.0 * e.stderr, 1e-10 * ref)

        def zero(e):
            return e.value == 0.0 and e.stderr == 0.0

        calls = [
            ("collision_frequency", "delta2",
             lambda: op.collision_frequency(W_BL, m_bl, None, cfg(0)), exact(NU_BL)),
            ("collision_frequency", "poly_mono",
             lambda: op.collision_frequency(W_BL, m_mix, None, cfg(1)),
             exact(NU_BL + NU_POLY_MONO)),
            ("eval_q", "equilibrium",
             lambda: op.eval_q(f_eq, f_eq, W_BL, cfg(2)), zero),
        ]
        for part in (1, 2, 3):
            calls.append(("eval_k", f"part{part}",
                          lambda part=part: op.eval_k(h_energy, W_BL, part, m_gen,
                                                      None, cfg(2 + part)), None))
        for k, (label, psi) in enumerate(invariants.items()):
            calls.append(("weak_moment", label,
                          lambda psi=psi, k=k: op.weak_moment(f_two_t, psi, cfg(6 + k)),
                          lambda e: zero(e) and e.diagnostics["defect_zero"] == e.n_samples))
        calls.append(("entropy_production", "two_temperature",
                      lambda: op.entropy_production(f_two_t, cfg(9)),
                      lambda e: e.diagnostics["negative_terms"] == 0
                      and e.value > 3.0 * e.stderr))

        k1_spec = single_species(ContinuousEnergy(delta=3.0), PowerLawE(C=1.0, zeta=0.5))
        grid = op.GridSpec(3, 4) if size == "toy" else op.GridSpec()
        sweep = [
            (2.8, -0.5), (2.8, 0.0), (2.8, 0.4), (3.0, 0.5), (3.0, 0.0),
            (3.2, 0.8), (3.5, 1.0), (4.0, 1.5), (4.0, 0.0), (3.6, -0.8),
            (2.017, 0.537), (2.0, 0.0), (1.8, 0.0), (1.5, 0.5), (2.5, 1.5),
            (3.0, 1.0), (2.2, 0.8), (1.9, -0.5), (2.8, 1.2), (3.5, 2.0),
        ]
        return DiagInputs(calls, _equilibrium(k1_spec), grid, sweep)

    def prepare(self, inputs: DiagInputs, out_dir: Path, tag: str) -> None:
        pass

    def run(self, inputs: DiagInputs) -> Outcome:
        digest = hashlib.sha256()
        checks: list = []
        seconds = 0.0
        est_seconds = 0.0
        samples = 0
        time_to_1pct = 0.0
        health = {"snapped": 0, "clipped": 0, "inadmissible": 0, "defect_zero": 0}

        for estimator, label, thunk, check in inputs.estimator_calls:
            t0 = time.perf_counter()
            est = thunk()
            dt = time.perf_counter() - t0
            seconds += dt
            est_seconds += dt
            samples += est.n_samples
            if est.value != 0.0:
                rel = est.stderr / abs(est.value)
                time_to_1pct += dt * (rel / 0.01) ** 2
            for key in health:
                health[key] += int(est.diagnostics.get(key, 0))
            digest.update(repr((estimator, label, est.value, est.stderr, est.n_samples,
                                sorted(est.diagnostics.items()))).encode())
            if check is not None:
                _check(checks, f"{estimator}.{label}", check(est),
                       [est.value, est.stderr])

        hs = []
        for grid in (inputs.k1_grid, inputs.k1_grid.refined()):
            t0 = time.perf_counter()
            k1 = op.assemble_k1(grid, inputs.k1_maxwellian)
            defect = k1.symmetry_defect()
            hs.append(k1.hs_norm())
            norms = k1.row_norms()
            seconds += time.perf_counter() - t0
            # hashed in place: a bytes copy of the refined matrix would
            # add 94 MB to the peak resident set
            digest.update(np.ascontiguousarray(k1.matrix))
            digest.update(np.ascontiguousarray(norms))
            digest.update(repr((defect, hs[-1])).encode())
            _check(checks, f"k1_symmetry.{k1.n_nodes}", defect <= SYMMETRY_TOL, defect)
            del k1
        _check(checks, "k1_hs_refinement", abs(hs[1] / hs[0] - 1.0) < HS_REFINEMENT_TOL,
               hs[1] / hs[0])

        t0 = time.perf_counter()
        good = op.k2_integrability_diagnostic(3.0, 0.5)
        bad = op.k2_integrability_diagnostic(2.017, 0.537)
        sweep = [op.k2_integrability_diagnostic(d, z) for d, z in inputs.k2_sweep]
        seconds += time.perf_counter() - t0
        for diag in [good, bad] + sweep:
            digest.update(repr((diag.delta, diag.zeta, diag.partials,
                                diag.verdict)).encode())
        _check(checks, "k2_good_integrable",
               good.verdict == "integrable" and good.cauchy_change < 0.01,
               good.cauchy_change)
        _check(checks, "k2_bad_divergent", bad.verdict == "divergent")
        _check(checks, "k2_sweep_consistent",
               all(d.numeric_integrable == d.analytic_integrable and not d.inconsistent
                   for d in sweep))

        stats = {
            "samples_per_s": samples / est_seconds,
            "time_to_1pct_s": time_to_1pct,
            **health,
        }
        return Outcome(seconds, digest.hexdigest(), samples, est_seconds, checks, stats)


WORKLOADS = {
    "relax-bl": RelaxBL(
        {"dt": 0.01, "n_particles": 50_000, "cadence": 10, "t_end": 2.0,
         "T_kin0": 2.0, "T_int0": 1.0},
        toy_particles=2_000),
    "operator-diag": OperatorDiag(n_samples=1_000_000, toy_samples=20_000),
}
