"""Schema fuzz test of ``polykin relax``: every schema-valid configuration
runs and conserves energy, exits 2 naming what it rejects, or aborts with
exit 4.

The strategies are written by hand and draw toy runs (at most 200 particles
and 20 steps) over the inputs that have broken the command before: masses
from 1e-308 to 1e308, integers no double holds, huge seeds, one-level and
raised-ground spectra, mixtures with a monatomic species and both spellings
of the energy-power kernel.  Each drawn document is checked against the
shipped config schema first, so a strategy that drifts from the schema
fails loudly rather than testing nothing.
"""

from __future__ import annotations

import contextlib
import io
import json

import jsonschema
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from polykin import cli

HUGE = 10**400

MASSES = [1e-308, 1e-300, 1e-160, 1.0, 2.5, 1e160, 1e300, 1e306, 1e308]


def finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


masses = st.one_of(st.sampled_from(MASSES), finite(0.1, 10.0))

continuous = st.builds(lambda d: {"kind": "continuous", "delta": d},
                       st.one_of(st.sampled_from([0.5, 2.0, 3.5]), finite(0.1, 8.0)))


@st.composite
def discrete(draw):
    # one level, or a ladder from a ground level that may sit above 0
    ground = draw(st.sampled_from([0.0, 0.1, 1000.0]))
    n = draw(st.integers(1, 3))
    gaps = draw(st.lists(finite(0.05, 2.0), min_size=n - 1, max_size=n - 1))
    energies = [ground]
    for gap in gaps:
        energies.append(energies[-1] + gap)
    weights = draw(st.lists(st.sampled_from([1.0, 2.0, 3.0]), min_size=n, max_size=n))
    return {"kind": "discrete", "levels": [[e, g] for e, g in zip(energies, weights)]}


energies = st.one_of(continuous, discrete(), st.just({"kind": "monatomic"}))


@st.composite
def kernel_tables(draw, n):
    """A symmetric table whose entries each pick one spelling of their
    pair's energy-power kernel."""
    table = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            C = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
            zeta = draw(st.sampled_from([0.0, 0.5, 1.0, -0.5]))
            for a, b in {(i, j), (j, i)}:
                kind = draw(st.sampled_from(["power_law_e", "psi_weighted"]))
                table[a][b] = {"kind": kind, "C": C, "zeta": zeta}
    return table


@st.composite
def relax_blocks(draw):
    dt = draw(st.sampled_from([0.01, 0.02, 0.05]))
    block = {
        "dt": dt,
        "n_particles": draw(st.integers(2, 200)),
        "t_end": dt * draw(st.integers(1, 20)),
        "T_kin0": draw(finite(0.1, 10.0)),
        "T_int0": draw(finite(0.1, 10.0)),
        "seed": draw(st.one_of(st.integers(0, 2**32), st.sampled_from([2**64, 10**30]))),
    }
    if draw(st.booleans()):
        block["cadence"] = draw(st.integers(1, 25))
    if draw(st.booleans()):
        block["u0"] = draw(st.lists(finite(-3.0, 3.0), min_size=3, max_size=3))
    if draw(st.integers(0, 3)) == 0:
        block["b_maj"] = draw(st.sampled_from([0.5, 500.0]))
    return block


@st.composite
def configs(draw):
    species = [{"label": f"s{k}", "mass": draw(masses), "energy": draw(energies)}
               for k in range(draw(st.integers(1, 2)))]
    if len(species) == 2 and draw(st.booleans()):
        # a mixture with a monatomic species
        species[draw(st.integers(0, 1))]["energy"] = {"kind": "monatomic"}
    doc = {"species": species, "kernels": draw(kernel_tables(len(species))),
           "relax": draw(relax_blocks())}
    if draw(st.integers(0, 3)) == 0:
        # an integer no double holds, in one numeric field
        where = draw(st.sampled_from(["dt", "t_end", "T_kin0", "T_int0", "n_particles",
                                      "seed", "cadence", "b_maj", "mass", "C"]))
        if where == "mass":
            doc["species"][0]["mass"] = HUGE
        elif where == "C":
            doc["kernels"][0][0]["C"] = HUGE
        else:
            doc["relax"][where] = HUGE
    return doc


def not_json(name):
    raise ValueError(f"{name} is not JSON")


@settings(derandomize=True, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=configs())
def test_schema_valid_relax_configs_run_or_exit_2(tmp_path_factory, doc):
    jsonschema.validate(doc, cli._load_schema("relax_config.schema.json"))
    workdir = tmp_path_factory.mktemp("fuzz")
    config = workdir / "run.json"
    config.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["relax", "--config", str(config), "--out", str(workdir / "s.csv")])
    assert code in (0, 2, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 0:
        summary = json.loads(out.getvalue(), parse_constant=not_json)
        jsonschema.validate(summary, cli._load_schema("relax_summary.schema.json"))
        # every collision rule conserves energy, at any mass
        assert summary["energy_drift"] <= 1e-12
