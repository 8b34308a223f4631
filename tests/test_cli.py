"""Tests for the command-line interface: exit codes, schemas, determinism."""

import ctypes
import json
import math
import platform
from importlib import resources
from types import SimpleNamespace

import jsonschema
import numpy as np
import pytest

from polykin import cli, fitlab
from polykin.hypotheses import TABLE1
from polykin.model import spec_from_json, spec_to_json
from support import run_python


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_process(argv):
    """Run the CLI in a child process; its stderr is what a user sees,
    warnings included."""
    return run_python("-m", "polykin.cli", *argv)


def strict_json(text):
    """Parse JSON, rejecting the NaN and Infinity that ``json`` accepts."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


def schema(name):
    return cli._load_schema(name)


@pytest.mark.parametrize("name", sorted(
    p.name for p in resources.files("polykin.schemas").iterdir() if p.name.endswith(".json")))
def test_shipped_schemas_are_valid(name):
    # the CLI validates documents without checking the schema itself
    doc = schema(name)
    jsonschema.validators.validator_for(doc).check_schema(doc)


KERNEL_KINDS = schema("relax_config.schema.json")["properties"]["kernels"]["items"][
    "items"]["properties"]["kind"]["enum"]


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_every_schema_kernel_kind_loads(kind):
    # each kernel kind the relax schema accepts is one the loader reads, and
    # what it reads is written back as the same kernel
    doc = {"species": [{"label": "gas", "mass": 1.0,
                        "energy": {"kind": "continuous", "delta": 2.0}}],
           "kernels": [[{"kind": kind, "C": 1.0, "zeta": 0.5}]]}
    spec = spec_from_json(json.dumps(doc))
    assert spec_from_json(spec_to_json(spec)) == spec


def write_manifest(directory, cv_rows, mu_rows):
    """A one-dataset fit manifest for N2 at 1 bar, with its two CSV files."""
    (directory / "cv.csv").write_text(
        "T,c_hat_v\n" + "".join(f"{t},{c}\n" for t, c in cv_rows))
    (directory / "mu.csv").write_text(
        "T,mu\n" + "".join(f"{t},{m}\n" for t, m in mu_rows))
    manifest = directory / "manifest.json"
    manifest.write_text(json.dumps({"datasets": [
        {"gas": "N2", "pressure_bar": 1.0, "cv": "cv.csv", "mu": "mu.csv"}]}))
    return manifest


def write_relax_config(path, **overrides):
    cfg = {
        "species": [{"label": "gas", "mass": 1.0,
                     "energy": {"kind": "continuous", "delta": 2.0}}],
        "kernels": [[{"kind": "power_law_e", "C": 1.0, "zeta": 0.0}]],
        "relax": {"dt": 0.02, "n_particles": 1500, "seed": 12, "cadence": 10,
                  "t_end": 0.6, "T_kin0": 2.0, "T_int0": 1.0},
    }
    cfg["relax"].update(overrides)
    path.write_text(json.dumps(cfg))
    return path


class TestOnePath:
    """Framing that every subcommand shares: the finiteness check of its
    flags, the silenced floating-point warnings and the summary line."""

    MU = [(300, 1.0), (400, 1.2), (600, 1.5)]

    @pytest.mark.parametrize("name", ["k2", "k1norm", "relax", "table1", "fit"])
    def test_summary_is_one_strict_json_line(self, tmp_path, name):
        # each input overflows a summary value, or runs clean
        argv, schema_name = {
            "k2": (["diag", "--kind", "k2", "--delta", "2", "--zeta", "1e300"],
                   "diag_summary.schema.json"),
            "k1norm": (["diag", "--kind", "k1norm", "--delta", "1e300", "--zeta", "0",
                        "--grid", "4"], "diag_summary.schema.json"),
            "relax": (["relax", "--config", str(write_relax_config(tmp_path / "run.json"))],
                      "relax_summary.schema.json"),
            "table1": (["table1"], "fit_summary.schema.json"),
            "fit": (["fit", "--manifest", str(write_manifest(
                tmp_path, [(300, 1e308), (400, 1e308), (600, 1e308)], self.MU))],
                "fit_summary.schema.json"),
        }[name]
        out = tmp_path / "out.csv"
        proc = run_cli_process([*argv, "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        (line,) = proc.stdout.splitlines()
        summary = strict_json(line)
        jsonschema.validate(summary, schema(schema_name))
        assert summary["out"] == str(out) and out.exists()
        if name == "fit":
            assert summary["max_abs_delta_gap"] is None

    @pytest.mark.parametrize("token", ["nan", "inf"])
    def test_fit_rejects_non_finite_data(self, tmp_path, capsys, token):
        manifest = write_manifest(tmp_path, [(300, 2.5), (400, token), (600, 2.52)],
                                  self.MU)
        code, stdout, err = run_cli(["fit", "--manifest", str(manifest),
                                     "--out", str(tmp_path / "r.csv")], capsys)
        assert code == 2 and stdout == ""
        assert err == f"error: {tmp_path / 'cv.csv'}: non-finite numeric row '400,{token}'\n"
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("argv, flag", [
        (["check", "--delta", "2", "--zeta", "nan", "--zeta1=-inf", "--hyp", "H9"], "zeta"),
        (["check", "--zeta2=inf", "--hyp", "H4"], "zeta2"),
        (["diag", "--kind", "k2", "--delta", "nan", "--zeta", "inf"], "delta"),
        (["diag", "--kind", "k1norm", "--delta", "2", "--zeta=-inf", "--grid", "0"], "zeta"),
        # a negative non-finite word after its flag joins it as --flag=-inf
        (["check", "--zeta2", "-inf", "--hyp", "H4", "--delta", "2", "--zeta", "0.5"],
         "zeta2"),
        (["diag", "--kind", "k2", "--delta", "2", "--zeta", "-inf"], "zeta"),
        (["diag", "--kind", "k2", "--delta", "2", "--zeta", "-nan"], "zeta"),
        (["diag", "--kind", "k2", "--delta", "2", "--zeta", "-Infinity"], "zeta"),
        (["diag", "--kind", "k2", "--delta", "-NaN", "--zeta", "-INF"], "delta"),
    ])
    def test_first_non_finite_flag_is_named(self, tmp_path, capsys, argv, flag):
        # checked in parser order, before the command's own checks
        out = tmp_path / "d.csv"
        argv = [*argv, "--out", str(out)] if argv[0] == "diag" else argv
        code, stdout, err = run_cli(argv, capsys)
        assert code == 2 and stdout == "" and not out.exists()
        assert err == f"error: --{flag} must be finite\n"

    @pytest.mark.parametrize("argv, code, message", [
        (["diag", "--kind", "k1norm", "--delta", "2", "--zeta", "0", "--grid", "-1e3"],
         2, "argument --grid: invalid int value: '-1e3'"),
        (["check", "--delta", "2", "--zeta", "0", "--hyp", "-1e3"],
         2, "unknown hypothesis '-1e3'"),
        (["relax", "--config", "-1e3"], 3, "No such file or directory: '-1e3'"),
    ])
    def test_exponent_number_joins_any_flag(self, tmp_path, monkeypatch, capsys,
                                            argv, code, message):
        monkeypatch.chdir(tmp_path)
        result = run_cli(argv, capsys)
        assert result[:2] == (code, "")
        assert message in result[2]

    @pytest.mark.parametrize("field", ["relax.dt", "relax.t_end", "relax.T_kin0",
                                       "relax.T_int0", "relax.n_particles", "relax.b_maj",
                                       "relax.u0[2]", "--grid"])
    def test_integer_no_double_holds_is_named(self, tmp_path, capsys, field):
        # json and int read 1 followed by 400 zeros exactly; float() of it overflows
        huge = 10**400
        out = tmp_path / "out.csv"
        if field == "--grid":
            argv = ["diag", "--kind", "k1norm", "--delta", "2", "--zeta", "0",
                    "--grid", str(huge)]
        else:
            key = field.removeprefix("relax.").removesuffix("[2]")
            cfg = write_relax_config(tmp_path / "run.json",
                                     **{key: [0.0, 0.0, huge] if key == "u0" else huge})
            argv = ["relax", "--config", str(cfg)]
        code, stdout, err = run_cli([*argv, "--out", str(out)], capsys)
        assert code == 2 and stdout == "" and not out.exists()
        assert err.startswith(f"error: {field}")
        assert "Traceback" not in err

    def test_relax_config_defaults_come_from_relax_config(self, tmp_path, capsys,
                                                          monkeypatch):
        cfg = write_relax_config(tmp_path / "run.json", n_particles=500.0, t_end=0.1)
        doc = json.loads(cfg.read_text())
        for key in ("seed", "cadence"):
            del doc["relax"][key]
        cfg.write_text(json.dumps(doc))
        seen = []
        run = cli.relax.run

        def spy(spec, config, *args, **kwargs):
            seen.append(config)
            return run(spec, config, *args, **kwargs)

        monkeypatch.setattr(cli.relax, "run", spy)
        code, _, err = run_cli(["relax", "--config", str(cfg),
                                "--out", str(tmp_path / "s.csv")], capsys)
        assert code == 0, err
        assert seen == [cli.relax.RelaxConfig(dt=0.02, n_particles=500)]
        assert type(seen[0].n_particles) is int


class TestCheckCommand:
    def test_reference_pair_verdicts(self, capsys):
        code, out, _ = run_cli(
            ["check", "--delta", "2.017", "--zeta", "0.537", "--hyp", "H2,H3"],
            capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        h2, h3 = (json.loads(ln) for ln in lines)
        assert h2["hypothesis"] == "H2" and h2["satisfied"] is True
        assert h3["hypothesis"] == "H3" and h3["satisfied"] is False
        verdict_schema = schema("verdict.schema.json")
        jsonschema.validate(h2, verdict_schema)
        jsonschema.validate(h3, verdict_schema)

    def test_strict_window_satisfied(self, capsys):
        code, out, _ = run_cli(
            ["check", "--delta", "3", "--zeta", "0.5", "--hyp", "H3"], capsys)
        assert code == 0
        assert json.loads(out)["satisfied"] is True

    def test_unknown_hypothesis_exits_2(self, capsys):
        code, _, err = run_cli(["check", "--hyp", "H9"], capsys)
        assert code == 2
        assert "H9" in err

    def test_missing_required_flag_exits_2(self, capsys):
        code, _, err = run_cli(["check", "--zeta", "0.5", "--hyp", "H2"], capsys)
        assert code == 2
        assert "--delta" in err

    def test_monatomic_needs_no_parameters(self, capsys):
        code, out, _ = run_cli(["check", "--hyp", "H1"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["satisfied"] is False
        assert doc["margins"] == []

    def test_resonant_and_discrete_flags(self, capsys):
        code, out, _ = run_cli(
            ["check", "--delta", "2", "--zeta", "0.5", "--zeta1", "0.2",
             "--zeta2", "0.3", "--hyp", "H4,H5"], capsys)
        assert code == 0
        h4, h5 = (json.loads(ln) for ln in out.strip().splitlines())
        assert h4["hypothesis"] == "H4" and h4["satisfied"] is True
        assert h5["hypothesis"] == "H5" and h5["satisfied"] is True

    def test_mixture_scalar_collapse(self, capsys):
        code, out, _ = run_cli(
            ["check", "--delta", "2.0", "--zeta", "0.5", "--hyp", "H6"], capsys)
        assert code == 0
        assert json.loads(out)["hypothesis"] == "H6"

    def test_nonfinite_flag_exits_2(self, capsys):
        code, _, err = run_cli(
            ["check", "--delta", "inf", "--zeta", "0.5", "--hyp", "H2"], capsys)
        assert code == 2
        assert "finite" in err

    def test_negative_exponent_notation_value(self, capsys):
        # argparse alone reads a separate -1e3 as an option, not a number
        split = run_cli(["check", "--delta", "2", "--zeta", "-1e3", "--hyp", "H2"], capsys)
        joined = run_cli(["check", "--delta", "2", "--zeta=-1e3", "--hyp", "H2"], capsys)
        assert split[0] == 0
        assert split == joined

    def test_nonpositive_delta_names_the_flag(self, capsys):
        code, out, err = run_cli(["check", "--delta", "0", "--zeta", "1", "--hyp", "H2"],
                                 capsys)
        assert code == 2 and out == ""
        assert err == "error: --delta must be positive\n"

    @pytest.mark.parametrize("hyp", ["H6", "H7"])
    @pytest.mark.parametrize("delta", ["0", "-1.5"])
    def test_mixture_hypotheses_reject_nonpositive_delta(self, hyp, delta, capsys):
        code, out, err = run_cli(["check", "--delta", delta, "--zeta", "0.5", "--hyp", hyp],
                                 capsys)
        assert code == 2 and out == ""
        assert err == "error: --delta must be positive\n"

    @pytest.mark.parametrize("hyp, failing", [("H1,H2", "H2"), ("H5,H6", "H6"),
                                              ("H2,H5", "H2")])
    def test_an_error_prints_no_verdict(self, hyp, failing, capsys):
        # every verdict is formed before the first is printed
        code, out, err = run_cli(["check", "--delta", "0", "--zeta", "0.5", "--hyp", hyp],
                                 capsys)
        assert code == 2 and out == ""
        assert err == "error: --delta must be positive\n"
        code, out, err = run_cli(["check", "--zeta", "0.5", "--hyp", hyp], capsys)
        assert code == 2 and out == ""
        assert err == f"error: --delta is required for {failing}\n"

    def test_discrete_window_reads_no_delta(self, capsys):
        code, out, _ = run_cli(["check", "--delta", "-1e3", "--zeta", "0.5", "--hyp", "H5"],
                               capsys)
        assert code == 0
        assert json.loads(out)["satisfied"] is True

    def test_output_is_deterministic(self, capsys):
        argv = ["check", "--delta", "2.5", "--zeta", "1.0", "--hyp", "H2,H3,H5"]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert first == second

    def test_module_entry_point(self):
        proc = run_cli_process(["check", "--delta", "3", "--zeta", "0.5", "--hyp", "H3"])
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["satisfied"] is True


class TestDiagCommand:
    def test_k2_integrable_summary_and_csv(self, tmp_path, capsys):
        out = tmp_path / "k2.csv"
        code, stdout, _ = run_cli(
            ["diag", "--kind", "k2", "--delta", "3", "--zeta", "0.5",
             "--out", str(out)], capsys)
        assert code == 0
        summary = json.loads(stdout)
        jsonschema.validate(summary, schema("diag_summary.schema.json"))
        assert summary["verdict"] == "integrable"
        lines = out.read_text().splitlines()
        assert lines[0] == "epsilon,partial_integral"
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert data.shape[1] == 2
        assert np.all(np.diff(data[:, 0]) < 0)

    def test_k2_divergent_reference_pair(self, tmp_path, capsys):
        code, stdout, _ = run_cli(
            ["diag", "--kind", "k2", "--delta", "2.017", "--zeta", "0.537",
             "--out", str(tmp_path / "k2.csv")], capsys)
        assert code == 0
        assert json.loads(stdout)["verdict"] == "divergent"

    def test_k2_same_arguments_same_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["diag", "--kind", "k2", "--delta", "2.4", "--zeta", "0.8"]
        assert run_cli(argv + ["--out", str(a)], capsys)[0] == 0
        assert run_cli(argv + ["--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_k1norm_summary_and_rows(self, tmp_path, capsys):
        out = tmp_path / "k1.csv"
        code, stdout, _ = run_cli(
            ["diag", "--kind", "k1norm", "--delta", "2", "--zeta", "0",
             "--grid", "4", "--out", str(out)], capsys)
        assert code == 0
        summary = json.loads(stdout)
        jsonschema.validate(summary, schema("diag_summary.schema.json"))
        assert summary["symmetry_defect"] == 0.0
        assert summary["n_nodes"] == 4 ** 3 * 4
        # at zeta=0 the operator is rank one, so the norm equals the
        # collision frequency of the constant kernel
        assert summary["hs_norm"] == pytest.approx(16.0 * np.pi / 15.0, rel=1e-10)
        lines = out.read_text().splitlines()
        assert lines[0] == "node_index,v,I,k1_row_norm"
        assert len(lines) == 1 + summary["n_nodes"]

    def test_unwritable_output_exits_3(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["diag", "--kind", "k2", "--delta", "3", "--zeta", "0.5",
             "--out", str(tmp_path / "absent" / "k2.csv")], capsys)
        assert code == 3
        assert err

    def test_seed_flag_is_gone(self, tmp_path, capsys):
        # no diagnostic draws at random, so there is no seed to take
        out = tmp_path / "k2.csv"
        code, stdout, err = run_cli(
            ["diag", "--kind", "k2", "--delta", "3", "--zeta", "0.5", "--seed", "1",
             "--out", str(out)], capsys)
        assert code == 2 and stdout == ""
        assert "unrecognized arguments: --seed 1" in err
        assert not out.exists()

    def test_missing_kind_exits_2(self, capsys):
        code, _, _ = run_cli(["diag", "--delta", "3", "--zeta", "0.5"], capsys)
        assert code == 2

    @pytest.mark.parametrize("delta", ["0", "-1"])
    def test_k1norm_nonpositive_delta_exits_2(self, tmp_path, capsys, delta):
        out = tmp_path / "k1.csv"
        code, stdout, err = run_cli(
            ["diag", "--kind", "k1norm", "--delta", delta, "--zeta", "0",
             "--out", str(out)], capsys)
        assert code == 2
        assert err == "error: --delta must be positive\n"
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("zeta", ["-1", "-1e3"])
    def test_k2_zeta_at_or_below_minus_one_names_the_flag(self, tmp_path, capsys, zeta):
        out = tmp_path / "k2.csv"
        code, stdout, err = run_cli(
            ["diag", "--kind", "k2", "--delta", "2", "--zeta", zeta, "--out", str(out)],
            capsys)
        assert code == 2 and stdout == ""
        assert err == "error: --zeta must exceed -1\n"
        assert not out.exists()

    def test_negative_exponent_notation_value(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["diag", "--kind", "k2", "--delta", "2"]
        split = run_cli([*argv, "--zeta", "-5e-1", "--out", str(a)], capsys)
        joined = run_cli([*argv, "--zeta=-5e-1", "--out", str(a)], capsys)
        assert split[0] == 0
        assert split == joined
        assert run_cli([*argv, "--zeta", "-0.5", "--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_k1norm_oversized_grid_exits_2(self, tmp_path, capsys):
        out = tmp_path / "k1.csv"
        code, _, err = run_cli(
            ["diag", "--kind", "k1norm", "--delta", "2", "--zeta", "0",
             "--grid", "100000", "--out", str(out)], capsys)
        assert code == 2
        assert err.startswith("error: --grid:")
        assert not out.exists()

    @pytest.mark.parametrize("kind, delta, zeta, fields", [
        ("k2", "2", "1e300", ("final_partial",)),
        ("k1norm", "2", "1e300", ("hs_norm", "symmetry_defect")),
        ("k1norm", "1e300", "0", ("hs_norm", "symmetry_defect")),
    ])
    def test_overflowing_summary_is_strict_json(self, tmp_path, kind, delta, zeta, fields):
        proc = run_cli_process(["diag", "--kind", kind, "--delta", delta, "--zeta", zeta,
                                "--out", str(tmp_path / "diag.csv")])
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        summary = strict_json(proc.stdout)
        jsonschema.validate(summary, schema("diag_summary.schema.json"))
        assert [summary[f] for f in fields] == [None] * len(fields)

    @pytest.mark.parametrize("zeta", ["300", "1e300"])
    def test_k2_overflow_keeps_a_cauchy_change(self, tmp_path, capsys, zeta):
        # the partials exceed the largest double, yet the last two are
        # compared through their logs
        code, out, _ = run_cli(["diag", "--kind", "k2", "--delta", "2", "--zeta", zeta,
                                "--out", str(tmp_path / "diag.csv")], capsys)
        assert code == 0
        summary = strict_json(out)
        assert summary["final_partial"] is None
        assert summary["cauchy_change"] == pytest.approx(1.0, abs=1e-6)
        assert summary["verdict"] == "divergent" and not summary["inconsistent"]


class TestRelaxCommand:
    def test_run_summary_and_series(self, tmp_path, capsys):
        cfg = write_relax_config(tmp_path / "run.json")
        out = tmp_path / "series.csv"
        code, stdout, _ = run_cli(
            ["relax", "--config", str(cfg), "--out", str(out)], capsys)
        assert code == 0
        summary = json.loads(stdout)
        jsonschema.validate(summary, schema("relax_summary.schema.json"))
        assert summary["seed"] == 12
        assert summary["energy_drift"] <= 1e-10
        assert summary["majorant_violations"] == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# seed=12"
        assert lines[1] == "t,T_kin,T_int,mean_I,H,collisions"

    @pytest.mark.parametrize("mass", [1e300, 1e-300, 1e-160, 1e306, 1e308])
    def test_extreme_masses_conserve_energy(self, tmp_path, capsys, mass):
        # the reduced mass's product m * m under- or overflows at these
        # masses; at zeta = 0 the mass leaves the temperatures unchanged, so
        # the run matches the mass-1 run
        summaries = []
        for m in (1.0, mass):
            cfg = write_relax_config(tmp_path / "run.json", n_particles=2000, t_end=0.5)
            doc = json.loads(cfg.read_text())
            doc["species"][0]["mass"] = m
            cfg.write_text(json.dumps(doc))
            code, stdout, _ = run_cli(["relax", "--config", str(cfg),
                                       "--out", str(tmp_path / "s.csv")], capsys)
            assert code == 0
            summaries.append(strict_json(stdout))
        unit, extreme = summaries
        assert extreme["energy_drift"] <= 1e-12
        assert extreme["T_kin_final"] == pytest.approx(unit["T_kin_final"], rel=1e-12, abs=0)

    @pytest.mark.parametrize("masses, u0, message", [
        # T / m overflows: the velocities are not even finite
        ([1e-308], None, "species[0].mass: 1e-308 is too small"),
        ([2.0, 1e-308], None, "species[1].mass: 1e-308 is too small"),
        # 2000 particles of mass 1e306 moving at 1 carry momentum 2e309
        ([1e306], [1.0, 0.0, 0.0], "relax.u0: bulk speed 1 overflows"),
    ])
    def test_masses_out_of_range_exit_2(self, tmp_path, capsys, masses, u0, message):
        cfg = write_relax_config(tmp_path / "run.json", n_particles=2000, t_end=0.5,
                                 **({"u0": u0} if u0 else {}))
        doc = json.loads(cfg.read_text())
        doc["species"] = [{"label": f"s{k}", "mass": m, "energy": {"kind": "continuous",
                                                                   "delta": 2.0}}
                          for k, m in enumerate(masses)]
        ker = doc["kernels"][0][0]
        doc["kernels"] = [[ker] * len(masses)] * len(masses)
        cfg.write_text(json.dumps(doc))
        code, stdout, err = run_cli(["relax", "--config", str(cfg),
                                     "--out", str(tmp_path / "s.csv")], capsys)
        assert code == 2 and stdout == ""
        assert err.startswith(f"error: {message}")
        assert not (tmp_path / "s.csv").exists()

    def test_fixed_seed_reruns_identical(self, tmp_path, capsys):
        cfg = write_relax_config(tmp_path / "run.json")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(["relax", "--config", str(cfg), "--out", str(a)], capsys)[0] == 0
        assert run_cli(["relax", "--config", str(cfg), "--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("mutate", [
        lambda rc: rc.pop("dt"),
        lambda rc: rc.update(dt="fast"),
        lambda rc: rc.update(bogus=1),
        lambda rc: rc.update(n_particles=1),
    ])
    def test_schema_violations_exit_2(self, tmp_path, capsys, mutate):
        cfg = write_relax_config(tmp_path / "run.json")
        doc = json.loads(cfg.read_text())
        mutate(doc["relax"])
        cfg.write_text(json.dumps(doc))
        code, _, err = run_cli(["relax", "--config", str(cfg)], capsys)
        assert code == 2
        assert err

    @pytest.mark.parametrize("path, mutate", [
        ("relax.n_particles", lambda doc: doc["relax"].update(n_particles=1)),
        ("relax", lambda doc: doc["relax"].update(bogus=1)),
        ("species[0].mass", lambda doc: doc["species"][0].update(mass=-1.0)),
        ("kernels[0][0].C", lambda doc: doc["kernels"][0][0].update(C="one")),
    ])
    def test_schema_error_names_its_path(self, tmp_path, capsys, path, mutate):
        cfg = write_relax_config(tmp_path / "run.json")
        doc = json.loads(cfg.read_text())
        mutate(doc)
        cfg.write_text(json.dumps(doc))
        code, _, err = run_cli(["relax", "--config", str(cfg)], capsys)
        assert code == 2
        assert err.startswith(f"error: {path}: ")

    def test_kernel_spellings_run_as_one_kernel(self, tmp_path, capsys):
        # a binary mixture whose cross kernel is spelled power_law_e in
        # kernels[0][1] and psi_weighted in kernels[1][0] runs as the table
        # spelled power_law_e throughout, to the byte
        cfg = write_relax_config(tmp_path / "run.json")
        doc = json.loads(cfg.read_text())
        doc["species"].append({"label": "b", "mass": 2.0,
                               "energy": {"kind": "continuous", "delta": 3.0}})
        ker = {"kind": "power_law_e", "C": 1.0, "zeta": 0.5}
        doc["kernels"] = [[ker, ker], [ker, ker]]
        out = tmp_path / "s.csv"
        runs = []
        for kind in ("power_law_e", "psi_weighted"):
            doc["kernels"][1][0] = {**ker, "kind": kind}
            cfg.write_text(json.dumps(doc))
            code, stdout, err = run_cli(["relax", "--config", str(cfg), "--out", str(out)],
                                        capsys)
            assert code == 0, err
            runs.append((stdout, out.read_bytes()))
        assert runs[0] == runs[1]

    def test_kernel_table_size_mismatch_exits_2(self, tmp_path, capsys):
        cfg = write_relax_config(tmp_path / "run.json")
        doc = json.loads(cfg.read_text())
        doc["species"].append({"label": "mono", "mass": 2.0,
                               "energy": {"kind": "monatomic"}})
        cfg.write_text(json.dumps(doc))
        code, _, err = run_cli(["relax", "--config", str(cfg),
                                "--out", str(tmp_path / "s.csv")], capsys)
        assert code == 2
        assert "kernels" in err
        assert "Traceback" not in err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("zeta2", [0.5, 5.0])
    def test_resonant_kernel_is_named(self, tmp_path, capsys, zeta2):
        # inside H4 (zeta2 = 0.5) or outside it, the simulator refuses the
        # kernel and names it
        cfg = write_relax_config(tmp_path / "run.json")
        doc = json.loads(cfg.read_text())
        doc["kernels"][0][0] = {"kind": "resonant_tensored", "C": 1.0, "zeta": 0.5,
                                "zeta1": 0.25, "zeta2": zeta2}
        cfg.write_text(json.dumps(doc))
        code, _, err = run_cli(["relax", "--config", str(cfg),
                                "--out", str(tmp_path / "s.csv")], capsys)
        assert code == 2
        assert err == ("error: kernels[0][0]: the relaxation simulator supports "
                       "energy-power kernels only\n")
        assert not (tmp_path / "s.csv").exists()

    def test_uncoupled_species_pair_names_its_kernel(self, tmp_path, capsys):
        # schema-valid, but no collision rule couples a continuous species
        # with a discrete one
        cfg = write_relax_config(tmp_path / "run.json")
        doc = json.loads(cfg.read_text())
        doc["species"].append({"label": "levels", "mass": 2.0, "energy": {
            "kind": "discrete", "levels": [[0.0, 1.0], [0.5, 3.0]]}})
        ker = doc["kernels"][0][0]
        doc["kernels"] = [[ker, ker], [ker, ker]]
        cfg.write_text(json.dumps(doc))
        code, _, err = run_cli(["relax", "--config", str(cfg),
                                "--out", str(tmp_path / "s.csv")], capsys)
        assert code == 2
        assert err == ("error: kernels[0][1]: no collision rule couples species 0 "
                       "(continuous) and 1 (discrete)\n")
        assert not (tmp_path / "s.csv").exists()

    def test_missing_delta_names_its_path(self, tmp_path, capsys):
        cfg = write_relax_config(tmp_path / "run.json")
        doc = json.loads(cfg.read_text())
        del doc["species"][0]["energy"]["delta"]
        cfg.write_text(json.dumps(doc))
        code, _, err = run_cli(["relax", "--config", str(cfg)], capsys)
        assert code == 2
        assert "species[0].energy.delta" in err

    @pytest.mark.parametrize("field, value", [("t_end", 1e300), ("dt", 1e-300)])
    def test_unbounded_step_count_exits_2(self, tmp_path, capsys, monkeypatch, field, value):
        # the check runs before the simulation starts
        monkeypatch.setattr(cli.relax, "run", None)
        cfg = write_relax_config(tmp_path / "run.json", **{field: value})
        code, _, err = run_cli(["relax", "--config", str(cfg),
                                "--out", str(tmp_path / "s.csv")], capsys)
        assert code == 2
        assert f"relax.{field}" in err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("b_maj", [1e12, 1e300, 1e308])
    def test_unbounded_majorant_exits_2(self, tmp_path, capsys, b_maj):
        cfg = write_relax_config(tmp_path / "run.json", n_particles=2000, dt=0.01,
                                 b_maj=b_maj)
        code, _, err = run_cli(["relax", "--config", str(cfg),
                                "--out", str(tmp_path / "s.csv")], capsys)
        assert code == 2
        assert err.startswith("error: relax.b_maj:")
        assert "Traceback" not in err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("levels", [[[0.0, 1.0], [10.0, 1.0]], [[0.0, 1.0]]])
    def test_cold_discrete_gas_exits_0(self, tmp_path, capsys, levels):
        cfg = write_relax_config(tmp_path / "run.json", n_particles=300, T_int0=0.1,
                                 t_end=0.2)
        doc = json.loads(cfg.read_text())
        doc["species"][0]["energy"] = {"kind": "discrete", "levels": levels}
        cfg.write_text(json.dumps(doc))
        code, stdout, err = run_cli(["relax", "--config", str(cfg),
                                     "--out", str(tmp_path / "s.csv")], capsys)
        assert code == 0, err
        jsonschema.validate(json.loads(stdout), schema("relax_summary.schema.json"))

    @pytest.mark.parametrize("levels, relax", [
        ([[0.1, 2.0], [1.1, 3.0]], {}),
        ([[1000.0, 2.0], [1001.1, 3.0]], {}),
        # the mean of 1048 copies of 0.1 rounds below 0.1
        ([[0.1, 1.0], [1.1, 1.0]], {"T_int0": 0.01, "n_particles": 1048}),
    ])
    def test_raised_ground_level_runs(self, tmp_path, levels, relax):
        # every g exp(-E/T) underflows at the cold end of the temperature solves
        cfg = write_relax_config(tmp_path / "run.json", t_end=0.1, **relax)
        doc = json.loads(cfg.read_text())
        doc["species"][0]["energy"] = {"kind": "discrete", "levels": levels}
        cfg.write_text(json.dumps(doc))
        proc = run_cli_process(["relax", "--config", str(cfg), "--out", str(tmp_path / "s.csv")])
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert math.isfinite(json.loads(proc.stdout)["T_int_final"])

    @pytest.mark.parametrize("zeta", [1e300, -1e300])
    def test_failing_run_prints_one_error_line(self, tmp_path, zeta):
        # E ** (zeta / 2) overflows in the majorant probe
        cfg = write_relax_config(tmp_path / "run.json", n_particles=2000, dt=0.01)
        doc = json.loads(cfg.read_text())
        doc["kernels"][0][0]["zeta"] = zeta
        cfg.write_text(json.dumps(doc))
        proc = run_cli_process(["relax", "--config", str(cfg), "--out", str(tmp_path / "s.csv")])
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: kernels[0][0]: sampled majorant")

    @pytest.mark.parametrize("path, set_value", [
        ("relax.T_kin0", lambda doc: doc["relax"].update(T_kin0=float("nan"))),
        ("relax.T_int0", lambda doc: doc["relax"].update(T_int0=float("inf"))),
        ("relax.u0[0]", lambda doc: doc["relax"].update(u0=[float("nan"), 0.0, 0.0])),
        ("relax.dt", lambda doc: doc["relax"].update(dt=float("nan"))),
        ("relax.t_end", lambda doc: doc["relax"].update(t_end=float("inf"))),
        ("relax.violation_tol", lambda doc: doc["relax"].update(violation_tol=float("nan"))),
        ("species[0].mass", lambda doc: doc["species"][0].update(mass=float("inf"))),
        ("species[0].energy.delta",
         lambda doc: doc["species"][0]["energy"].update(delta=float("nan"))),
        ("kernels[0][0].C", lambda doc: doc["kernels"][0][0].update(C=float("inf"))),
        ("kernels[0][0].zeta", lambda doc: doc["kernels"][0][0].update(zeta=float("nan"))),
    ])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, path, set_value):
        # json reads NaN and Infinity, and the schema's bounds let them through
        cfg = write_relax_config(tmp_path / "run.json")
        doc = json.loads(cfg.read_text())
        set_value(doc)
        cfg.write_text(json.dumps(doc))
        code, _, err = run_cli(["relax", "--config", str(cfg),
                                "--out", str(tmp_path / "s.csv")], capsys)
        assert code == 2
        assert err.startswith(f"error: {path}: ")
        assert not (tmp_path / "s.csv").exists()

    def test_particle_count_bound_exits_2(self, tmp_path, capsys):
        # checked before the ensemble's 48 TB of state are allocated
        cfg = write_relax_config(tmp_path / "run.json", n_particles=10**12)
        code, _, err = run_cli(["relax", "--config", str(cfg),
                                "--out", str(tmp_path / "s.csv")], capsys)
        assert code == 2
        assert err.startswith("error: relax.n_particles:")
        assert not (tmp_path / "s.csv").exists()

    def test_integral_float_counts_run(self, tmp_path, capsys):
        # the schema accepts 500.0 as an integer
        cfg = write_relax_config(tmp_path / "run.json", n_particles=500.0, seed=3.0,
                                 cadence=2.0, t_end=0.1)
        code, stdout, err = run_cli(["relax", "--config", str(cfg),
                                     "--out", str(tmp_path / "s.csv")], capsys)
        assert code == 0, err
        assert json.loads(stdout)["seed"] == 3

    @pytest.mark.parametrize("key", ["C", "zeta"])
    def test_sampled_majorant_fault_names_the_kernel(self, tmp_path, capsys, key):
        # at zeta = 0 the majorant is C times the pair weight, exactly
        source = {"C": "exact", "zeta": "sampled"}[key]
        cfg = write_relax_config(tmp_path / "run.json", n_particles=2000, dt=0.01)
        doc = json.loads(cfg.read_text())
        doc["kernels"][0][0][key] = 1e300
        cfg.write_text(json.dumps(doc))
        code, _, err = run_cli(["relax", "--config", str(cfg),
                                "--out", str(tmp_path / "s.csv")], capsys)
        assert code == 2
        assert err.startswith(f"error: kernels[0][0]: {source} majorant ")
        assert "b_maj" not in err

    def test_missing_config_exits_3(self, capsys):
        code, _, _ = run_cli(["relax", "--config", "no_such_config.json"], capsys)
        assert code == 3

    def test_majorant_abort_exits_4(self, tmp_path, capsys):
        cfg = write_relax_config(tmp_path / "run.json", b_maj=0.5)
        code, _, err = run_cli(
            ["relax", "--config", str(cfg), "--out", str(tmp_path / "s.csv")],
            capsys)
        assert code == 4
        diag = json.loads(err)
        assert diag["violation_fraction"] > 0

    def test_bulk_velocity_override(self, tmp_path, capsys):
        cfg = write_relax_config(tmp_path / "run.json", u0=[0.5, 0.0, 0.0],
                                 t_end=0.1)
        code, stdout, _ = run_cli(
            ["relax", "--config", str(cfg), "--out", str(tmp_path / "s.csv")],
            capsys)
        assert code == 0
        assert json.loads(stdout)["energy_drift"] <= 1e-10


class TestColdStart:
    """Each command, run in a fresh interpreter, loads only the modules it
    uses: scipy only where a scipy routine runs, and the subcommand modules
    only for their subcommands."""

    DEFERRED = ("scipy", "polykin.operator", "polykin.fitlab", "polykin.hypotheses")

    def loaded_after(self, argv, deferred):
        """Exit code of ``polykin.cli.main(argv)`` in a fresh interpreter, with
        the modules of ``deferred`` loaded after the import and after the run."""
        proc = run_python("-c", f"""
import contextlib, io, json, sys
import polykin.cli
deferred = {deferred!r}
after_import = [m for m in deferred if m in sys.modules]
with contextlib.redirect_stdout(io.StringIO()):
    code = polykin.cli.main({argv!r})
print(json.dumps([after_import, code, [m for m in deferred if m in sys.modules]]))
""")
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    @pytest.mark.parametrize("species", [
        [{"label": "gas", "mass": 1.0, "energy": {"kind": "continuous", "delta": 2.0}}],
        [{"label": "a", "mass": 1.0, "energy": {"kind": "continuous", "delta": 2.5}},
         {"label": "b", "mass": 2.0, "energy": {"kind": "monatomic"}}],
        [{"label": "gas", "mass": 1.0, "energy": {"kind": "monatomic"}}],
    ], ids=["continuous", "poly-mono", "monatomic"])
    def test_relax_loads_no_deferred_module(self, tmp_path, species):
        # 20 steps; only discrete levels need a root solve
        cfg = write_relax_config(tmp_path / "run.json", n_particles=2000, t_end=0.4)
        doc = json.loads(cfg.read_text())
        kernel = doc["kernels"][0][0]
        doc.update(species=species, kernels=[[kernel] * len(species)] * len(species))
        cfg.write_text(json.dumps(doc))
        argv = ["relax", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]
        assert self.loaded_after(argv, self.DEFERRED) == [[], 0, []]

    @pytest.mark.parametrize("argv", [
        ["check", "--delta", "3", "--zeta", "0.5", "--hyp", "H1,H2,H3,H4,H5,H6,H7"],
        ["diag", "--kind", "k2", "--delta", "3", "--zeta", "0.5", "--out"],
        ["table1", "--out"],
        ["fit", "--out"],
    ], ids=["check", "diag-k2", "table1", "fit"])
    def test_commands_load_no_scipy(self, tmp_path, argv):
        if argv[-1] == "--out":
            argv = [*argv, str(tmp_path / "out.csv")]
        if argv[0] == "fit":
            argv += ["--manifest", str(write_manifest(
                tmp_path, [(300, 2.5), (400, 2.51), (600, 2.52)], TestOnePath.MU))]
        assert self.loaded_after(argv, ("scipy",)) == [[], 0, []]

    def test_operator_import_loads_no_scipy(self):
        proc = run_python("-c", "import sys, polykin.operator; "
                                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_scipy_commands_load_it_when_they_run(self, tmp_path):
        k1norm = ["diag", "--kind", "k1norm", "--delta", "3", "--zeta", "0.5", "--grid", "4",
                  "--out", str(tmp_path / "k1.csv")]
        assert self.loaded_after(k1norm, ("scipy",)) == [[], 0, ["scipy"]]
        # a mean internal energy between the levels' bounds takes a root solve
        cfg = write_relax_config(tmp_path / "run.json", n_particles=2000, t_end=0.2)
        doc = json.loads(cfg.read_text())
        doc["species"][0]["energy"] = {"kind": "discrete",
                                       "levels": [[0.0, 1.0], [0.7, 2.0], [1.8, 1.0]]}
        cfg.write_text(json.dumps(doc))
        relax_levels = ["relax", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]
        assert self.loaded_after(relax_levels, ("scipy",)) == [[], 0, ["scipy"]]

    def test_threaded_estimate_loads_no_scipy(self):
        # four chunks on two threads: the continuous estimator's draws and
        # densities need no scipy routine, and the estimate matches a serial
        # rerun bit for bit
        proc = run_python("-c", """
import json, sys
import numpy as np
from polykin.collide import ParticleState
from polykin.equilib import EquilibriumParams, Maxwellian
from polykin.model import ContinuousEnergy, PowerLawE, single_species
from polykin.operator import QuadratureConfig, collision_frequency, mc

mc._CHUNK_SIZE = 1000
spec = single_species(ContinuousEnergy(delta=2.5), PowerLawE(C=1.0, zeta=0.6))
M = Maxwellian(spec, EquilibriumParams(n=(1.0,), u=np.zeros(3), T_kin=1.0, T_int=1.0))
w = ParticleState(v=np.array([0.4, -0.1, 0.2]), I=0.9)
est = [collision_frequency(w, M, None, QuadratureConfig(n_samples=4000, seed=3, threads=t))
       for t in (2, 1)]
print(json.dumps([[(e.value.hex(), e.stderr.hex(), e.n_samples) for e in est],
                  sorted(m for m in sys.modules if m.startswith("scipy"))]))
""")
        assert proc.returncode == 0, proc.stderr
        (threaded, serial), scipy_modules = json.loads(proc.stdout)
        assert threaded == serial and threaded[2] == 4000
        assert scipy_modules == []


class TestFitAndTable1:
    def _manifest(self, tmp_path, gas="N2", pressure=1.0, entry=None):
        entry = entry or TABLE1[0]
        ds = fitlab.synthetic_dataset(entry)
        with open(tmp_path / "cv.csv", "w") as fh:
            fh.write("T,c_hat_v\n")
            for t, c in zip(ds.cv.T, ds.cv.c_hat_v):
                fh.write(f"{t:.17g},{c:.17g}\n")
        with open(tmp_path / "mu.csv", "w") as fh:
            fh.write("T,mu\n")
            for t, m in zip(ds.mu.T, ds.mu.mu):
                fh.write(f"{t:.17g},{m:.17g}\n")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"datasets": [
            {"gas": gas, "pressure_bar": pressure, "cv": "cv.csv", "mu": "mu.csv"}
        ]}))
        return manifest

    def test_table1_report(self, tmp_path, capsys):
        out = tmp_path / "table1.csv"
        code, stdout, _ = run_cli(["table1", "--out", str(out)], capsys)
        assert code == 0
        summary = json.loads(stdout)
        jsonschema.validate(summary, schema("fit_summary.schema.json"))
        assert summary["rows"] == 8
        assert summary["max_abs_delta_gap"] < 1e-12
        assert summary["max_abs_zeta_gap"] < 1e-12
        lines = out.read_text().splitlines()
        assert len(lines) == 9
        assert lines[0].startswith("gas,pressure_bar,")

    def test_fit_from_manifest(self, tmp_path, capsys):
        manifest = self._manifest(tmp_path)
        code, stdout, _ = run_cli(
            ["fit", "--manifest", str(manifest), "--out", str(tmp_path / "r.csv")],
            capsys)
        assert code == 0
        summary = json.loads(stdout)
        assert summary["rows"] == 1
        assert summary["max_abs_delta_gap"] < 1e-12

    def test_malformed_manifest_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "m.json"
        bad.write_text("{broken")
        assert run_cli(["fit", "--manifest", str(bad)], capsys)[0] == 2
        bad.write_text(json.dumps({"datasets": "nope"}))
        assert run_cli(["fit", "--manifest", str(bad)], capsys)[0] == 2

    def test_schema_error_names_its_path(self, tmp_path, capsys):
        manifest = self._manifest(tmp_path, pressure=-1.0)
        code, _, err = run_cli(["fit", "--manifest", str(manifest)], capsys)
        assert code == 2
        assert err.startswith("error: datasets[0].pressure_bar: ")

    def test_missing_data_file_exits_3(self, tmp_path, capsys):
        manifest = self._manifest(tmp_path)
        (tmp_path / "cv.csv").unlink()
        assert run_cli(["fit", "--manifest", str(manifest)], capsys)[0] == 3

    def test_unmatched_gas_exits_2(self, tmp_path, capsys):
        manifest = self._manifest(tmp_path, gas="Xe", pressure=2.0)
        code, _, err = run_cli(["fit", "--manifest", str(manifest)], capsys)
        assert code == 2
        assert "Xe" in err


GLIBC = platform.libc_ver()[0] == "glibc"


class TestAllocatorPolicy:
    """``main`` pins glibc's mmap and trim thresholds once per process, so a
    run does not hand its heap top back to the kernel after every recorded
    relax row; without a mallopt it runs as before."""

    CHECK = ["check", "--hyp", "H1", "--delta", "2", "--zeta", "0"]

    @pytest.fixture(autouse=True)
    def fresh_process(self):
        # the pinned thresholds stay; only the once-per-process cache resets
        cli._pin_malloc_thresholds.cache_clear()
        yield
        cli._pin_malloc_thresholds.cache_clear()

    def test_main_pins_both_thresholds_once(self, monkeypatch, capsys):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
        assert [run_cli(self.CHECK, capsys)[0] for _ in range(2)] == [0, 0]
        assert calls == [(-3, 32 << 20), (-1, 64 << 20)]

    @pytest.mark.parametrize("libc", ["raises", "no-mallopt"])
    def test_main_runs_without_mallopt(self, monkeypatch, capsys, libc):
        expected = run_cli(self.CHECK, capsys)
        cli._pin_malloc_thresholds.cache_clear()

        def no_libc(name):
            raise OSError("no C library")

        monkeypatch.setattr(ctypes, "CDLL", {
            "raises": no_libc, "no-mallopt": lambda name: SimpleNamespace()}[libc])
        assert run_cli(self.CHECK, capsys) == expected
        assert expected[0] == 0 and cli._pin_malloc_thresholds() is None

    @pytest.mark.skipif(not GLIBC, reason="mallopt is glibc's")
    def test_glibc_accepts_both_thresholds(self):
        assert cli._pin_malloc_thresholds() == (1, 1)

    @pytest.mark.skipif(not GLIBC, reason="the thresholds are glibc's")
    def test_recorded_rows_fault_no_heap_back_in(self, tmp_path):
        # 5e4 particles, 20 steps, a row every 10: the repeat run reuses the
        # first run's heap, where glibc's sliding thresholds would return
        # about 2.5 MB to the kernel after every row (about 3k faults)
        cfg = write_relax_config(tmp_path / "run.json", n_particles=50_000, dt=0.01,
                                 t_end=0.2, cadence=10)
        argv = ["relax", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]
        proc = run_python("-c", f"""
import contextlib, io, json, resource
from polykin import cli
codes = []
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main({argv!r}))
print(json.dumps([codes, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before]))
""")
        assert proc.returncode == 0, proc.stderr
        codes, faults = json.loads(proc.stdout)
        assert codes == [0, 0]
        assert faults < 500
