"""Tests for parameter extraction from specific-heat and viscosity tables."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polykin import fitlab
from polykin.hypotheses import TABLE1


def cv_series(values, t_lo=300.0, t_hi=600.0, **kw):
    values = np.asarray(values, dtype=float)
    return fitlab.CvSeries(T=np.linspace(t_lo, t_hi, values.size), c_hat_v=values, **kw)


def power_law_mu(exponent, t_lo=300.0, t_hi=600.0, n=12, scale=1.0, t_ref=None):
    T = np.linspace(t_lo, t_hi, n)
    t_ref = t_lo if t_ref is None else t_ref
    return fitlab.ViscositySeries(T=T, mu=scale * (T / t_ref) ** exponent)


class TestSeriesValidation:
    def test_temperatures_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            fitlab.CvSeries(T=np.array([300.0, 300.0]), c_hat_v=np.array([2.5, 2.5]))
        with pytest.raises(ValueError, match="increasing"):
            fitlab.ViscositySeries(T=np.array([400.0, 300.0]), mu=np.array([1.0, 1.0]))

    def test_values_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            fitlab.CvSeries(T=np.array([300.0, 400.0]), c_hat_v=np.array([2.5, -0.1]))
        with pytest.raises(ValueError, match="positive"):
            fitlab.ViscositySeries(T=np.array([-1.0, 400.0]), mu=np.array([1.0, 1.0]))

    def test_empty_and_misaligned(self):
        with pytest.raises(ValueError):
            fitlab.CvSeries(T=np.array([]), c_hat_v=np.array([]))
        with pytest.raises(ValueError):
            fitlab.ViscositySeries(T=np.array([300.0, 400.0]), mu=np.array([1.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_values_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="^T and c_hat_v must be finite$"):
            fitlab.CvSeries(T=np.array([300.0, 400.0]), c_hat_v=np.array([2.5, bad]))
        with pytest.raises(ValueError, match="^T and mu must be finite$"):
            fitlab.ViscositySeries(T=np.array([300.0, bad]), mu=np.array([1.0, 1.2]))

    def test_interval_and_reference_point(self):
        series = power_law_mu(0.7, t_lo=250.0, t_hi=900.0, scale=1.8e-5)
        assert series.interval == (250.0, 900.0)
        t0, mu0 = series.reference_point
        assert t0 == 250.0
        assert mu0 == pytest.approx(1.8e-5)


class TestFitDelta:
    def test_reference_constant_specific_heat(self):
        result = fitlab.fit_delta(cv_series(np.full(12, 2.5085)))
        assert abs(result.value - 2.017) < 1e-12
        assert result.polytropic is True
        assert result.max_rel_change == 0.0
        assert result.residual <= 1e-14
        assert result.warnings == ()

    def test_monatomic_boundary_warns(self):
        result = fitlab.fit_delta(cv_series([1.5, 1.5, 1.5]))
        assert result.value == 0.0
        assert any("monatomic" in w for w in result.warnings)

    def test_below_boundary_also_warns(self):
        result = fitlab.fit_delta(cv_series([1.2, 1.2]))
        assert result.value < 0.0
        assert result.warnings

    def test_six_percent_spread_not_polytropic(self):
        values = np.array([2.44, 2.47, 2.50, 2.53, 2.59148])
        result = fitlab.fit_delta(cv_series(values))
        assert result.max_rel_change > 0.05
        assert result.polytropic is False
        # the point estimate is still the interval mean
        assert result.value == pytest.approx(2.0 * values.mean() - 3.0, rel=1e-14)

    def test_small_spread_is_polytropic(self):
        values = 2.5 + 0.04 * np.linspace(0.0, 1.0, 9)
        result = fitlab.fit_delta(cv_series(values))
        assert result.max_rel_change < 0.05
        assert result.polytropic is True
        assert result.residual > 0.0
        assert result.half_width > 0.0

    def test_single_row_rejected(self):
        series = fitlab.CvSeries(T=np.array([300.0]), c_hat_v=np.array([2.5]))
        with pytest.raises(ValueError):
            fitlab.fit_delta(series)


class TestFitZeta:
    def test_reference_exponent(self):
        result = fitlab.fit_zeta(power_law_mu(0.7315))
        assert abs(result.value - 0.537) < 1e-12
        assert result.residual <= 1e-12

    def test_hard_sphere_limit(self):
        assert abs(fitlab.fit_zeta(power_law_mu(0.5)).value - 1.0) < 1e-10

    def test_maxwell_molecule_limit(self):
        assert abs(fitlab.fit_zeta(power_law_mu(1.0)).value) < 1e-10

    def test_rescaling_invariance(self):
        base = fitlab.fit_zeta(power_law_mu(0.7315)).value
        T = np.linspace(300.0, 600.0, 12)
        scaled = fitlab.ViscositySeries(T=7.3 * T, mu=0.0031 * (T / 300.0) ** 0.7315)
        assert abs(fitlab.fit_zeta(scaled).value - base) < 1e-12

    def test_two_rows_fit_exactly(self):
        series = fitlab.ViscositySeries(T=np.array([300.0, 600.0]),
                                        mu=np.array([1.0, 2.0 ** 0.62]))
        result = fitlab.fit_zeta(series)
        assert result.value == pytest.approx(2.0 * (1.0 - 0.62), abs=1e-12)
        assert result.half_width == 0.0

    def test_noisy_series_reports_uncertainty(self):
        rng = np.random.default_rng(0)
        T = np.linspace(300.0, 600.0, 40)
        mu = (T / 300.0) ** 0.73 * np.exp(0.01 * rng.standard_normal(40))
        result = fitlab.fit_zeta(fitlab.ViscositySeries(T=T, mu=mu))
        assert result.half_width > 0.0
        assert result.residual > 0.0
        assert abs(result.value - 2.0 * (1.0 - 0.73)) < 5.0 * result.half_width

    def test_short_series_rejected(self):
        series = fitlab.ViscositySeries(T=np.array([300.0]), mu=np.array([1.0]))
        with pytest.raises(ValueError):
            fitlab.fit_zeta(series)

    @given(
        exponent=st.floats(min_value=-1.0, max_value=2.0),
        t_lo=st.floats(min_value=10.0, max_value=500.0),
        span=st.floats(min_value=1.5, max_value=10.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_power_laws_recovered_exactly(self, exponent, t_lo, span):
        series = power_law_mu(exponent, t_lo=t_lo, t_hi=span * t_lo)
        assert fitlab.fit_zeta(series).value == pytest.approx(
            2.0 * (1.0 - exponent), abs=1e-10
        )


class TestTableReproduction:
    def test_synthetic_dataset_round_trips_reference(self):
        entry = TABLE1[0]
        ds = fitlab.synthetic_dataset(entry)
        assert ds.gas == entry.gas
        assert fitlab.fit_delta(ds.cv).value == pytest.approx(entry.delta, abs=1e-12)
        assert fitlab.fit_zeta(ds.mu).value == pytest.approx(entry.zeta, abs=1e-12)
        assert ds.cv.interval == entry.t_interval

    def test_reproduce_all_rows(self):
        rows = fitlab.reproduce_table1()
        assert len(rows) == 8
        for row in rows:
            assert abs(row.delta_gap) < 1e-12
            assert abs(row.zeta_gap) < 1e-12

    def test_oxygen_chapman_cowling_gap(self):
        rows = {(r.gas, r.pressure_bar): r for r in fitlab.reproduce_table1()}
        gap = rows[("O2", 1.0)].zeta_chapman_gap
        assert gap == pytest.approx(0.443 - 0.454, abs=1e-9)

    def test_hydrogen_low_pressure_values(self):
        rows = {(r.gas, r.pressure_bar): r for r in fitlab.reproduce_table1()}
        row = rows[("H2", 0.092)]
        assert row.delta_fit == pytest.approx(1.939, abs=1e-12)
        assert row.zeta_fit == pytest.approx(0.608, abs=1e-12)

    def test_unknown_gas_pressure_rejected(self):
        ds = fitlab.synthetic_dataset(TABLE1[0])
        stray = fitlab.GasDataset(gas="Ar", pressure_bar=1.0, cv=ds.cv, mu=ds.mu)
        with pytest.raises(KeyError):
            fitlab.reproduce_table1([stray])

    def test_supplied_dataset_uses_reference_lookup(self):
        ds = fitlab.synthetic_dataset(TABLE1[3])
        bare = fitlab.GasDataset(gas=ds.gas, pressure_bar=ds.pressure_bar,
                                 cv=ds.cv, mu=ds.mu)
        (row,) = fitlab.reproduce_table1([bare])
        assert row.zeta_ref == TABLE1[3].zeta


class TestInputOutput:
    def _write_dataset(self, tmp_path, entry):
        ds = fitlab.synthetic_dataset(entry)
        cv_path = tmp_path / "cv.csv"
        mu_path = tmp_path / "mu.csv"
        with open(cv_path, "w") as fh:
            fh.write("# units=K\nT,c_hat_v\n")
            for t, c in zip(ds.cv.T, ds.cv.c_hat_v):
                fh.write(f"{t:.17g},{c:.17g}\n")
        with open(mu_path, "w") as fh:
            fh.write("T,mu\n")
            for t, m in zip(ds.mu.T, ds.mu.mu):
                fh.write(f"{t:.17g},{m:.17g}\n")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "datasets": [{"gas": entry.gas, "pressure_bar": entry.pressure_bar,
                          "cv": "cv.csv", "mu": "mu.csv"}]
        }))
        return manifest

    def test_manifest_round_trip(self, tmp_path):
        entry = TABLE1[2]
        manifest = self._write_dataset(tmp_path, entry)
        datasets = fitlab.load_manifest(manifest)
        assert len(datasets) == 1
        (row,) = fitlab.reproduce_table1(datasets)
        assert row.gas == entry.gas
        assert abs(row.delta_gap) < 1e-12
        assert abs(row.zeta_gap) < 1e-12

    def test_report_csv_layout(self, tmp_path):
        rows = fitlab.reproduce_table1()
        out = tmp_path / "report.csv"
        fitlab.report_to_csv(rows, out)
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(fitlab.REPORT_COLUMNS)
        assert len(lines) == 9
        first = lines[1].split(",")
        assert first[0] == "N2"
        assert float(first[4]) == pytest.approx(2.017, abs=1e-9)

    def test_wrong_header_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("temp,cv\n300,2.5\n400,2.5\n")
        with pytest.raises(ValueError, match="header"):
            fitlab.read_cv_csv(bad)

    def test_malformed_rows_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("T,mu\n300,abc\n")
        with pytest.raises(ValueError, match="malformed"):
            fitlab.read_viscosity_csv(bad)

    @pytest.mark.parametrize("token", ["nan", "inf", "-Infinity"])
    def test_non_finite_rows_rejected(self, tmp_path, token):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"T,mu\n300,1.0\n# note\n 400,{token}\n500,1.4\n")
        with pytest.raises(ValueError) as err:
            fitlab.read_viscosity_csv(bad)
        assert str(err.value) == f"{bad}: non-finite numeric row '400,{token}'"

    def test_manifest_errors(self, tmp_path):
        not_json = tmp_path / "m.json"
        not_json.write_text("{nope")
        with pytest.raises(ValueError, match="JSON"):
            fitlab.load_manifest(not_json)
        missing_keys = tmp_path / "m2.json"
        missing_keys.write_text(json.dumps({"datasets": [{"gas": "N2"}]}))
        with pytest.raises(ValueError, match="lacks keys"):
            fitlab.load_manifest(missing_keys)
        missing_file = tmp_path / "m3.json"
        missing_file.write_text(json.dumps({
            "datasets": [{"gas": "N2", "pressure_bar": 1.0,
                          "cv": "nope.csv", "mu": "nope.csv"}]
        }))
        with pytest.raises(OSError):
            fitlab.load_manifest(missing_file)
        top_level_list = tmp_path / "m4.json"
        top_level_list.write_text(json.dumps([{"datasets": []}]))
        with pytest.raises(ValueError, match="'datasets' list"):
            fitlab.load_manifest(top_level_list)

    @pytest.mark.parametrize("field, value, message", [
        ("pressure_bar", True, "datasets[0].pressure_bar: True is not a number"),
        ("pressure_bar", "1", "datasets[0].pressure_bar: '1' is not a number"),
        ("gas", 7, "datasets[0].gas: 7 is not a string"),
        ("cv", 5, "datasets[0].cv: 5 is not a string"),
        ("mu", ["mu.csv"], "datasets[0].mu: ['mu.csv'] is not a string"),
        ("pressure_bar", 10**400, "datasets[0].pressure_bar: integer too large for a float"),
    ])
    def test_manifest_fields_name_their_path(self, tmp_path, field, value, message):
        # the data files are never read: the entry is rejected first
        manifest = tmp_path / "m.json"
        entry = {"gas": "N2", "pressure_bar": 1.0, "cv": "cv.csv", "mu": "mu.csv"}
        manifest.write_text(json.dumps({"datasets": [dict(entry, **{field: value})]}))
        with pytest.raises(ValueError) as err:
            fitlab.load_manifest(manifest)
        assert str(err.value) == f"{manifest}: {message}"
