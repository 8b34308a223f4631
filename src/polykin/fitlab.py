"""Extraction of the shape parameter delta and the growth exponent zeta
from tabulated gas data.

For a polytropic gas the dimensionless specific heat fixes the number of
internal degrees of freedom, delta = 2*c_hat_v - 3.  The growth exponent
follows from the viscosity's temperature power law mu ~ T^s through
zeta = 2*(1 - s): hard spheres (s = 1/2) map to zeta = 1 and Maxwell
molecules (s = 1) to zeta = 0.

`reproduce_table1` re-derives the reference gas table from bundled
synthetic power-law datasets; measured data can be substituted through the
same CSV/manifest formats.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .hypotheses import TABLE1, TableEntry
from .model import _number

__all__ = [
    "CvSeries",
    "FitResult",
    "GasDataset",
    "REPORT_COLUMNS",
    "Table1Row",
    "ViscositySeries",
    "fit_delta",
    "fit_zeta",
    "load_manifest",
    "read_cv_csv",
    "read_viscosity_csv",
    "report_to_csv",
    "reproduce_table1",
    "synthetic_dataset",
]

# a gas counts as polytropic when c_hat_v moves less than this across the
# temperature interval
POLYTROPIC_SPREAD = 0.05
# sample points of each synthetic dataset
_SYNTHETIC_POINTS = 16


def _validate_series(T: np.ndarray, values: np.ndarray, value_name: str) -> None:
    if T.ndim != 1 or values.shape != T.shape:
        raise ValueError("series columns must be one-dimensional and aligned")
    if T.size == 0:
        raise ValueError("series is empty")
    if not (np.all(np.isfinite(T)) and np.all(np.isfinite(values))):
        raise ValueError(f"T and {value_name} must be finite")
    if np.any(np.diff(T) <= 0):
        raise ValueError("temperatures must be strictly increasing")
    if np.any(T <= 0) or np.any(values <= 0):
        raise ValueError(f"T and {value_name} must be positive")


@dataclass(frozen=True)
class CvSeries:
    """Dimensionless specific heat tabulated against temperature."""

    T: np.ndarray
    c_hat_v: np.ndarray
    gas: str = ""

    def __post_init__(self):
        object.__setattr__(self, "T", np.asarray(self.T, dtype=float))
        object.__setattr__(self, "c_hat_v", np.asarray(self.c_hat_v, dtype=float))
        _validate_series(self.T, self.c_hat_v, "c_hat_v")

    @property
    def interval(self) -> tuple[float, float]:
        return float(self.T[0]), float(self.T[-1])


@dataclass(frozen=True)
class ViscositySeries:
    """Shear viscosity tabulated against temperature."""

    T: np.ndarray
    mu: np.ndarray
    gas: str = ""

    def __post_init__(self):
        object.__setattr__(self, "T", np.asarray(self.T, dtype=float))
        object.__setattr__(self, "mu", np.asarray(self.mu, dtype=float))
        _validate_series(self.T, self.mu, "mu")

    @property
    def interval(self) -> tuple[float, float]:
        return float(self.T[0]), float(self.T[-1])

    @property
    def reference_point(self) -> tuple[float, float]:
        return float(self.T[0]), float(self.mu[0])


@dataclass(frozen=True)
class FitResult:
    """Fitted parameter with a one-sigma half-width and fit diagnostics.

    ``polytropic`` and ``max_rel_change`` are populated by delta fits only.
    """

    value: float
    half_width: float
    residual: float
    polytropic: Optional[bool] = None
    max_rel_change: Optional[float] = None
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        if self.half_width < 0:
            raise ValueError("confidence half-width must be nonnegative")


def fit_delta(series: CvSeries) -> FitResult:
    """Internal-degree count from the specific heat: delta = 2*mean(c_hat_v) - 3.

    The polytropic flag records whether the full spread of c_hat_v relative
    to its mean stays within POLYTROPIC_SPREAD.  Values at or below the
    monatomic level c_hat_v = 3/2 produce a warning rather than an error.
    """
    c = series.c_hat_v
    if c.size < 2:
        raise ValueError("need at least two rows to assess the interval")
    mean = float(np.mean(c))
    delta = 2.0 * mean - 3.0
    spread = float((np.max(c) - np.min(c)) / mean)
    residual = float(np.sqrt(np.mean((c - mean) ** 2)))
    # the mean's standard error, pushed through delta = 2*mean - 3
    half_width = 2.0 * residual / math.sqrt(max(c.size - 1, 1))
    warnings = ()
    if delta <= 0.0:
        warnings = (
            "fitted delta is at or below the monatomic boundary (delta = 0)",
        )
    return FitResult(
        value=delta,
        half_width=half_width,
        residual=residual,
        polytropic=spread <= POLYTROPIC_SPREAD,
        max_rel_change=spread,
        warnings=warnings,
    )


def fit_zeta(series: ViscositySeries) -> FitResult:
    """Growth exponent from the viscosity power law.

    Least squares on log mu vs log T gives the index s; the exponent is
    zeta = 2*(1 - s).  Exact power-law input is recovered to rounding
    level.  The half-width is twice the slope's standard error (zeta is an
    affine image of s with factor -2).
    """
    if series.T.size < 2:
        raise ValueError("need at least two rows to fit a slope")
    x = np.log(series.T)
    y = np.log(series.mu)
    x0 = x - x.mean()
    sxx = float(np.dot(x0, x0))
    if sxx == 0.0:
        raise ValueError("temperatures are degenerate; no slope is defined")
    s = float(np.dot(x0, y)) / sxx
    fitted = y.mean() + s * x0
    r = y - fitted
    residual = float(np.sqrt(np.mean(r * r)))
    n = series.T.size
    se_slope = math.sqrt(float(np.dot(r, r)) / (n - 2) / sxx) if n > 2 else 0.0
    return FitResult(value=2.0 * (1.0 - s), half_width=2.0 * se_slope,
                     residual=residual)


@dataclass(frozen=True)
class GasDataset:
    """Specific-heat and viscosity data for one gas at one pressure."""

    gas: str
    pressure_bar: float
    cv: CvSeries
    mu: ViscositySeries
    reference: Optional[TableEntry] = None


def synthetic_dataset(entry: TableEntry) -> GasDataset:
    """Power-law dataset that reproduces a reference table row exactly.

    The specific heat is the constant (delta + 3)/2 and the viscosity
    follows (T/T0)^(1 - zeta/2) over the row's temperature interval.
    """
    t_lo, t_hi = entry.t_interval
    T = np.linspace(t_lo, t_hi, _SYNTHETIC_POINTS)
    c = np.full(_SYNTHETIC_POINTS, (entry.delta + 3.0) / 2.0)
    s = 1.0 - 0.5 * entry.zeta
    mu = (T / t_lo) ** s
    return GasDataset(
        gas=entry.gas,
        pressure_bar=entry.pressure_bar,
        cv=CvSeries(T=T, c_hat_v=c, gas=entry.gas),
        mu=ViscositySeries(T=T, mu=mu, gas=entry.gas),
        reference=entry,
    )


@dataclass(frozen=True)
class Table1Row:
    """One report row: fitted parameters next to their reference values."""

    gas: str
    pressure_bar: float
    t_low: float
    t_high: float
    delta_fit: float
    zeta_fit: float
    delta_ref: float
    zeta_ref: float
    zeta_chapman_cowling: float

    @property
    def delta_gap(self) -> float:
        return self.delta_fit - self.delta_ref

    @property
    def zeta_gap(self) -> float:
        return self.zeta_fit - self.zeta_ref

    @property
    def zeta_chapman_gap(self) -> float:
        return self.zeta_fit - self.zeta_chapman_cowling


REPORT_COLUMNS = (
    "gas", "pressure_bar", "T_low", "T_high",
    "delta_fit", "zeta_fit", "delta_ref", "zeta_ref",
    "zeta_chapman_cowling", "delta_gap", "zeta_gap", "zeta_chapman_gap",
)


def _lookup_reference(gas: str, pressure_bar: float) -> TableEntry:
    for entry in TABLE1:
        if entry.gas == gas and math.isclose(entry.pressure_bar, pressure_bar,
                                             rel_tol=1e-9):
            return entry
    raise KeyError(f"no reference row for gas {gas!r} at {pressure_bar} bar")


def reproduce_table1(datasets: Optional[Sequence[GasDataset]] = None) -> list[Table1Row]:
    """Fit every dataset and line the results up against the reference table.

    Without arguments the bundled synthetic datasets are used, one per
    reference row.  Supplied datasets must each match a reference row by
    gas and pressure.
    """
    if datasets is None:
        datasets = [synthetic_dataset(entry) for entry in TABLE1]
    rows = []
    for ds in datasets:
        ref = ds.reference or _lookup_reference(ds.gas, ds.pressure_bar)
        t_low, t_high = ds.cv.interval
        rows.append(Table1Row(
            gas=ds.gas,
            pressure_bar=ds.pressure_bar,
            t_low=t_low,
            t_high=t_high,
            delta_fit=fit_delta(ds.cv).value,
            zeta_fit=fit_zeta(ds.mu).value,
            delta_ref=ref.delta,
            zeta_ref=ref.zeta,
            zeta_chapman_cowling=ref.zeta_chapman_cowling,
        ))
    return rows


def report_to_csv(rows: Sequence[Table1Row], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(REPORT_COLUMNS) + "\n")
        for r in rows:
            fh.write(
                f"{r.gas},{r.pressure_bar:g},{r.t_low:g},{r.t_high:g},"
                f"{r.delta_fit:.12g},{r.zeta_fit:.12g},"
                f"{r.delta_ref:g},{r.zeta_ref:g},{r.zeta_chapman_cowling:g},"
                f"{r.delta_gap:.12g},{r.zeta_gap:.12g},{r.zeta_chapman_gap:.12g}\n"
            )


def _read_two_columns(path, expected_header: str) -> tuple[np.ndarray, np.ndarray]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    body = [ln for ln in lines if ln.strip() and not ln.lstrip().startswith("#")]
    if not body:
        raise ValueError(f"{path}: empty data file")
    header = body[0].strip()
    if header != expected_header:
        raise ValueError(
            f"{path}: expected header {expected_header!r}, found {header!r}"
        )
    try:
        data = np.array([[float(tok) for tok in ln.split(",")] for ln in body[1:]])
    except ValueError as err:
        raise ValueError(f"{path}: malformed numeric row ({err})") from None
    if data.ndim != 2 or data.shape[1] != 2:
        raise ValueError(f"{path}: expected exactly two columns")
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        row = body[1 + int(np.argmin(finite))].strip()
        raise ValueError(f"{path}: non-finite numeric row {row!r}")
    return data[:, 0], data[:, 1]


def read_cv_csv(path, gas: str = "") -> CvSeries:
    T, c = _read_two_columns(path, "T,c_hat_v")
    return CvSeries(T=T, c_hat_v=c, gas=gas)


def read_viscosity_csv(path, gas: str = "") -> ViscositySeries:
    T, mu = _read_two_columns(path, "T,mu")
    return ViscositySeries(T=T, mu=mu, gas=gas)


def load_manifest(path) -> list[GasDataset]:
    """Datasets from a JSON manifest.

    The manifest holds a `datasets` list whose entries name the gas, the
    pressure in bar, and the two CSV files (paths resolved relative to the
    manifest).  Structural problems raise ValueError; missing data files
    surface as the underlying OSError.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}: not valid JSON ({err})") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("datasets"), list):
        raise ValueError(f"{path}: manifest must contain a 'datasets' list")
    out = []
    for k, item in enumerate(doc["datasets"]):
        if not isinstance(item, dict):
            raise ValueError(f"{path}: datasets[{k}] is not an object")
        missing = {"gas", "pressure_bar", "cv", "mu"} - set(item)
        if missing:
            raise ValueError(
                f"{path}: datasets[{k}] lacks keys {sorted(missing)}"
            )
        for key in ("gas", "cv", "mu"):
            if not isinstance(item[key], str):
                raise ValueError(f"{path}: datasets[{k}].{key}: {item[key]!r} is not a string")
        gas = item["gas"]
        pressure = _number(item, "pressure_bar", f"{path}: datasets[{k}]")
        cv = read_cv_csv(path.parent / item["cv"], gas=gas)
        mu = read_viscosity_csv(path.parent / item["mu"], gas=gas)
        out.append(GasDataset(gas=gas, pressure_bar=pressure, cv=cv, mu=mu))
    return out
