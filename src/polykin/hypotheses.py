"""Parameter-range verdicts for kernel growth conditions.

Each numbered hypothesis H1-H7 is a sufficient condition on the collision
kernel under which the integral part of the linearized operator is compact.
Specialized to the energy-power family B = C E^(zeta/2) (optionally carrying
a split weight psi(r, R)), every condition reduces to explicit inequalities
on the shape parameter delta and the growth exponents, so the checks here
are decidable arithmetic plus, for custom split weights, the numeric
integrability diagnostic of :mod:`polykin.operator`.

Boundary semantics: a margin of exactly zero satisfies inclusive conditions
(written with >= or <=) but violates strict ones (written with > or <).  The
condition text in each margin records which applies.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .operator import k2_integrability_diagnostic
from .operator.k2diag import _edge_exponents

__all__ = [
    "HypothesisId",
    "Verdict",
    "TableEntry",
    "Table1Verdicts",
    "TABLE1",
    "check",
    "check_monatomic",
    "check_single",
    "check_resonant",
    "check_discrete",
    "check_mixture",
    "table1_report",
]


class HypothesisId(Enum):
    """Identifiers for the seven kernel-growth condition families."""

    H1_monatomic = "H1"
    H2_single_BL = "H2"
    H3_single_Psi = "H3"
    H4_resonant = "H4"
    H5_discrete = "H5"
    H6_mixture_BL = "H6"
    H7_mixture_Psi = "H7"

    @classmethod
    def parse(cls, name: str) -> "HypothesisId":
        """Accept 'H2', 'h2', or the full member name."""
        key = name.strip()
        for member in cls:
            if key.upper() == member.value or key == member.name:
                return member
        raise ValueError(f"unknown hypothesis {name!r}")


@dataclass(frozen=True)
class Verdict:
    """Outcome of one hypothesis check.

    ``margins`` lists (condition, slack) pairs with slack positive inside
    the admissible region; ``binding_condition`` is the violated condition
    with the most negative slack, or the smallest-slack condition when all
    pass.  Zero slack satisfies inclusive conditions only (see module
    docstring), which is why ``satisfied`` is stored rather than rederived
    from the margins alone.
    """

    hypothesis: HypothesisId
    satisfied: bool
    binding_condition: str
    margins: tuple[tuple[str, float], ...]

    def to_dict(self) -> dict:
        return {
            "hypothesis": self.hypothesis.value,
            "satisfied": self.satisfied,
            "binding_condition": self.binding_condition,
            "margins": [[text, slack] for text, slack in self.margins],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _check_inputs(**values: float) -> None:
    """Raise ValueError if a delta is not positive (NaN included), else name
    the first value that is NaN or infinite."""
    if not all(value > 0 for name, value in values.items() if name.startswith("delta")):
        raise ValueError("delta must be positive")
    for name, value in values.items():
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite")


def _verdict(hyp: HypothesisId, conditions) -> Verdict:
    """Build a Verdict from (text, slack, strict) triples."""
    satisfied = all(
        (slack > 0.0) if strict else (slack >= 0.0) for _, slack, strict in conditions
    )
    violated = [
        (text, slack)
        for text, slack, strict in conditions
        if ((slack <= 0.0) if strict else (slack < 0.0))
    ]
    pool = violated if violated else [(t, s) for t, s, _ in conditions]
    binding = min(pool, key=lambda item: item[1])[0]
    margins = tuple((text, float(slack)) for text, slack, _ in conditions)
    return Verdict(hyp, satisfied, binding, margins)


def check_monatomic() -> Verdict:
    """H1 bounds kernels in the relative speed |V|; the energy-power family
    is bounded in the pair energy E instead, so no verdict is derivable."""
    return Verdict(
        hypothesis=HypothesisId.H1_monatomic,
        satisfied=False,
        binding_condition="not applicable: bound is stated in relative speed, "
        "not pair energy",
        margins=(),
    )


def check_single(
    delta: float,
    zeta: float,
    hyp: HypothesisId = HypothesisId.H2_single_BL,
    psi: Optional[Callable] = None,
    extended: bool = False,
) -> Verdict:
    """Single-species verdicts.

    H2: delta >= 2 and -1 < zeta <= 2.  With ``extended=True`` the upper
    bound relaxes to zeta <= delta + 1 (a formally valid but physically
    doubtful range, hence opt-in).  H3 with the unit split weight: strict
    zeta > -1 and delta > max(2, 2 + zeta).  H3 with a custom symmetric psi
    delegates to the numeric integrability diagnostic, including the
    mirrored edge exponents that govern the third compact contribution.
    """
    _check_inputs(delta=delta, zeta=zeta)
    if hyp == HypothesisId.H2_single_BL:
        if extended:
            upper = (f"zeta <= {delta + 1.0:g}", delta + 1.0 - zeta, False)
        else:
            upper = ("zeta <= 2", 2.0 - zeta, False)
        return _verdict(
            hyp,
            [
                ("delta >= 2", delta - 2.0, False),
                ("zeta > -1", zeta + 1.0, True),
                upper,
            ],
        )
    if hyp != HypothesisId.H3_single_Psi:
        raise ValueError("check_single covers H2 and H3 only")
    if psi is None:
        return _verdict(
            hyp,
            [
                ("zeta > -1", zeta + 1.0, True),
                ("delta > 2", delta - 2.0, True),
                (f"delta > {2.0 + zeta:g}", delta - 2.0 - zeta, True),
            ],
        )
    conditions = [("zeta > -1", zeta + 1.0, True)]
    if zeta > -1.0:
        diag = k2_integrability_diagnostic(delta, zeta, psi=psi)
        for edge, exponent in diag.corner_exponents.items():
            conditions.append((f"edge exponent [{edge}] > -1", exponent + 1.0, True))
        conditions.append(
            ("tail change <= 1% over the last cutoff decade",
             0.01 - diag.cauchy_change, False)
        )
    return _verdict(hyp, conditions)


def check_resonant(delta: float, zeta: float, zeta1: float, zeta2: float) -> Verdict:
    """H4: the kernel is dominated by a product of a velocity factor and an
    internal-energy factor; admissible exponents are zeta in [0,1),
    zeta1 in [0,1/2), zeta2 in (-delta, delta)."""
    _check_inputs(delta=delta, zeta=zeta, zeta1=zeta1, zeta2=zeta2)
    return _verdict(
        HypothesisId.H4_resonant,
        [
            ("zeta >= 0", zeta, False),
            ("zeta < 1", 1.0 - zeta, True),
            ("zeta1 >= 0", zeta1, False),
            ("zeta1 < 0.5", 0.5 - zeta1, True),
            (f"zeta2 > {-delta:g}", zeta2 + delta, True),
            (f"zeta2 < {delta:g}", delta - zeta2, True),
        ],
    )


def check_discrete(zeta: float) -> Verdict:
    """H5: the discrete-level bound carries an E^(1/2) prefactor, shifting
    the admissible exponent window to -1 < zeta <= 1; the level structure
    itself plays no role."""
    _check_inputs(zeta=zeta)
    return _verdict(
        HypothesisId.H5_discrete,
        [
            ("zeta > -1", zeta + 1.0, True),
            ("zeta <= 1", 1.0 - zeta, False),
        ],
    )


def _zeta_matrix(zetas, n: int) -> np.ndarray:
    z = np.asarray(zetas, dtype=float)
    if z.ndim == 0:
        z = np.full((n, n), float(z))
    if z.shape != (n, n):
        raise ValueError("zetas must be a scalar or an N x N matrix")
    _check_inputs(**{f"zeta[{i}][{j}]": z[i, j] for i, j in np.ndindex(n, n)})
    if not np.allclose(z, z.T, rtol=0.0, atol=0.0):
        raise ValueError("zetas must be symmetric")
    return z


# H7's edge conditions in verdict order: the K2 table's edge each bounds
# (exponent > -1) and its text; R -> 0 is a fixed power 1 and never binds
_H7_EDGES = (
    ("r -> 1 (mirror)", "(1-r) exponent delta[{j}]/2 - 2 > -1"),
    ("r -> 0 (mirror)", "r exponent (delta[{i}]+delta[{j}])/2 - 3 - zeta > -1"),
    ("r -> 1", "(1-r) exponent delta[{j}] - 3 - zeta > -1"),
    ("r -> 0", "r exponent delta[{i}]/2 - 2 > -1"),
    ("R -> 1", "(1-R) exponent delta[{i}]/2 + delta[{j}] - 3 - zeta > -1"),
)


def check_mixture(
    deltas: Sequence[float],
    zetas,
    hyp: HypothesisId = HypothesisId.H6_mixture_BL,
) -> dict[tuple[int, int], Verdict]:
    """Per-ordered-pair verdicts for mixtures.

    H6: every delta_i >= 2 and the shared exponent in (0, 1) strictly.
    H7 (unit split weights): zeta_ij > -1, delta_i >= 2, the shape-difference
    bound delta_i - delta_j <= 2 + zeta_ij, and positive-side edge exponents
    from both reduced integrability displays.  The hypothesis quantifies over
    ordered pairs, so (i, j) and (j, i) get separate verdicts; the mixture
    passes as a whole only if every entry does.
    """
    ds = [float(d) for d in deltas]
    if not ds:
        raise ValueError("need at least one species")
    _check_inputs(**{f"delta[{k}]": d for k, d in enumerate(ds)})
    n = len(ds)
    z = _zeta_matrix(zetas, n)
    if hyp not in (HypothesisId.H6_mixture_BL, HypothesisId.H7_mixture_Psi):
        raise ValueError("check_mixture covers H6 and H7 only")
    out: dict[tuple[int, int], Verdict] = {}
    for i in range(n):
        for j in range(n):
            di, dj, zij = ds[i], ds[j], float(z[i, j])
            if hyp == HypothesisId.H6_mixture_BL:
                conditions = [
                    (f"delta[{i}] >= 2", di - 2.0, False),
                    (f"delta[{j}] >= 2", dj - 2.0, False),
                    (f"zeta[{i}][{j}] > 0", zij, True),
                    (f"zeta[{i}][{j}] < 1", 1.0 - zij, True),
                ]
            else:
                conditions = [
                    (f"zeta[{i}][{j}] > -1", zij + 1.0, True),
                    (f"delta[{i}] >= 2", di - 2.0, False),
                    (f"delta[{j}] >= 2", dj - 2.0, False),
                    (f"delta[{i}] - delta[{j}] <= {2.0 + zij:g}", 2.0 + zij - (di - dj), False),
                ]
                slack = _edge_exponents(di, dj, zij, shift=1.0)
                conditions += [(text.format(i=i, j=j), slack[edge], True)
                               for edge, text in _H7_EDGES]
            out[(i, j)] = _verdict(hyp, conditions)
    return out


def check(hyp: HypothesisId, *, delta=None, zeta=None, zeta1: float = 0.0,
          zeta2: float = 0.0, psi: Optional[Callable] = None,
          extended: bool = False):
    """Dispatch a hypothesis id to the matching checker.

    ``delta`` may be a sequence for the mixture hypotheses, in which case a
    scalar ``zeta`` is broadcast to all pairs.  Returns a Verdict, or a dict
    of per-pair Verdicts for H6/H7.  H1 reads neither ``delta`` nor
    ``zeta``, H5 only ``zeta`` and every other hypothesis both.  A missing
    one, or a sequence given to H2-H5, raises ValueError before any range
    check: missing before sequence, delta before zeta.
    """
    if hyp == HypothesisId.H1_monatomic:
        return check_monatomic()
    given = {"delta": delta, "zeta": zeta}
    if hyp == HypothesisId.H5_discrete:
        del given["delta"]
    for name, value in given.items():
        if value is None:
            raise ValueError(f"{name} is required for {hyp.value}")
    if hyp in (HypothesisId.H6_mixture_BL, HypothesisId.H7_mixture_Psi):
        deltas = np.atleast_1d(np.asarray(delta, dtype=float))
        return check_mixture(list(deltas), zeta, hyp)
    for name, value in given.items():
        if np.ndim(value):
            raise ValueError(f"{name} must be one number for {hyp.value}, not a sequence")
    if hyp in (HypothesisId.H2_single_BL, HypothesisId.H3_single_Psi):
        return check_single(float(delta), float(zeta), hyp, psi=psi, extended=extended)
    if hyp == HypothesisId.H4_resonant:
        return check_resonant(float(delta), float(zeta), zeta1, zeta2)
    return check_discrete(float(zeta))


@dataclass(frozen=True)
class TableEntry:
    """One gas/pressure row of fitted shape and growth parameters."""

    gas: str
    t_interval: tuple[float, float]
    pressure_bar: float
    delta: float
    zeta: float
    zeta_chapman_cowling: float


# Fitted (delta, zeta) per gas and pressure over each polytropic temperature
# interval; the last column is the viscosity-index value of zeta from the
# Chapman-Cowling tabulation, shared across pressures.
TABLE1: tuple[TableEntry, ...] = (
    TableEntry("N2", (300.0, 600.0), 1.0, 2.017, 0.537, 0.524),
    TableEntry("N2", (300.0, 600.0), 0.092, 2.007, 0.536, 0.524),
    TableEntry("O2", (300.0, 430.0), 1.0, 2.080, 0.443, 0.454),
    TableEntry("O2", (300.0, 430.0), 0.092, 2.070, 0.441, 0.454),
    TableEntry("CO", (300.0, 550.0), 1.0, 2.022, 0.547, 0.532),
    TableEntry("CO", (300.0, 550.0), 0.092, 2.011, 0.524, 0.532),
    TableEntry("H2", (300.0, 890.0), 1.0, 1.940, 0.608, 0.664),
    TableEntry("H2", (300.0, 890.0), 0.092, 1.939, 0.608, 0.664),
)


@dataclass(frozen=True)
class Table1Verdicts:
    entry: TableEntry
    h2: Verdict
    h3: Verdict


def table1_report() -> tuple[Table1Verdicts, ...]:
    """H2/H3 verdicts at the tabulated (delta, zeta) of every gas/pressure.

    Pure function of the embedded constants: the three heavier gases satisfy
    H2 and fail H3 at both pressures; hydrogen (delta < 2) fails both.
    """
    return tuple(
        Table1Verdicts(
            entry=e,
            h2=check_single(e.delta, e.zeta, HypothesisId.H2_single_BL),
            h3=check_single(e.delta, e.zeta, HypothesisId.H3_single_Psi),
        )
        for e in TABLE1
    )
