"""Gas model descriptions: species, internal-energy laws, collision kernels.

A :class:`MixtureSpec` bundles the species list with an N x N table of
collision kernels and is the single source of truth handed to the collision
rules, equilibrium closed forms, operator estimators and the relaxation
simulator.  Everything in the package is nondimensional with Boltzmann's
constant k_B = 1: temperatures are energies, and no unit system is carried.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np

__all__ = [
    "Monatomic",
    "ContinuousEnergy",
    "DiscreteLevels",
    "EnergyModel",
    "PowerLawE",
    "ResonantTensored",
    "KernelModel",
    "Species",
    "MixtureSpec",
    "reduced_mass",
    "phi_weight",
    "eval_kernel",
    "validate",
    "spec_to_json",
    "spec_from_json",
    "single_species",
]


# ---------------------------------------------------------------------------
# internal-energy models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Monatomic:
    """No internal structure; particles carry velocity only."""


@dataclass(frozen=True)
class ContinuousEnergy:
    """Continuous internal energy I >= 0 with weight I^(delta/2 - 1).

    ``delta`` is the effective number of internal degrees of freedom; it may
    be non-integer (polytropic gases have delta = 2*c_hat_v - 3).
    """

    delta: float


@dataclass(frozen=True)
class DiscreteLevels:
    """Finite internal-energy spectrum with per-level weights.

    ``energies`` must be strictly increasing and nonnegative;
    ``degeneracies`` are the positive statistical weights of each level.
    ``table`` holds both as read-only float arrays, built once; it takes no
    part in comparison.
    """

    energies: tuple[float, ...]
    degeneracies: tuple[float, ...]
    table: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "energies", tuple(float(e) for e in self.energies))
        object.__setattr__(
            self, "degeneracies", tuple(float(g) for g in self.degeneracies)
        )
        table = np.array(self.energies), np.array(self.degeneracies)
        for a in table:
            a.flags.writeable = False
        object.__setattr__(self, "table", table)

    @property
    def n_levels(self) -> int:
        return len(self.energies)


EnergyModel = Union[Monatomic, ContinuousEnergy, DiscreteLevels]


def phi_weight(I, delta):
    """Internal-energy weight I^(delta/2 - 1).

    Accepts scalars or arrays.  I = 0 is only admissible for delta >= 2: the
    exponent is then nonnegative and the continuous extension gives 1 at
    delta = 2 and 0 for delta > 2.  For delta < 2 the weight diverges at the
    origin, so I = 0 raises ValueError.
    """
    I = np.asarray(I, dtype=float)
    if np.any(I < 0):
        raise ValueError("internal energy must be nonnegative")
    expo = 0.5 * delta - 1.0
    if expo == 0.0:
        out = np.ones_like(I)
    elif np.any(I == 0) and delta < 2.0:
        raise ValueError("I = 0 requires delta >= 2 (weight diverges otherwise)")
    else:
        with np.errstate(divide="ignore"):
            out = I**expo
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# collision kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerLawE:
    """Kernel B = C * E^(zeta/2) * psi(r, R) with an optional split weight.

    ``psi`` must satisfy psi(r, R) = psi(1 - r, R) and be vectorized over
    numpy arrays; ``None`` means psi identically 1, the kernel then depending
    on the total pair energy only.
    """

    C: float
    zeta: float
    psi: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None


@dataclass(frozen=True)
class ResonantTensored:
    """Product kernel b_kin(|V|, cos theta) * b_int(I, I_*) for resonant collisions.

    The kinetic factor defaults to the single regular term C * |V|.  The
    remaining terms of the admissible bound (negative powers of |V| and
    |sin theta|, and the |sin theta|*(|V|^2 + 1/|V|) term) can be switched on
    through ``kin_terms`` but are excluded by default because they are
    singular on sets the sampler can hit.  The internal factor is
    (I + I_*)^(1 + zeta2/2 - delta), cut off outside 0 <= I' <= I + I_*.
    """

    C: float
    zeta: float = 0.0
    zeta1: float = 0.0
    zeta2: float = 0.0
    kin_terms: tuple[str, ...] = ("speed",)

    _ALLOWED_TERMS = ("speed", "speed_neg", "sin_quad", "sin_neg")


KernelModel = Union[PowerLawE, ResonantTensored]


def _require(point: dict, names: Sequence[str]) -> list:
    vals = []
    for name in names:
        v = point[name]
        if v is None:
            raise ValueError(f"kernel evaluation needs {name}")
        vals.append(np.asarray(v, dtype=float) if name != "delta" else float(v))
    return vals


def eval_kernel(model: KernelModel, *, E=None, r=None, R=None, rel_speed=None,
                cos_theta=None, I=None, I_star=None, I_prime=None, delta=None):
    """Evaluate a kernel at a collision point given by keyword; arguments may
    be arrays.  Vectorized.

    A :class:`PowerLawE` reads ``E``, and ``(r, R)`` too when it carries a
    ``psi``; the resonant family reads ``(rel_speed, cos_theta, I, I_star,
    I_prime, delta)``.  Raises ValueError on negative total energy or on a
    missing argument the kernel reads.
    """
    point = dict(E=E, r=r, R=R, rel_speed=rel_speed, cos_theta=cos_theta, I=I,
                 I_star=I_star, I_prime=I_prime, delta=delta)
    if isinstance(model, PowerLawE):
        # a psi of None is the plain power law, evaluated from E alone
        split = model.psi is not None
        E, *rR = _require(point, ["E", "r", "R"] if split else ["E"])
        if np.any(E < 0):
            raise ValueError("total energy must be nonnegative")
        with np.errstate(divide="ignore"):
            b = model.C * E ** (0.5 * model.zeta)
        return b * model.psi(*rR) if split else b

    if isinstance(model, ResonantTensored):
        g, ct, I, I_star, I_prime, delta = _require(
            point, ["rel_speed", "cos_theta", "I", "I_star", "I_prime", "delta"]
        )
        sin = np.sqrt(np.clip(1.0 - ct**2, 0.0, 1.0))
        with np.errstate(divide="ignore"):
            kin = np.zeros_like(g)
            for term in model.kin_terms:
                if term == "speed":
                    kin = kin + g
                elif term == "speed_neg":
                    kin = kin + g ** (-model.zeta)
                elif term == "sin_quad":
                    kin = kin + sin * (g**2 + 1.0 / g)
                elif term == "sin_neg":
                    kin = kin + sin ** (-model.zeta1)
                else:
                    raise ValueError(f"unknown kinetic term {term!r}")
            Z = I + I_star
            b_int = Z ** (1.0 + 0.5 * model.zeta2 - delta)
        admissible = (I_prime >= 0.0) & (I_prime <= Z)
        out = np.where(admissible, model.C * kin * b_int, 0.0)
        return out if out.ndim else float(out)

    raise TypeError(f"unknown kernel model {type(model).__name__}")


# ---------------------------------------------------------------------------
# species and mixtures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Species:
    label: str
    mass: float
    energy: EnergyModel = field(default_factory=Monatomic)

    @property
    def polyatomic(self) -> bool:
        return not isinstance(self.energy, Monatomic)


@dataclass(frozen=True)
class MixtureSpec:
    """Species list plus the symmetric N x N kernel table."""

    species: tuple[Species, ...]
    kernels: tuple[tuple[KernelModel, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "species", tuple(self.species))
        object.__setattr__(self, "kernels", tuple(tuple(row) for row in self.kernels))

    @property
    def n_species(self) -> int:
        return len(self.species)

    def kernel(self, i: int, j: int) -> KernelModel:
        return self.kernels[i][j]

    def reduced_mass(self, i: int, j: int) -> float:
        return reduced_mass(self.species[i].mass, self.species[j].mass)


def reduced_mass(m: float, m_star: float) -> float:
    """m m_* / (m + m_*) of two positive masses: that expression where m m_*
    is a normal double, else (as for equal masses below about 1.5e-154 or
    above 1.3e154) both masses over the larger in it, times the larger."""
    p = m * m_star
    if math.isfinite(p) and p >= 2.0**-1022:
        return p / (m + m_star)
    big = max(m, m_star)
    m, m_star = m / big, m_star / big
    return m * m_star / (m + m_star) * big


def single_species(
    energy: EnergyModel, kernel: KernelModel, mass: float = 1.0, label: str = "gas"
) -> MixtureSpec:
    """Convenience builder for the one-species case."""
    return MixtureSpec(
        species=(Species(label=label, mass=mass, energy=energy),),
        kernels=((kernel,),),
    )


def validate(spec: MixtureSpec) -> list[str]:
    """Return a deterministic list of constraint violations (empty if valid).

    Only that a spec is well formed is checked; whether a kernel meets a
    compactness hypothesis (H2-H7, the resonant window H4 included) is
    decided by :mod:`polykin.hypotheses`."""
    errs: list[str] = []
    if not spec.species:
        errs.append("species: at least one species required")
        return errs

    labels = [s.label for s in spec.species]
    if len(set(labels)) != len(labels):
        errs.append("species: labels must be unique")
    for k, s in enumerate(spec.species):
        if not s.label:
            errs.append(f"species[{k}]: empty label")
        if not 0 < s.mass < math.inf:
            errs.append(f"species[{k}]: mass must be positive and finite")
        e = s.energy
        if isinstance(e, ContinuousEnergy):
            if not 0 < e.delta < math.inf:
                errs.append(f"species[{k}]: delta must be positive and finite")
        elif isinstance(e, DiscreteLevels):
            if len(e.energies) != len(e.degeneracies) or not e.energies:
                errs.append(f"species[{k}]: levels and degeneracies must align, nonempty")
            else:
                if any(b <= a for a, b in zip(e.energies, e.energies[1:])):
                    errs.append(f"species[{k}]: level energies must be strictly increasing")
                if e.energies[0] < 0:
                    errs.append(f"species[{k}]: level energies must be nonnegative")
                if any(g <= 0 for g in e.degeneracies):
                    errs.append(f"species[{k}]: degeneracies must be positive")

    n = spec.n_species
    if len(spec.kernels) != n or any(len(row) != n for row in spec.kernels):
        errs.append("kernels: table must be N x N")
        return errs
    for i in range(n):
        for j in range(n):
            ker = spec.kernels[i][j]
            if not 0 <= ker.C < math.inf:
                errs.append(f"kernels[{i}][{j}]: prefactor C must be nonnegative and finite")
            for name in ("zeta", "zeta1", "zeta2"):
                if not math.isfinite(getattr(ker, name, 0.0)):
                    errs.append(f"kernels[{i}][{j}]: {name} must be finite")
            if i < j and ker != spec.kernels[j][i]:
                errs.append(f"kernels[{i}][{j}]: kernel table must be symmetric")
            if isinstance(ker, ResonantTensored):
                if n != 1 or not isinstance(spec.species[i].energy, ContinuousEnergy):
                    errs.append(f"kernels[{i}][{j}]: resonant kernel requires a single "
                                "continuous-energy species")
                else:
                    unknown = [t for t in ker.kin_terms if t not in ResonantTensored._ALLOWED_TERMS]
                    if unknown:
                        errs.append(f"kernels[{i}][{j}]: unknown kinetic terms {unknown}")
    return errs


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------


def _energy_to_obj(e: EnergyModel) -> dict:
    if isinstance(e, Monatomic):
        return {"kind": "monatomic"}
    if isinstance(e, ContinuousEnergy):
        return {"kind": "continuous", "delta": e.delta}
    if isinstance(e, DiscreteLevels):
        return {
            "kind": "discrete",
            "levels": [[E, g] for E, g in zip(e.energies, e.degeneracies)],
        }
    raise TypeError(f"unknown energy model {type(e).__name__}")


def _path(path: str, key) -> str:
    if isinstance(key, int):
        return f"{path}[{key}]"
    return f"{path}.{key}" if path else key


def _typed(x, kind: type, path: str):
    """``x`` if it is a JSON object (``dict``) or array (``list``) as ``kind``
    asks, else a ValueError naming its path; an empty ``path`` is the
    document's top level."""
    if not isinstance(x, kind):
        name = "an object" if kind is dict else "a list"
        raise ValueError(f"{path or 'document'}: {x!r} is not {name}")
    return x


def _field(obj, key, path: str):
    """``obj[key]``, or a ValueError naming the missing field's path; an
    empty ``path`` is the document's top level."""
    try:
        return obj[key]
    except (KeyError, IndexError):
        raise ValueError(f"{_path(path, key)}: required field is missing") from None


def _number(obj, key, path: str, default: float | None = None) -> float:
    """The JSON number ``obj[key]`` (``default`` if given and the key is
    absent) as a float; anything else, a boolean or a string included, and
    an integer too large for a float raise ValueError naming the field's
    path."""
    x = default if default is not None and key not in obj else _field(obj, key, path)
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"{_path(path, key)}: {x!r} is not a number")
    try:
        return float(x)
    except OverflowError:
        raise ValueError(f"{_path(path, key)}: integer too large for a float") from None


def _energy_from_obj(obj: dict, path: str) -> EnergyModel:
    kind = _typed(obj, dict, path).get("kind")
    if kind == "monatomic":
        return Monatomic()
    if kind == "continuous":
        return ContinuousEnergy(delta=_number(obj, "delta", path))
    if kind == "discrete":
        levels = _typed(_field(obj, "levels", path), list, f"{path}.levels")
        levels = [_typed(l, list, f"{path}.levels[{k}]") for k, l in enumerate(levels)]
        return DiscreteLevels(
            energies=tuple(_number(l, 0, f"{path}.levels[{k}]") for k, l in enumerate(levels)),
            degeneracies=tuple(_number(l, 1, f"{path}.levels[{k}]") for k, l in enumerate(levels)),
        )
    raise ValueError(f"{path}.kind: unknown energy kind {kind!r}")


def _kernel_to_obj(k: KernelModel) -> dict:
    if isinstance(k, PowerLawE):
        if k.psi is not None:
            raise ValueError("custom psi weights are not JSON-serializable")
        return {"kind": "power_law_e", "C": k.C, "zeta": k.zeta}
    if isinstance(k, ResonantTensored):
        if k.kin_terms != ResonantTensored.kin_terms:
            raise ValueError("kinetic terms other than the default are not JSON-serializable")
        return {
            "kind": "resonant_tensored",
            "C": k.C,
            "zeta": k.zeta,
            "zeta1": k.zeta1,
            "zeta2": k.zeta2,
        }
    raise TypeError(f"unknown kernel model {type(k).__name__}")


def _kernel_from_obj(obj: dict, path: str) -> KernelModel:
    kind = _typed(obj, dict, path).get("kind")
    if kind in ("power_law_e", "psi_weighted"):
        # psi_weighted without a psi is the same kernel under a second name
        return PowerLawE(C=_number(obj, "C", path), zeta=_number(obj, "zeta", path))
    if kind == "resonant_tensored":
        return ResonantTensored(
            C=_number(obj, "C", path),
            zeta=_number(obj, "zeta", path, 0.0),
            zeta1=_number(obj, "zeta1", path, 0.0),
            zeta2=_number(obj, "zeta2", path, 0.0),
        )
    raise ValueError(f"{path}.kind: unknown kernel kind {kind!r}")


def spec_to_json(spec: MixtureSpec, indent: int | None = 2) -> str:
    doc = {
        "species": [
            {"label": s.label, "mass": s.mass, "energy": _energy_to_obj(s.energy)}
            for s in spec.species
        ],
        "kernels": [[_kernel_to_obj(k) for k in row] for row in spec.kernels],
    }
    return json.dumps(doc, indent=indent)


def spec_from_json(text: str) -> MixtureSpec:
    """Parse a spec document; a missing field, a field of the wrong JSON
    type (an object, a list or a number where another was expected) or a
    number too large for a float raises ValueError naming its path, e.g.
    ``species[0].energy.delta``."""
    doc = _typed(json.loads(text), dict, "")
    species = tuple(
        Species(
            label=str(_field(_typed(s, dict, f"species[{k}]"), "label", f"species[{k}]")),
            mass=_number(s, "mass", f"species[{k}]"),
            energy=_energy_from_obj(_field(s, "energy", f"species[{k}]"),
                                    f"species[{k}].energy"),
        )
        for k, s in enumerate(_typed(_field(doc, "species", ""), list, "species"))
    )
    kernels = tuple(
        tuple(_kernel_from_obj(ker, f"kernels[{i}][{j}]")
              for j, ker in enumerate(_typed(row, list, f"kernels[{i}]")))
        for i, row in enumerate(_typed(_field(doc, "kernels", ""), list, "kernels"))
    )
    return MixtureSpec(species=species, kernels=kernels)
