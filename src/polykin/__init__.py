"""Numerical toolkit for polyatomic Boltzmann collision models.

Exact collision rules for five model families (single-species exchange
collisions, resonant collisions, discrete internal levels, and their mixture
counterparts), equilibrium closed forms with detailed-balance checks, Monte
Carlo estimators for the collision operator and its linearization, decidable
kernel-integrability diagnostics, a space-homogeneous relaxation simulator,
and parameter fitting from thermodynamic data.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .model import (  # noqa: F401
    Monatomic,
    ContinuousEnergy,
    DiscreteLevels,
    PowerLawE,
    ResonantTensored,
    Species,
    MixtureSpec,
    CollisionContext,
    phi_weight,
    eval_kernel,
    validate,
    spec_to_json,
    spec_from_json,
    single_species,
)
