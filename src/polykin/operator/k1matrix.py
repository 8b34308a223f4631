"""Dense discretization of the multiplicative part of the compact operator.

The kernel k1(w, w2) = -M(w)^{1/2} M(w2)^{1/2} c(E) factorizes for
energy-power collision models: c(E) collects the closed-form integral of
the transition weight over the exchange parameters and the scattering
direction.  Nodes are a tensor grid of Gauss-Hermite velocities and
generalized Gauss-Laguerre internal energies whose weights absorb the
equilibrium density, so sums against the weights approximate integrals
against M.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from ..collide import pair_law, sq_norm
from ..equilib import Maxwellian
from ..model import ContinuousEnergy, KernelModel, PowerLawE, PsiWeighted, single_species

__all__ = ["GridSpec", "K1Matrix", "assemble_k1", "reduced_kernel_coefficient"]

# most grid nodes accepted; the dense matrix takes 8 bytes per node pair,
# so this one needs 800 MB
MAX_NODES = 10_000
_BLOCK = 512
# Gauss-Jacobi nodes per axis for a split weight psi(r, R)
_PSI_NODES = 40


@dataclass(frozen=True)
class GridSpec:
    """Tensor grid sizes: velocity nodes per axis and internal-energy nodes."""

    n_velocity: int = 6
    n_internal: int = 8

    def __post_init__(self) -> None:
        if self.n_velocity < 1 or self.n_internal < 1:
            raise ValueError("grid sizes must be positive")
        n = self.n_velocity**3 * self.n_internal
        if n > MAX_NODES:
            raise ValueError(f"{n:.6g} nodes; at most {MAX_NODES} are allowed")

    def refined(self) -> "GridSpec":
        return GridSpec(self.n_velocity + 1, self.n_internal + 2)


def reduced_kernel_coefficient(kernel: KernelModel, delta: float) -> float:
    """Coefficient of E^(zeta/2) after integrating the transition weight.

    For a plain energy-power kernel this is C times the pair-law weight
    4 pi B(delta/2, delta/2) B(3/2, delta); a split-dependent weight
    psi(r, R) is integrated with Gauss-Jacobi rules matching the endpoint
    powers.
    """
    if isinstance(kernel, PowerLawE) or (
        isinstance(kernel, PsiWeighted) and kernel.psi is None
    ):
        law = pair_law(single_species(ContinuousEnergy(delta), kernel), 0, 0)
        return float(kernel.C * law.weight)
    if isinstance(kernel, PsiWeighted):
        a = 0.5 * delta - 1.0
        xr, wr = special.roots_jacobi(_PSI_NODES, a, a)
        r = 0.5 * (1.0 + xr)
        cr = 4.0 ** (1.0 - 0.5 * delta) * 0.5
        xR, wR = special.roots_jacobi(_PSI_NODES, delta - 1.0, 0.5)
        R = 0.5 * (1.0 + xR)
        cR = 0.5 ** (delta - 1.0) * 0.5**0.5 * 0.5
        vals = np.broadcast_to(
            np.asarray(kernel.psi(r[:, None], R[None, :]), dtype=float), (r.size, R.size)
        )
        q2d = cr * cR * float(wr @ vals @ wR)
        return float(4.0 * np.pi * kernel.C * q2d)
    raise ValueError("the matrix assembly covers energy-power kernels only")


@dataclass
class K1Matrix:
    """Kernel values on the tensor grid with density-absorbing weights."""

    nodes_v: np.ndarray
    nodes_i: np.ndarray
    weights: np.ndarray
    m_values: np.ndarray
    matrix: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.weights.size

    def symmetry_defect(self) -> float:
        scale = float(np.max(np.abs(self.matrix)))
        if scale == 0.0:
            return 0.0
        return float(np.max(np.abs(self.matrix - self.matrix.T))) / scale

    def hs_norm(self) -> float:
        """Quadrature-weighted Frobenius norm approximating the L2 kernel norm."""
        w_over_m = self.weights / self.m_values
        total = 0.0
        for i0 in range(0, self.n_nodes, _BLOCK):
            block = self.matrix[i0 : i0 + _BLOCK]
            total += float(w_over_m[i0 : i0 + _BLOCK] @ ((block * block) @ w_over_m))
        return float(np.sqrt(total))

    def row_norms(self) -> np.ndarray:
        w_over_m = self.weights / self.m_values
        out = np.empty(self.n_nodes)
        for i0 in range(0, self.n_nodes, _BLOCK):
            block = self.matrix[i0 : i0 + _BLOCK]
            out[i0 : i0 + _BLOCK] = np.sqrt((block * block) @ w_over_m)
        return out

    def apply(self, h_values: np.ndarray) -> np.ndarray:
        """Apply the discretized operator to node values of a function."""
        h_values = np.asarray(h_values, dtype=float)
        if h_values.shape != self.weights.shape:
            raise ValueError("need one value per grid node")
        return self.matrix @ (self.weights * h_values / self.m_values)


def assemble_k1(
    grid: GridSpec,
    M: Maxwellian,
    kernel: KernelModel | None = None,
) -> K1Matrix:
    """Assemble the kernel matrix on the Gauss tensor grid.

    Single continuous-energy species only; the assembly is closed-form in
    the pair energy, so the matrix is symmetric to rounding.
    """
    spec = M.spec
    if spec.n_species != 1 or not isinstance(spec.species[0].energy, ContinuousEnergy):
        raise ValueError("the matrix assembly needs a single continuous species")
    if kernel is None:
        kernel = spec.kernel(0, 0)
    sp = spec.species[0]
    delta = sp.energy.delta

    x, wx = np.polynomial.hermite.hermgauss(grid.n_velocity)
    t, wt = special.roots_genlaguerre(grid.n_internal, 0.5 * delta - 1.0)
    scale_v = np.sqrt(2.0 * M.params.T_kin / sp.mass)
    ax1, ax2, ax3, axi = np.meshgrid(x, x, x, t, indexing="ij")
    nodes_v = M.params.u + scale_v * np.stack(
        [ax1.ravel(), ax2.ravel(), ax3.ravel()], axis=-1
    )
    nodes_i = M.params.T_int * axi.ravel()
    w1, w2, w3, wi = np.meshgrid(wx, wx, wx, wt, indexing="ij")
    weights = (
        M.params.n[0]
        * np.pi**-1.5
        / special.gamma(0.5 * delta)
        * (w1 * w2 * w3 * wi).ravel()
    )
    m_values = np.exp(np.asarray(M.log_density(nodes_v, nodes_i, 0), dtype=float))

    coef = reduced_kernel_coefficient(kernel, delta)
    zeta = kernel.zeta
    n = weights.size
    s = np.sqrt(m_values)
    matrix = np.empty((n, n))
    for i0 in range(0, n, _BLOCK):
        dv = nodes_v[i0 : i0 + _BLOCK, None, :] - nodes_v[None, :, :]
        E = 0.25 * sp.mass * sq_norm(dv) + (
            nodes_i[i0 : i0 + _BLOCK, None] + nodes_i[None, :]
        )
        # association chosen so entries (i, j) and (j, i) run through
        # bitwise-identical operations
        matrix[i0 : i0 + _BLOCK] = (
            (s[i0 : i0 + _BLOCK, None] * s[None, :]) * E ** (0.5 * zeta)
        ) * (-coef)
    return K1Matrix(nodes_v, nodes_i, weights, m_values, matrix)
