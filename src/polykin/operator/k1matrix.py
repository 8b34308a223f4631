"""Dense discretization of the multiplicative part of the compact operator.

The kernel k1(w, w2) = -M(w)^{1/2} M(w2)^{1/2} c(E) factorizes for
energy-power collision models: c(E) collects the closed-form integral of
the transition weight over the exchange parameters and the scattering
direction.  Nodes are a tensor grid of Gauss-Hermite velocities and
generalized Gauss-Laguerre internal energies whose weights absorb the
equilibrium density, so sums against the weights approximate integrals
against M.

The matrix is the one n-by-n array; assembly and every check on it work in
bounded memory, row block by row block through one (``_BLOCK``, n) buffer
(assembly builds the rest of each block in the matrix's own rows), or for
the symmetry check tile by tile through one (``_BLOCK``, ``_BLOCK``)
buffer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..collide import PairLaw, pair_law
from ..equilib import Maxwellian
from ..model import ContinuousEnergy, KernelModel, PowerLawE

__all__ = ["GridSpec", "K1Matrix", "assemble_k1", "reduced_kernel_coefficient"]

# most grid nodes accepted; the dense matrix takes 8 bytes per node pair,
# so this one needs 800 MB, and assembly peaks at that plus one
# (_BLOCK, n) buffer
MAX_NODES = 10_000
# rows per block of the assembly and of the row-wise checks, and the side
# of the symmetry check's tiles
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


def reduced_kernel_coefficient(kernel: KernelModel, law: PairLaw) -> float:
    """Coefficient of E^(zeta/2) after integrating the transition weight.

    For a plain energy-power kernel this is C times the weight of ``law``,
    a continuous pair's law: 4 pi B(delta/2, delta/2) B(3/2, delta) for one
    species; a split-dependent weight psi(r, R) is integrated with
    Gauss-Jacobi rules whose exponents are the law's Beta shapes minus one.
    """
    if not isinstance(kernel, PowerLawE):
        raise ValueError("the matrix assembly covers energy-power kernels only")
    if kernel.psi is None:
        return float(kernel.C * law.weight)
    from scipy import special

    # x^(a-1) (1-x)^(b-1) on [0, 1] is the Jacobi weight (1-t)^(b-1)
    # (1+t)^(a-1) on [-1, 1] times 2^-(a+b-1), with x = (1+t)/2
    rules = []
    for a, b in (law.beta_r, law.beta_R):
        t, w = special.roots_jacobi(_PSI_NODES, b - 1.0, a - 1.0)
        rules.append((0.5 * (1.0 + t), w, 0.5 ** (a + b - 1.0)))
    (r, wr, cr), (R, wR, cR) = rules
    vals = np.broadcast_to(
        np.asarray(kernel.psi(r[:, None], R[None, :]), dtype=float), (r.size, R.size)
    )
    q2d = cr * cR * float(wr @ vals @ wR)
    return float(4.0 * np.pi * kernel.C * q2d)


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
        """max |K - K^T| / max |K|, one pass over square tiles.

        Tile (I, J) of the upper triangle is compared with tile (J, I)
        transposed, so both reads stay within two (``_BLOCK``, ``_BLOCK``)
        tiles; every entry enters the scale once.  A maximum does not depend
        on the order it is taken in.
        """
        n = self.n_nodes
        buf = np.empty((min(_BLOCK, n),) * 2)
        scales, defects = [], []
        for i0 in range(0, n, _BLOCK):
            for j0 in range(i0, n, _BLOCK):
                upper = self.matrix[i0 : i0 + _BLOCK, j0 : j0 + _BLOCK]
                lower_t = self.matrix[j0 : j0 + _BLOCK, i0 : i0 + _BLOCK].T
                out = buf[: upper.shape[0], : upper.shape[1]]
                scales.append(np.max(np.abs(upper, out=out)))
                if j0 > i0:
                    scales.append(np.max(np.abs(lower_t, out=out)))
                np.subtract(upper, lower_t, out=out)
                defects.append(np.max(np.abs(out, out=out)))
        # np.max, unlike max(), returns nan whenever any block maximum is nan
        scale = float(np.max(scales))
        if scale == 0.0:
            return 0.0
        return float(np.max(defects)) / scale

    def _weighted_row_sums(self, w_over_m: np.ndarray) -> np.ndarray:
        """sum_j K_ij^2 w_j / M_j for every row i."""
        n = self.n_nodes
        buf = np.empty((min(_BLOCK, n), n))
        out = np.empty(n)
        for i0 in range(0, n, _BLOCK):
            rows = self.matrix[i0 : i0 + _BLOCK]
            sq = np.multiply(rows, rows, out=buf[: rows.shape[0]])
            out[i0 : i0 + _BLOCK] = sq @ w_over_m
        return out

    def hs_norm(self) -> float:
        """Quadrature-weighted Frobenius norm approximating the L2 kernel norm."""
        w_over_m = self.weights / self.m_values
        rowsq = self._weighted_row_sums(w_over_m)
        total = 0.0
        for i0 in range(0, self.n_nodes, _BLOCK):
            total += float(w_over_m[i0 : i0 + _BLOCK] @ rowsq[i0 : i0 + _BLOCK])
        return float(np.sqrt(total))

    def row_norms(self) -> np.ndarray:
        return np.sqrt(self._weighted_row_sums(self.weights / self.m_values))

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
    from scipy import special

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

    coef = reduced_kernel_coefficient(kernel, pair_law(spec, 0, 0))
    zeta = kernel.zeta
    n = weights.size
    s = np.sqrt(m_values)
    matrix = np.empty((n, n))
    # every entry runs through the operations of
    #   ((s_i*s_j) * (0.25*m*sq_norm(v_i - v_j) + (I_i + I_j)) ** (zeta/2)) * -coef
    # in that order, so entries (i, j) and (j, i) are bitwise identical; a
    # row block's energies are built in its own rows of the matrix, and the
    # one buffer holds its coordinate differences and density products
    x, y, z = np.ascontiguousarray(nodes_v.T)
    other = np.empty((min(_BLOCK, n), n))
    quarter_m = 0.25 * sp.mass
    power = 0.5 * zeta
    for i0 in range(0, n, _BLOCK):
        i1 = min(i0 + _BLOCK, n)
        E = matrix[i0:i1]
        tmp = other[: i1 - i0]
        np.subtract(x[i0:i1, None], x, out=E)
        np.multiply(E, E, out=E)
        for c in (y, z):
            np.subtract(c[i0:i1, None], c, out=tmp)
            np.add(E, np.multiply(tmp, tmp, out=tmp), out=E)
        np.multiply(E, quarter_m, out=E)
        np.add(E, np.add(nodes_i[i0:i1, None], nodes_i, out=tmp), out=E)
        # in-place ** takes numpy's scalar-power fast paths just as E ** power
        E **= power
        np.multiply(s[i0:i1, None], s, out=tmp)
        np.multiply(np.multiply(tmp, E, out=tmp), -coef, out=E)
    return K1Matrix(nodes_v, nodes_i, weights, m_values, matrix)
