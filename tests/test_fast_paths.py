"""Fast paths against the numpy expressions they replace, bit for bit.

Each reference below is the expression a fast path stands in for; results
are compared as their uint64 bit patterns, so a sign of zero or a NaN
payload counts.
"""


import numpy as np
import pytest

from polykin import relax
from polykin.collide import bl_poly_poly, pair_law, sq_norm, unit_sphere
from polykin.equilib import EquilibriumParams, Maxwellian
from polykin.model import (ContinuousEnergy, DiscreteLevels, MixtureSpec,
                           Monatomic, PowerLawE, Species, eval_kernel,
                           single_species)
from polykin.operator import k1matrix
from polykin.operator.k1matrix import GridSpec, K1Matrix, assemble_k1

from support import bl_spec, mixture_cont_spec, traced_peak


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


# ---------------------------------------------------------------------------
# squared row norms
# ---------------------------------------------------------------------------

SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, np.inf, -np.inf, 1e200, -1.5])


@pytest.mark.parametrize("shape", [(3,), (1, 3), (1000, 3), (7, 11, 3)])
def test_sq_norm_matches_sum_of_squares(shape):
    scale = 10.0 ** np.random.default_rng(2).integers(-300, 300, shape)
    x = np.random.default_rng(1).standard_normal(shape) * scale
    with np.errstate(over="ignore"):
        assert np.array_equal(bits(sq_norm(x)), bits(np.sum(x * x, axis=-1)))


def test_sq_norm_special_entries():
    # every ordered triple of signed zeros, subnormals and infinities
    x = np.stack(np.meshgrid(SPECIAL, SPECIAL, SPECIAL, indexing="ij"), axis=-1).reshape(-1, 3)
    with np.errstate(over="ignore"):
        assert np.array_equal(bits(sq_norm(x)), bits(np.sum(x * x, axis=-1)))
        assert np.array_equal(bits(sq_norm(-x[::-1])), bits(np.sum(x[::-1] * x[::-1], axis=-1)))


def test_sq_norm_on_a_k1_block():
    # the (64, 3430, 3) node differences of K1's refined grid, and the same
    # block with its vector axis strided
    rng = np.random.default_rng(3)
    nodes = rng.standard_normal((3430, 3))
    dv = nodes[:64, None, :] - nodes[None, :, :]
    strided = np.moveaxis(np.ascontiguousarray(np.moveaxis(dv, -1, 0)), 0, -1)
    assert not strided.flags.c_contiguous
    ref = np.sum(dv * dv, axis=-1)
    assert np.array_equal(bits(sq_norm(dv)), bits(ref))
    assert np.array_equal(bits(sq_norm(strided)), bits(ref))


# ---------------------------------------------------------------------------
# the one-sided exchange and the plain split-weighted kernel
# ---------------------------------------------------------------------------


def bl_poly_mono_reference(v, v_star, I, R, sigma, m, m_star):
    """The poly-mono rule as written before it became bl_poly_poly at a
    fixed split against a partner without internal energy: returns
    (v', v'_*, I_post, E) with I_post on the polyatomic particle."""
    v = np.asarray(v, dtype=float)
    v_star = np.asarray(v_star, dtype=float)
    mu = m * m_star / (m + m_star)
    R = np.asarray(R, dtype=float)
    E = 0.5 * np.asarray(mu) * sq_norm(v - v_star) + np.asarray(I, dtype=float) + np.asarray(0.0)
    center = (m * v + m_star * v_star) / (m + m_star)
    gs = np.sqrt(2.0 * R * E / mu)[..., None] * sigma
    tot = m + m_star
    return center + (m_star / tot) * gs, center - (m / tot) * gs, (1.0 - R) * E, E


def exchange_rows(rng, n):
    """Velocities of speeds 1e-3 to 1e3, internal energies with exact zeros
    among them, and kinetic fractions with 0, 1e-300 and 1 among them."""
    def velocities():
        return unit_sphere(rng, n) * 10.0 ** rng.uniform(-3.0, 3.0, n)[:, None]

    I = np.where(rng.random(n) < 0.1, 0.0, 10.0 ** rng.uniform(-6.0, 6.0, n))
    R = rng.choice([0.0, 1e-300, 1.0], n)
    R = np.where(rng.random(n) < 0.3, R, rng.random(n))
    return velocities(), velocities(), I, R, unit_sphere(rng, n)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("poly_slot", [0, 1], ids=["poly-mono", "mono-poly"])
def test_one_sided_exchange_matches_the_poly_mono_formula(poly_slot, seed):
    # 8 mass pairs in [0.1, 5] with 25000 rows each: 2e5 rows per slot order;
    # the polyatomic slot takes the whole internal share (r = 1 first, r = 0
    # second) and the monatomic slot, in with 0, comes out +0.0
    rng = np.random.default_rng(seed)
    m, m_star = 10.0 ** rng.uniform(-1.0, np.log10(5.0), 2)
    v, v_star, I, R, sigma = exchange_rows(rng, 25_000)
    if poly_slot == 0:
        vp, vsp, I_post, I_mono, E = bl_poly_poly(v, v_star, I, 0.0, 1.0, R, sigma, m, m_star)
    else:
        vp, vsp, I_mono, I_post, E = bl_poly_poly(v, v_star, 0.0, I, 0.0, R, sigma, m, m_star)
    want = bl_poly_mono_reference(v, v_star, I, R, sigma, m, m_star)
    for a, b in zip((vp, vsp, I_post, E), want):
        assert np.array_equal(bits(a), bits(b))
    assert np.array_equal(bits(I_mono), bits(np.zeros(I.size)))


@pytest.mark.parametrize("zeta", [0.0, 0.4, 2.0, -0.7, -3.0])
@pytest.mark.parametrize("C", [1.0, 0.37])
def test_plain_split_weighted_kernel_is_the_power_law(C, zeta):
    rng = np.random.default_rng(5)
    E = np.concatenate([[0.0, 5e-324, 1e-300, 1.0, 1e300, np.inf],
                        10.0 ** rng.uniform(-8.0, 8.0, 1000)])
    r, R = rng.random((2, E.size))
    with np.errstate(all="ignore"):
        # a psi-free kernel reads E alone, whatever split it is given
        got = eval_kernel(PowerLawE(C, zeta), E=E, r=r, R=R)
        plain = eval_kernel(PowerLawE(C, zeta), E=E)
        # the expression it replaced: the power law times ones shaped like r
        replaced = C * E ** (0.5 * zeta) * np.ones_like(r)
    assert np.array_equal(bits(got), bits(plain))
    assert np.array_equal(bits(got), bits(replaced))


# ---------------------------------------------------------------------------
# histogram bins
# ---------------------------------------------------------------------------


def bins_reference(x, cap, floor):
    nb = cap if x.size >= 20 * cap else max(floor, relax._scott_bins(x, cap))
    edges = np.linspace(0.0, float(x.max()) * (1.0 + 1e-9), nb + 1)
    return edges, np.clip(np.searchsorted(edges, x, side="right") - 1, 0, nb - 1)


def assert_same_bins(x, cap, floor):
    edges, k = relax._bins(x, cap, floor)
    ref_edges, ref_k = bins_reference(x, cap, floor)
    assert np.array_equal(bits(edges), bits(ref_edges))
    assert k.dtype == ref_k.dtype
    assert np.array_equal(k, ref_k)


def thermal_samples(n, seed):
    rng = np.random.default_rng(seed)
    speeds = np.sqrt(np.sum(rng.normal(0.0, 1.3, (n, 3)) ** 2, axis=1))
    return speeds, rng.gamma(1.0, 0.9, n)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bins_on_thermal_samples(seed):
    c, I = thermal_samples(50_000, seed)
    assert_same_bins(c, relax._SPEED_BINS, 8)
    assert_same_bins(I, relax._INTERNAL_BINS, 4)


@pytest.mark.parametrize("cap, floor", [(relax._SPEED_BINS, 8), (relax._INTERNAL_BINS, 4)])
def test_bins_at_every_edge_and_its_neighbours(cap, floor):
    # below the sample maximum, so the edges stay those of the sample
    c, _ = thermal_samples(50_000, 4)
    edges, _ = bins_reference(c, cap, floor)
    inner = edges[:-1]
    x = np.concatenate([c, inner, np.nextafter(inner, -np.inf), np.nextafter(inner, np.inf)])
    assert x.max() == c.max()
    assert_same_bins(x, cap, floor)
    # a sample of only edges and neighbours, topped by its maximum
    assert_same_bins(x[c.size:], cap, floor)


@pytest.mark.parametrize("n", [1, 2, 25, 300, 1000, 1279])
def test_bins_under_scotts_rule(n):
    c, I = thermal_samples(n, n)
    assert_same_bins(c, relax._SPEED_BINS, 8)
    assert_same_bins(I, relax._INTERNAL_BINS, 4)


@pytest.mark.parametrize("n", [1, 40, 5000])
def test_bins_of_an_all_zero_sample(n):
    assert_same_bins(np.zeros(n), relax._SPEED_BINS, 8)
    assert_same_bins(np.zeros(n), relax._INTERNAL_BINS, 4)


def test_bins_of_tiny_and_huge_samples():
    c, _ = thermal_samples(5000, 5)
    for scale in (1e-300, 5e-320, 1e300):
        assert_same_bins(c * scale, relax._SPEED_BINS, 8)


# ---------------------------------------------------------------------------
# dependency levels
# ---------------------------------------------------------------------------


def levels_reference(ii, jj):
    """The schedule with the candidate ends ordered by a stable argsort."""
    m = ii.size
    ends = np.column_stack((ii, jj)).ravel()
    order = np.argsort(ends, kind="stable")
    same = ends[order[1:]] == ends[order[:-1]]
    prev = np.full(2 * m, -1)
    prev[order[1:][same]] = order[:-1][same] // 2
    prev_a, prev_b = prev[0::2], prev[1::2]
    waiting = np.ones(m + 1, dtype=bool)
    waiting[-1] = False
    rest = np.arange(m)
    while rest.size:
        free = ~(waiting[prev_a[rest]] | waiting[prev_b[rest]])
        level = rest[free]
        yield level
        waiting[level] = False
        rest = rest[~free]


def random_candidates(rng, n, m):
    a = rng.integers(0, n, m)
    return a, (a + rng.integers(1, n, m)) % n


@pytest.mark.parametrize("n, m", [(50_000, 1680), (50_000, 1), (2, 1), (2, 50), (6, 400),
                                  (1000, 5000)])
def test_dependency_levels_match_the_stable_argsort(n, m):
    rng = np.random.default_rng(n + m)
    for _ in range(5):
        ii, jj = random_candidates(rng, n, m)
        got = list(relax._dependency_levels(ii, jj))
        ref = list(levels_reference(ii, jj))
        assert len(got) == len(ref)
        for g, r in zip(got, ref):
            assert g.dtype == r.dtype
            assert np.array_equal(g, r)


# ---------------------------------------------------------------------------
# constant rates at zeta = 0
# ---------------------------------------------------------------------------


def rates_reference(ensemble, pt, ii, jj):
    with np.errstate(invalid="ignore"):
        dv = ensemble.v[ii] - ensemble.v[jj]
        E = (0.5 * pt.law.mu * np.sum(dv * dv, axis=-1)
             + ensemble.internal[ii] + ensemble.internal[jj])
        return pt.C * pt.law.weight * E ** (0.5 * pt.zeta)


MONO_MONO = MixtureSpec(
    species=(Species("a", 1.0, Monatomic()), Species("b", 3.0, Monatomic())),
    kernels=((PowerLawE(C=0.7, zeta=0.0),) * 2,) * 2,
)
MONO_FIRST = MixtureSpec(
    species=(Species("a", 1.0, Monatomic()), Species("b", 2.0, ContinuousEnergy(2.5))),
    kernels=((PowerLawE(C=1.3, zeta=0.0),) * 2,) * 2,
)


@pytest.mark.parametrize("spec", [bl_spec(C=2.5), mixture_cont_spec(C=1.7),
                                  mixture_cont_spec(delta_b=None, C=0.3), MONO_MONO, MONO_FIRST],
                         ids=["bl", "cont_mixture", "poly_mono", "mono_mono", "mono_first"])
def test_zeta_zero_rates_are_the_constant(spec):
    ens = relax.init_ensemble(spec, 400, 2.0, 1.0, seed=9)
    # pairs with E = 0, E = inf and E = nan
    ens.v[:4] = ens.v[4]
    ens.internal[:5] = 0.0
    ens.v[5] = np.inf
    ens.v[6] = [np.inf, -np.inf, 0.0]
    rng = np.random.default_rng(0)
    for pt in relax._pair_types(ens):
        assert pt.zeta == 0.0
        ii, jj = relax._draw_pairs(rng, pt, 300)
        ii = np.concatenate([ii, pt.idx_i[:7]])
        jj = np.concatenate([jj, np.roll(pt.idx_j[:7], 1)])
        assert np.array_equal(bits(relax._rates(ens, pt, ii, jj, None)),
                              bits(rates_reference(ens, pt, ii, jj)))
    same = relax._pair_types(ens)[0]
    zero = relax._rates(ens, same, same.idx_i[:2], same.idx_i[1:3], None)
    assert np.array_equal(bits(zero), bits(np.full(2, same.C * same.law.weight)))


# ---------------------------------------------------------------------------
# recorded moment rows
# ---------------------------------------------------------------------------


def masses_reference(ens):
    return np.array([sp.mass for sp in ens.spec.species])[ens.species]


def peculiar_sq_reference(ens):
    m = masses_reference(ens)
    du = ens.v - np.sum(m[:, None] * ens.v, axis=0) / np.sum(m)
    return np.sum(du * du, axis=-1)


def kinetic_temperature_reference(ens):
    m = masses_reference(ens)
    return float(np.sum(m * peculiar_sq_reference(ens)) / (3.0 * ens.n_particles))


def h_estimate_reference(ens):
    """The entropy estimate with the bulk velocity and speeds formed per
    species, on masked copies."""
    n = ens.n_particles
    m = masses_reference(ens)
    u = np.sum(m[:, None] * ens.v, axis=0) / np.sum(m)
    total = 0.0
    for s, sp in enumerate(ens.spec.species):
        mask = ens.species == s
        dv = ens.v[mask] - u
        c = np.sqrt(np.sum(dv * dv, axis=-1))
        if isinstance(sp.energy, ContinuousEnergy):
            I = ens.internal[mask]
            weight = (1.0 - 0.5 * sp.energy.delta) * np.log(np.maximum(I, 1e-300))
            log_f = relax._log_cell_density(n, c, I)
            total += (int(np.count_nonzero(mask)) / n) * float(np.mean(log_f + weight))
            continue
        if isinstance(sp.energy, DiscreteLevels):
            lev = ens.levels[mask]
            groups = [(c[lev == k], g) for k, g in enumerate(sp.energy.degeneracies)]
        else:
            groups = [(c, 1.0)]
        for ck, g in groups:
            if ck.size:
                total += (ck.size / n) * float(np.mean(relax._log_cell_density(n, ck))
                                               - np.log(g))
    return total


THREE_LEVELS = single_species(DiscreteLevels((0.0, 0.7, 1.5), (1.0, 3.0, 5.0)),
                              PowerLawE(C=1.0, zeta=0.0))


@pytest.mark.parametrize("spec, u0", [
    (bl_spec(), None),
    (mixture_cont_spec(delta_b=None, m_b=3.0), (0.4, -0.3, 0.2)),
    (THREE_LEVELS, None),
], ids=["bl", "cont_mono_drift", "three_levels"])
def test_moment_row_matches_the_per_quantity_calls(spec, u0):
    cfg = relax.RelaxConfig(dt=0.02, n_particles=2000, seed=11)
    ens = relax.init_ensemble(spec, cfg.n_particles, 2.0, 1.0, u0=u0, seed=cfg.seed)
    for _ in range(3):
        relax.step(ens, cfg)
    row = relax._moments(ens)
    calls = (ens.time, ens.kinetic_temperature(), ens.internal_temperature(),
             ens.mean_internal(), relax.h_estimate(ens))
    assert np.array_equal(bits(row[:5]), bits(calls))
    assert row[5] == ens.collisions
    assert np.array_equal(bits(ens.peculiar_sq()), bits(peculiar_sq_reference(ens)))
    assert np.array_equal(bits(row[1]), bits(kinetic_temperature_reference(ens)))
    assert np.array_equal(bits(row[4]), bits(h_estimate_reference(ens)))


def momentum_reference(ens):
    return np.sum(masses_reference(ens)[:, None] * ens.v, axis=0)


@pytest.mark.parametrize("n", [2, 3, 7, 101, 4097, 50_001])
def test_momentum_matches_the_row_sum(n):
    # mass ratios and speeds over many decades, so every partial sum rounds
    spec = mixture_cont_spec(delta_b=None, m_b=3.7)
    ens = relax.init_ensemble(spec, n, 1.0, 1.0, u0=(0.3, -0.2, 0.1), seed=n)
    rng = np.random.default_rng(n)
    ens.v *= 10.0 ** rng.uniform(-8.0, 8.0, (n, 3))
    assert np.array_equal(bits(ens.momentum()), bits(momentum_reference(ens)))
    assert np.array_equal(bits(ens.bulk_velocity()),
                          bits(momentum_reference(ens) / np.sum(masses_reference(ens))))


@pytest.mark.parametrize("n", [2, 3, 9, 31])
def test_momentum_with_signed_zeros_and_non_finite_rows(n):
    # each column of each case draws its entries from a different mix of
    # +-0, +-inf, nan, subnormals and huge values
    rng = np.random.default_rng(n)
    special = np.concatenate([SPECIAL, [np.nan, -np.nan, 1e308, -1e308]])
    ens = relax.init_ensemble(mixture_cont_spec(delta_b=None), n, 1.0, 1.0, seed=n)
    for _ in range(200):
        ens.v[:] = rng.choice(special[rng.permutation(special.size)[:rng.integers(1, 6)]],
                              (n, 3))
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.array_equal(bits(ens.momentum()), bits(momentum_reference(ens)))
    # the row sum starts from +0.0, so -0.0 rows alone sum to +0.0
    ens.v[:] = -0.0
    assert np.array_equal(bits(ens.momentum()), bits(np.zeros(3)))
    assert np.array_equal(bits(momentum_reference(ens)), bits(np.zeros(3)))


def test_masses_are_cached_and_read_only():
    ens = relax.init_ensemble(mixture_cont_spec(delta_b=None, m_b=3.0), 101, 1.0, 1.0, seed=0)
    m = ens.masses
    assert ens.masses is m
    assert not m.flags.writeable
    with pytest.raises(ValueError):
        m[0] = 2.0
    assert np.array_equal(bits(m), bits(masses_reference(ens)))


def test_h_estimate_at_delta_two_with_non_finite_energies():
    # the (1 - delta/2) log I term is skipped at delta = 2 only while every
    # I is finite; an inf or nan I still makes the estimate nan
    ens = relax.init_ensemble(bl_spec(), 2000, 2.0, 1.0, seed=4)
    assert np.array_equal(bits(relax.h_estimate(ens)), bits(h_estimate_reference(ens)))
    for bad in (np.inf, np.nan):
        ens.internal[17] = bad
        with np.errstate(invalid="ignore"):
            got, want = relax.h_estimate(ens), h_estimate_reference(ens)
        assert np.isnan(want)
        assert np.array_equal(bits(got), bits(want))


# ---------------------------------------------------------------------------
# K1 matrix in row blocks
# ---------------------------------------------------------------------------


def k1_matrix_reference(k1, mass, kernel, delta):
    """The block loop that built the matrix from (_BLOCK, n, 3) differences."""
    _BLOCK = k1matrix._BLOCK
    nodes_v, nodes_i = k1.nodes_v, k1.nodes_i
    coef = k1matrix.reduced_kernel_coefficient(kernel, pair_law(bl_spec(delta=delta), 0, 0))
    zeta = kernel.zeta
    n = k1.n_nodes
    s = np.sqrt(k1.m_values)
    matrix = np.empty((n, n))
    for i0 in range(0, n, _BLOCK):
        dv = nodes_v[i0 : i0 + _BLOCK, None, :] - nodes_v[None, :, :]
        E = 0.25 * mass * sq_norm(dv) + (
            nodes_i[i0 : i0 + _BLOCK, None] + nodes_i[None, :]
        )
        matrix[i0 : i0 + _BLOCK] = (
            (s[i0 : i0 + _BLOCK, None] * s[None, :]) * E ** (0.5 * zeta)
        ) * (-coef)
    return matrix


def symmetry_defect_reference(k1):
    scale = float(np.max(np.abs(k1.matrix)))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(k1.matrix - k1.matrix.T))) / scale


def hs_norm_reference(k1):
    _BLOCK = k1matrix._BLOCK
    w_over_m = k1.weights / k1.m_values
    total = 0.0
    for i0 in range(0, k1.n_nodes, _BLOCK):
        block = k1.matrix[i0 : i0 + _BLOCK]
        total += float(w_over_m[i0 : i0 + _BLOCK] @ ((block * block) @ w_over_m))
    return float(np.sqrt(total))


def row_norms_reference(k1):
    _BLOCK = k1matrix._BLOCK
    w_over_m = k1.weights / k1.m_values
    out = np.empty(k1.n_nodes)
    for i0 in range(0, k1.n_nodes, _BLOCK):
        block = k1.matrix[i0 : i0 + _BLOCK]
        out[i0 : i0 + _BLOCK] = np.sqrt((block * block) @ w_over_m)
    return out


def unit_maxwellian(delta=2.0, zeta=0.5, C=1.0, mass=1.0, u=(0.0, 0.0, 0.0), T=1.0):
    spec = single_species(ContinuousEnergy(delta=delta), PowerLawE(C=C, zeta=zeta), mass=mass)
    return Maxwellian(spec, EquilibriumParams(n=(1.0,), u=np.array(u), T_kin=T, T_int=T))


K1_CASES = {
    "default": (GridSpec(), {}),
    "refined": (GridSpec().refined(), {}),
    "under_one_block": (GridSpec(5, 3), {"delta": 3.0}),
    "drift_mass_temperature": (GridSpec(5, 4), {"u": (0.3, -0.2, 0.1), "mass": 1.5, "T": 0.7}),
    "negative_zeta": (GridSpec(6, 3), {"delta": 3.0, "zeta": -0.5}),
    "zero_C": (GridSpec(4, 3), {"C": 0.0}),
    "zeta_overflow": (GridSpec(4, 4), {"zeta": 1e300}),
    "delta_overflow": (GridSpec(4, 4), {"delta": 1e300, "zeta": 0.0}),
}


@pytest.mark.parametrize("case", list(K1_CASES))
def test_k1_blocks_match_the_full_block_expressions(case):
    grid, params = K1_CASES[case]
    M = unit_maxwellian(**params)
    sp = M.spec.species[0]
    with np.errstate(all="ignore"):
        k1 = assemble_k1(grid, M)
        ref = k1_matrix_reference(k1, sp.mass, M.spec.kernel(0, 0), sp.energy.delta)
        assert np.array_equal(bits(k1.matrix), bits(ref))
        assert np.array_equal(bits(k1.symmetry_defect()), bits(symmetry_defect_reference(k1)))
        assert np.array_equal(bits(k1.hs_norm()), bits(hs_norm_reference(k1)))
        assert np.array_equal(bits(k1.row_norms()), bits(row_norms_reference(k1)))
        if case == "zero_C":
            assert k1.symmetry_defect() == 0.0
        if case.endswith("overflow"):
            assert np.isnan(k1.symmetry_defect())


def k1_with_matrix(matrix):
    n = matrix.shape[0]
    return K1Matrix(np.zeros((n, 3)), np.zeros(n), np.ones(n), np.ones(n), matrix)


# ragged last tiles: n one short of, one past and between multiples of _BLOCK
@pytest.mark.parametrize("n", [3, 511, 512, 513, 700, 1023, 1025, 1100, 1537])
def test_symmetry_defect_of_unsymmetric_and_non_finite_matrices(n):
    rng = np.random.default_rng(n)
    base = rng.standard_normal((n, n))
    variants = [base, base + base.T, np.zeros((n, n)), -np.zeros((n, n))]
    for i, j, value in [(n - 1, 0, np.inf), (0, n - 1, -np.inf), (n // 2, 1, np.nan)]:
        bad = base + base.T
        bad[i, j] = value
        variants.append(bad)
    both = base + base.T
    both[1, n - 1] = both[n - 1, 1] = np.inf
    variants.append(both)
    with np.errstate(invalid="ignore"):
        for matrix in variants:
            k1 = k1_with_matrix(matrix)
            assert np.array_equal(bits(k1.symmetry_defect()), bits(symmetry_defect_reference(k1)))


def bounded_memory_case():
    """GridSpec() on the unit Maxwellian, and 3 (_BLOCK, n) float64 buffers."""
    grid = GridSpec()
    n = grid.n_velocity**3 * grid.n_internal
    assert n > k1matrix._BLOCK
    return grid, unit_maxwellian(), n, 3 * k1matrix._BLOCK * n * 8


# numpy reports its data buffers to tracemalloc
def test_k1_assembly_peaks_at_the_matrix_plus_block_buffers():
    grid, M, n, blocks = bounded_memory_case()
    assert traced_peak(lambda: assemble_k1(grid, M)) < n * n * 8 + blocks


def test_symmetry_defect_peaks_below_three_block_buffers():
    grid, M, n, blocks = bounded_memory_case()
    k1 = assemble_k1(grid, M)
    assert traced_peak(k1.symmetry_defect) < blocks
