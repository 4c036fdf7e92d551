"""The oracle hot kernels against direct evaluation and the closed forms."""

import math

import numpy as np
import pytest

from contact3 import Metric3, MilnorParameters, enumerate_unit_geodesics, from_functional, from_milnor
from contact3 import _kernels
from contact3 import metric_geometry as mg
from contact3._kernels import defect_max_batch, monomial_table, refine_batch, residual_batch
from contact3.metric_geometry import _defect_matrices, _sphere_grid


@pytest.fixture(scope="module")
def problem():
    L = from_milnor((3, 0, 0, -1))
    M = _defect_matrices(L.c, Metric3.identity())
    X = _sphere_grid(100)
    return M, X


def _reference_defect_max_batch(M, X):
    # the per-point quadratic-form kernel the monomial table replaced
    return np.abs(np.einsum("ni,kij,nj->nk", X, M, X)).max(axis=1)


def test_defect_matches_direct_evaluation(problem):
    _, X = problem
    P = monomial_table(X)
    assert P.shape == (6, len(X)) and P.flags.c_contiguous
    algebras = [from_milnor((3, 0, 0, -1)), from_milnor((1.5, -0.7, 0.7, 1.5)), from_functional([0.3, -1.2, 0.8])]
    for L in algebras:
        for g in (Metric3.identity(), Metric3(np.diag([1.0, 2.5, 0.4]))):
            M = _defect_matrices(L.c, g)
            want = _reference_defect_max_batch(M, X)
            got = defect_max_batch(M, P.T)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15 * np.abs(M).max())


@pytest.mark.parametrize("grid", [100, 101, 400])
def test_full_grid_is_hemisphere_then_its_negation(grid):
    X = _sphere_grid(grid)
    half = (grid + 1) // 2 * grid
    assert X.shape == (2 * half, 3)
    assert np.array_equal(X[half:], -X[:half])
    assert np.allclose(np.linalg.norm(X, axis=1), 1.0, rtol=0, atol=1e-15)
    # the upper half: z > 0, and the equator row z ~ 0 only for odd grids
    assert (X[:half, 2] > (-1e-15 if grid % 2 else 0.0)).all()
    idx = np.array([0, half // 3, half - 1])
    assert np.array_equal(mg._hemisphere_points(grid, idx), X[idx])


@pytest.mark.parametrize("grid", [100, 101, 203, 400])
def test_block_table_tiles_the_half_lattice(grid):
    X = mg._hemisphere_points(grid)
    B = mg._BLOCK
    nbi, nbj = math.ceil(math.ceil(grid / 2) / B), math.ceil(grid / B)
    nb = nbi * nbj
    centres, radius, P = mg._block_table(grid)
    assert centres.shape == (6, nb) and radius.shape == (nb,) and P.shape == (6, nb, B * B)
    # block nbj bi + bj, slot B si + sj holds lattice row B bi + si and
    # column B bj + sj, where that is on the lattice
    bi, bj, si, sj = np.meshgrid(np.arange(nbi), np.arange(nbj), np.arange(B), np.arange(B), indexing="ij")
    i, j = (B * bi + si).reshape(nb, -1), (B * bj + sj).reshape(nb, -1)
    real = (i < math.ceil(grid / 2)) & (j < grid)
    slot = i * grid + j
    # every half-lattice point sits in exactly one unmasked slot, with its
    # monomial bits; a masked slot repeats a point of its own block
    assert np.array_equal(np.sort(slot[real]), np.arange(len(X)))
    assert np.array_equal(P[:, real], monomial_table(X[slot[real]]))
    for b, s in zip(*np.nonzero(~real)):
        assert any(np.array_equal(P[:, b, s], P[:, b, t]) for t in np.flatnonzero(real[b]))
    # a block spans 7 row and 7 column steps: 3.5 of each from its centre
    assert (radius > 0).all() and radius.max() <= 3.5 * math.pi * math.sqrt(5.0) / grid
    # the prune bound: each point's defect is within lip * radius of its
    # block centre's, with lip = 2 max_k |M_k|_F
    g = Metric3(np.array([[2.0, 0.3, -0.4], [0.3, 1.0, 0.2], [-0.4, 0.2, 0.7]]))
    for L in (from_milnor((3, 0, 0, -1)), from_functional([0.3, -1.2, 0.8])):
        M = _defect_matrices(L.c, g)
        lip = 2.0 * np.linalg.norm(M, axis=(1, 2)).max()
        Fc = defect_max_batch(M, centres.T)
        F = defect_max_batch(M, P.reshape(6, -1).T).reshape(nb, -1)
        assert (np.abs(F - Fc[:, None]).max(axis=1) <= lip * radius).all()


@pytest.mark.parametrize("pqr", [(0.7, 0.4, 1.0), (0.0, 0.3, 1.2), (1.0, 0.0, 1.0), (1.0, 0.5, 1.0)])
def test_refine_is_exactly_odd(pqr):
    M = _defect_matrices(from_milnor(MilnorParameters.from_pqr(*pqr)).c, Metric3.identity())
    scale = np.abs(M).max()
    h = 2.0 * math.pi / 200
    X = _sphere_grid(200)
    X = np.ascontiguousarray(X[defect_max_batch(M, monomial_table(X).T) <= 3.0 * scale * h])
    assert len(X) > 50
    pts, fr = refine_batch(M, X, 3.0 * h, 1e-13 * scale)
    neg, fneg = refine_batch(M, -X, 3.0 * h, 1e-13 * scale)
    assert np.array_equal(neg, -pts)
    assert np.array_equal(fneg, fr)


@pytest.mark.parametrize("p", [1.0, -1.0])
def test_refine_takes_exact_steps_on_a_double_curve(monkeypatch, p):
    # on B2 / C2 one residual vanishes to second order along the circle,
    # where an exact line root lands at once (a Newton step would only
    # halve the distance)
    calls = []
    trial = _kernels._trial

    def counting(*args):
        calls.append(1)
        return trial(*args)

    monkeypatch.setattr(_kernels, "_trial", counting)
    M = _defect_matrices(from_milnor(MilnorParameters.from_pqr(p, 0.0, 1.0)).c, Metric3.identity())
    scale = np.abs(M).max()
    h = 2.0 * math.pi / 200
    X = _sphere_grid(200)
    X = np.ascontiguousarray(X[defect_max_batch(M, monomial_table(X).T) <= 3.0 * scale * h])
    _, fr = refine_batch(M, X, 3.0 * h, 1e-13 * scale)
    assert 0 < len(calls) <= 6
    assert (fr <= 1e-10 * scale).all()


SCALED_SOURCES = {"B2": (1.0, 0.0, 1.0), "B1": (1.0, 0.7, 1.0), "A2": (1.5, 0.5, 1.0), "D": (0.0, 0.8, 1.3)}


@pytest.mark.parametrize("lam", [1e-150, 1e-8, 1e8, 1e150])
@pytest.mark.parametrize("tag", list(SCALED_SOURCES))
def test_oracle_is_scale_safe(tag, lam):
    # the geodesic set does not change under c -> lam c, so the scaled
    # oracle is scored against the unit-scale enumeration
    p, q, r = SCALED_SOURCES[tag]
    enum = enumerate_unit_geodesics(MilnorParameters.from_pqr(p, q, r))
    assert enum.case_tag == tag
    L = from_milnor(MilnorParameters.from_pqr(lam * p, q, lam * r))
    with np.errstate(over="raise", invalid="raise"):
        agr = mg.oracle_match(enum, mg.geodesic_brute_force(L, grid=200), 200)
    assert agr.agreement <= 1e-5
    assert agr.counts_match
    assert agr.family_coverage_gap <= 3.0 * (2.0 * math.pi / 200)


def test_residual_shape(problem):
    M, X = problem
    V = residual_batch(M, X[:7])
    assert V.shape == (7, 3)


def test_refine_lands_on_closed_form_roots(problem):
    M, X = problem
    F = defect_max_batch(M, monomial_table(X).T)
    seeds = np.ascontiguousarray(X[F <= 0.2][:200])
    cap = 3.0 * 2.0 * math.pi / 100
    target = 1e-13 * np.abs(M).max()
    pts, fr = refine_batch(M, seeds, cap, target)
    assert (fr <= 1e-10 * np.abs(M).max()).mean() > 0.95
    # +-e1 and the in-plane roots pi/3, 2pi/3 of (3, 0, 0, -1)
    enum_pts = np.array(
        [[1, 0, 0], [-1, 0, 0],
         [0, math.cos(math.pi / 3), math.sin(math.pi / 3)],
         [0, -math.cos(math.pi / 3), -math.sin(math.pi / 3)],
         [0, math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3)],
         [0, -math.cos(2 * math.pi / 3), -math.sin(2 * math.pi / 3)]]
    )
    good = pts[fr <= 1e-10 * np.abs(M).max()]
    dists = np.linalg.norm(good[:, None, :] - enum_pts[None, :, :], axis=-1).min(axis=1)
    assert dists.max() <= 1e-6


@pytest.mark.parametrize("grid", [101, 201])
def test_odd_grid_oracle_matches_enumeration(grid):
    for params in [(3, 0, 0, -1), (2, 2, 0, 0), (1, 0, 0, 1), MilnorParameters.from_pqr(0.7, 0.4, 1.0)]:
        pts = mg.geodesic_brute_force(from_milnor(params), grid=grid)
        agr = mg.oracle_match(enumerate_unit_geodesics(params), pts, grid)
        assert agr.agreement <= 1e-5
        assert agr.counts_match


@pytest.mark.parametrize("grid", [200, 201, 400])
def test_oracle_scans_block_centres_then_kept_blocks(monkeypatch, grid):
    seen = []

    def counting(M, P):
        seen.append(len(P))
        return defect_max_batch(M, P)

    monkeypatch.setattr(mg._kernels, "defect_max_batch", counting)
    mg.geodesic_brute_force(from_milnor((3, 0, 0, -1)), grid=grid)
    blocks = math.ceil(math.ceil(grid / 2) / mg._BLOCK) * math.ceil(grid / mg._BLOCK)
    assert len(seen) == 2 and seen[0] == blocks
    assert 0 < seen[1] < math.ceil(grid / 2) * grid and seen[1] % mg._BLOCK**2 == 0
    if grid == 400:
        # the full half-lattice scan took 80,000 points
        assert sum(seen) <= 12_000
