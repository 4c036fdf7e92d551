"""The oracle's layers against their reference forms.

The references below are dense: a per-point loop over the cells for the
oracle's dedup to one point per cell, and pairwise-matrix forms of the
scoring, its isolated-cluster count included.  The dedup must match bit
for bit, on synthetic clouds and on the oracle's own refined clouds; the
count must match exactly, also for zeros split across a cell face,
duplicates and clusters at the cluster width; the distances to 1e-15.
The neighbour pairs behind the scoring are checked against a dense scan
of the cells, and the scoring's small-input scan of every row against
the whole cloud must match its cell search bit for bit.  The row-wise
einsum refinement is the reference of the column-wise one on the
monomials, and the whole-sphere scan with the per-point quadratic-form
kernel, that refinement and the dense dedup is the reference of the
hemisphere scan, its upper-half survivors thinned by the dense dedup to
one per cell of side h as the oracle's are; their arithmetic differs in
rounding, so they must agree on the isolated count and stay inside the
verify gates.  The oracle refines exactly that dense dedup of the coarse
scan's survivors, and its thinned cloud must cover the circles at half
the gate with its points chained at half the isolated cut.  The
column-wise refinement as it was before it kept |V| and compacted by
index is the reference of the current one, and the monomial gathers
that of ``monomial_table``: both bit for bit.  The one-contraction scan
of the whole half-lattice is the reference of the block-pruned coarse
scan, which must match it bit for bit.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contact3 import Metric3, MilnorParameters, from_functional, from_milnor
from contact3 import _kernels
from contact3 import metric_geometry as mg
from contact3._kernels import defect_max_batch, monomial_table, refine_batch, residual_batch
from contact3.metric_geometry import (
    _coarse_scan,
    _defect_matrices,
    _hemisphere_points,
    _cell_dedup,
    _nearest_distance,
    _neighbour_pairs,
    _sphere_grid,
    enumerate_unit_geodesics,
    geodesic_brute_force,
    oracle_match,
)
from contact3.verify import CASE_TAGS, sample_functional, sample_params


def _reference_dedup(points, defects, radius):
    # per cell of side radius, the first point of lowest defect in index order
    best = {}
    for i, key in enumerate(map(tuple, np.floor(points / radius).tolist())):
        if key not in best or defects[i] < defects[best[key]]:
            best[key] = i
    return points[sorted(best.values())]


def _canonical(points):
    # rows in lexicographic order, for comparing clouds with no promised order
    return points[np.lexsort(points.T[::-1])]


def _reference_refine_batch(M, X0, step_cap, target):
    # the row-wise refinement the column-wise one replaced: residuals by the
    # per-point quadratic form, the worst one's gradient by einsum, and the
    # root nearest 0 of that residual along its gradient
    X = X0.copy()
    V = residual_batch(M, X)
    F = np.abs(V).max(axis=1)
    scale = max(float(np.abs(M).max()), 1e-300)
    active = F > target
    for _ in range(80):
        if not active.any():
            break
        idx = np.nonzero(active)[0]
        Xa, Va = X[idx], V[idx]
        worst = np.argmax(np.abs(Va), axis=1)
        rows = np.arange(len(idx))
        va = Va[rows, worst]
        grad = 2.0 * np.einsum("nij,nj->ni", M[worst], Xa)
        grad -= np.einsum("ni,ni->n", grad, Xa)[:, None] * Xa
        gn2 = np.einsum("ni,ni->n", grad, grad)
        ok = gn2 > 1e-30 * scale * scale
        step = np.zeros_like(Xa)
        gn = np.sqrt(gn2[ok])
        unit = grad[ok] / gn[:, None]
        u = va[ok] / gn2[ok]
        # x^T M x at x - t grad is va - t gn2 + t^2 gn2 (unit^T M unit)
        disc = 1.0 - 4.0 * u * np.einsum("ni,nij,nj->n", unit, M[worst[ok]], unit)
        t = 2.0 * u / (1.0 + np.sqrt(np.where(disc > 1e-12, disc, 0.0)))
        step[ok] = -t[:, None] * grad[ok]
        lens = np.linalg.norm(step, axis=1)
        clip = lens > step_cap
        step[clip] *= (step_cap / lens[clip])[:, None]
        Y = Xa + step
        Y /= np.linalg.norm(Y, axis=1, keepdims=True)
        VY = residual_batch(M, Y)
        better = ok & (np.abs(VY[rows, worst]) < 0.9 * np.abs(va))
        X[idx[better]], V[idx[better]] = Y[better], VY[better]
        F[idx] = np.abs(V[idx]).max(axis=1)
        active[idx] = (F[idx] > target) & better
    return X, F


def _gather_monomials(X):
    # the monomial table as two fancy-index gathers of the columns of X^T
    i, j = _kernels._MONOMIALS
    return X.T[i] * X.T[j]


def _parent_refine_batch(M, X0, step_cap, target):
    # the column-wise refinement before it kept |V|: the worst residual
    # chosen by comparisons, its gradient gathered from the 9 rows of
    # 2 M x, boolean-mask compaction, and monomials by gathers
    C = _kernels._coefficients(M)
    G = 2.0 * M.reshape(9, 3)
    scale = max(float(np.abs(M).max()), 1e-300)

    def residual(X):
        return np.einsum("mk,mn->kn", C, _gather_monomials(X.T))

    X = X0.T.copy()
    V = residual(X)
    F = np.abs(V).max(axis=0)
    live = np.flatnonzero(F > target)
    Xa, Va = np.take(X, live, axis=1), np.take(V, live, axis=1)
    for _ in range(_kernels._MAX_STEPS):
        m = len(live)
        if not m:
            break
        A = np.abs(Va)
        w = np.maximum(A[1] > A[0], 2 * (A[2] > np.maximum(A[0], A[1])))
        pick = w * m + np.arange(m)
        va = np.take(Va, pick)
        grad = np.take(np.einsum("kj,jn->kn", G, Xa), (pick + 2 * m * w) + m * np.arange(3)[:, None])
        grad -= np.einsum("in,in->n", grad, Xa) * Xa
        gn2 = np.einsum("in,in->n", grad, grad)
        ok = gn2 > 1e-30 * scale * scale
        if not ok.all():
            gn2[~ok] = 1.0
        gn = np.sqrt(gn2)
        u = va / gn2
        disc = 1.0 - 4.0 * u * np.take(residual(grad / gn), pick)
        t = 2.0 * u / (1.0 + np.sqrt(np.where(disc > 1e-12, disc, 0.0)))
        lim = step_cap / gn
        Y = Xa - grad * np.clip(t, -lim, lim)
        Y /= np.sqrt(np.einsum("in,in->n", Y, Y))
        VY = residual(Y)
        better = (np.abs(np.take(VY, pick)) < 0.9 * np.abs(va)) & ok
        if not better.all():
            Y[:, ~better], VY[:, ~better] = Xa[:, ~better], Va[:, ~better]
        Xa, Va = Y, VY
        Fa = np.abs(Va).max(axis=0)
        go = (Fa > target) & better
        if not go.all():
            X[:, live[~go]], F[live[~go]] = Xa[:, ~go], Fa[~go]
            live, Xa, Va = live[go], Xa[:, go], Va[:, go]
    X[:, live] = Xa
    F[live] = np.abs(Va).max(axis=0)
    return X.T.copy(), F


def _reference_coarse_scan(M, grid, tau):
    # the scan the block prefilter replaced: every half-lattice point in
    # one defect_max_batch call
    F = defect_max_batch(M, monomial_table(_hemisphere_points(grid)).T)
    idx = np.flatnonzero(F <= tau)
    return idx, F[idx]


def _reference_brute_force(L, grid):
    # every lattice row, defects by the per-point quadratic form; the
    # upper-half survivors thinned to one per cell of side h by the dense
    # dedup, and those seeds and their negations refined by the row-wise
    # reference
    M = _defect_matrices(L.c, Metric3.identity())
    scale = float(np.abs(M).max())
    th = math.pi * (np.arange(grid) + 0.5) / grid
    ph = 2.0 * math.pi * np.arange(grid) / grid
    TH, PH = np.meshgrid(th, ph, indexing="ij")
    X = np.stack([np.sin(TH) * np.cos(PH), np.sin(TH) * np.sin(PH), np.cos(TH)], axis=-1).reshape(-1, 3)
    F = np.abs(np.einsum("ni,kij,nj->nk", X, M, X)).max(axis=1)
    h = 2.0 * math.pi / grid
    upper = np.arange(len(X)) < (grid + 1) // 2 * grid
    hit = upper & (F <= 3.0 * scale * h)
    thinned = _reference_dedup(X[hit], F[hit], h)
    seeds = np.ascontiguousarray(np.concatenate([thinned, -thinned]))
    refined, fr = _reference_refine_batch(M, seeds, 3.0 * h, 1e-13 * scale)
    ok = fr <= 1e-10 * scale
    return _reference_dedup(refined[ok], fr[ok], 1e-3)


def _reference_circle_distance(fam, x):
    n = fam.normal
    y = x - (x @ n) * n
    ny = np.linalg.norm(y)
    if ny < 1e-15:
        return math.sqrt(2.0)
    return float(np.linalg.norm(x - y / ny))


def _reference_distance_to_set(enum, x):
    best = math.inf
    for p in enum.discrete:
        best = min(best, float(np.linalg.norm(x - p)))
    for fam in enum.families:
        if fam.angles is None:
            best = min(best, _reference_circle_distance(fam, x))
        else:
            for t in fam.angles:
                best = min(best, float(np.linalg.norm(x - fam.point(t))), float(np.linalg.norm(x + fam.point(t))))
    return best


def _reference_cluster_count(pts, radius, within=2.0 * mg._MERGE_RADIUS):
    # rows with no lower row within radius and no row at a distance in
    # (within, radius], from the dense distance matrix (built in row
    # chunks to bound memory); "within" compares d2 with within^2, as the
    # scoring does
    n = 0
    for s in range(0, len(pts), 256):
        d2 = ((pts[s : s + 256, None, :] - pts[None, :, :]) ** 2).sum(axis=-1)
        near = np.sqrt(d2) <= radius
        lower = np.arange(len(pts)) < np.arange(s, s + len(d2))[:, None]
        n += int((~(near & (lower | (d2 > within * within)))).all(axis=1).sum())
    return n


def _reference_oracle_match(enum, points, grid):
    pts = np.array([np.asarray(p, float) for p in points])
    d_o2s = max(_reference_distance_to_set(enum, x) for x in pts)
    iso = enum.isolated_points()
    d_i2o = 0.0
    for p in iso:
        d_i2o = max(d_i2o, float(np.linalg.norm(pts - p, axis=1).min()))
    n_iso = _reference_cluster_count(pts, 3.5 * (2.0 * math.pi / grid))
    gap = 0.0
    for fam in enum.families:
        if fam.angles is not None:
            continue
        ts = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
        samples = np.cos(ts)[:, None] * fam.u + np.sin(ts)[:, None] * fam.v
        dists = np.linalg.norm(samples[:, None, :] - pts[None, :, :], axis=-1).min(axis=1)
        gap = max(gap, float(dists.max()))
    return d_o2s, d_i2o, gap, n_iso, len(iso)


def _unit_rows(v):
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _chain(rng, n, spacing):
    # a great-circle arc in a random plane, points `spacing` apart in angle
    u, w = np.linalg.qr(rng.standard_normal((3, 2)))[0].T
    t = spacing * np.arange(n) + rng.uniform(0, 2 * math.pi)
    return np.cos(t)[:, None] * u + np.sin(t)[:, None] * w


def _sources():
    rng = np.random.default_rng(11)
    for tag in CASE_TAGS:
        for _ in range(2):
            if tag == "E":
                l = sample_functional(rng)
                yield tag, from_functional(l), enumerate_unit_geodesics(functional=l)
            else:
                params = sample_params(rng, tag)
                yield tag, from_milnor(params), enumerate_unit_geodesics(params)


RADIUS = 1e-3


def _clouds():
    rng = np.random.default_rng(7)
    centres = _unit_rows(rng.standard_normal((40, 3)))
    tight = _unit_rows(np.repeat(centres, 30, axis=0) + 3e-4 * rng.standard_normal((1200, 3)))
    chains = np.concatenate(
        [
            _chain(rng, 400, RADIUS * f) + 1e-6 * rng.standard_normal((400, 3))
            for f in (0.5, 0.999, 1.0, 1.001, 1.5)
        ]
    )
    base = _unit_rows(rng.standard_normal((50, 3)))
    duplicates = np.concatenate([base, base, base[::2]])
    # points mirrored across the cell face x = 0, 1.2 radius apart, and
    # points on that face
    y, z = rng.uniform(0.1, 0.6, 20), rng.uniform(0.1, 0.7, 20)
    a = np.stack([np.full(20, 0.6 * RADIUS), y, z], axis=1)
    ties = np.concatenate([a, a * [-1.0, 1.0, 1.0], a * [0.0, 1.0, 1.0] - [0.0, 0.0, 0.5 * RADIUS]])
    # clusters straddling cell corners, so neighbours sit in diagonal cells
    corners = RADIUS * (
        np.repeat(rng.integers(-900, 900, (30, 3)), 8, axis=0) + rng.uniform(-0.4, 0.4, (240, 3))
    )
    # eight distinct points in each of 150 cells of a small box, in shuffled
    # order: with equal defects each cell keeps its lowest index, which is
    # rarely its first in any sort by cell
    cells = rng.choice(np.stack(np.meshgrid(*[np.arange(-6, 7)] * 3), -1).reshape(-1, 3), 150, replace=False)
    same_cell = rng.permutation(RADIUS * (np.repeat(cells, 8, axis=0) + rng.uniform(0.05, 0.95, (1200, 3))))
    return {
        "tight": tight,
        "corners": corners,
        "chains": chains,
        "duplicates": duplicates,
        "ties": ties,
        "single": base[:1],
        "same-cell": same_cell,
    }


def _oracle_sources():
    return {f"{tag}-{k % 2}": L for k, (tag, L, _) in enumerate(_sources())}


def _oracle_cloud(monkeypatch, L):
    # the [pts, -pts] cloud and defects that geodesic_brute_force dedups at
    # grid 200: its call at _MERGE_RADIUS, not the seed thinning at side h
    seen = []
    dedup = mg._cell_dedup
    monkeypatch.setattr(mg, "_cell_dedup", lambda p, d, r: seen.append((p, d, r)) or dedup(p, d, r))
    geodesic_brute_force(L, grid=200)
    (cloud,) = [(p, d) for p, d, r in seen if r == mg._MERGE_RADIUS]
    return cloud


@pytest.mark.parametrize(
    "defect_kind, name",
    [(k, n) for k in ("equal", "random") for n in ("tight", "corners", "chains", "duplicates", "ties", "single")]
    + [(k, "same-cell") for k in ("equal", "random")]
    + [(k, n) for k in ("equal", "oracle") for n in _oracle_sources()],
)
def test_merge_matches_dense_reference(monkeypatch, defect_kind, name):
    sources = _oracle_sources()
    if name in sources:
        points, defects = _oracle_cloud(monkeypatch, sources[name])
        if name[:2] in ("B2", "C2"):
            # the circles through the axes put coordinates exactly on cell faces
            assert np.any(points == 0.0) and np.any(np.signbit(points[points == 0.0]))
    else:
        points = _clouds()[name]
    rng = np.random.default_rng(len(points))
    if defect_kind == "random":
        defects = rng.random(len(points))
    elif defect_kind == "equal":
        defects = np.full(len(points), 1e-12)
    got = _cell_dedup(points, defects, RADIUS)
    want = _reference_dedup(points, defects, RADIUS)
    assert _canonical(got).tobytes() == _canonical(want).tobytes()


@pytest.mark.parametrize("exclude", [False, True])
def test_nearest_distance_matches_dense_minimum(exclude):
    rng = np.random.default_rng(5)
    b = _unit_rows(rng.standard_normal((600, 3)))
    a = _unit_rows(rng.standard_normal((400, 3)))
    dense = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=-1)
    # nearest distances here spread across 0.5 to 3 radii: both the cell
    # index and the exhaustive scan answer some rows
    radius = float(np.median(dense.min(axis=1)))
    after, within = None, 0.0
    if exclude:
        # a is every other row of b; row i ignores the rows j >= after[i]
        # within `within` of it, itself included, except every fifth row,
        # whose after is len(b): it finds itself
        a = b[::2]
        after = np.arange(0, 600, 2)
        after[::5] = len(b)
        within = 0.8 * radius
        d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=-1)
        d2[(np.arange(len(b)) >= after[:, None]) & (d2 <= within * within)] = np.inf
        dense = np.sqrt(d2)
        assert np.all(dense[::5].min(axis=1) == 0.0) and np.isinf(dense.min(axis=1)).sum() == 0
    assert np.array_equal(_nearest_distance(a, b, radius, after, within), dense.min(axis=1))
    assert _nearest_distance(b[:1], b[:1], radius, np.zeros(1, dtype=int))[0] == math.inf
    # after = len(b) ignores no row, also in the scan beyond the cells, and
    # the rows ignored there are only those within `within`
    b = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 2.5]])
    far = np.array([[0.0, 0.0, 2.0]])
    assert _nearest_distance(far, b, 0.1, np.array([3]), 0.6)[0] == 0.5
    assert _nearest_distance(far, b, 0.1, np.array([1]), 0.6)[0] == 1.0
    assert _nearest_distance(far, b, 0.1, np.array([1]), 1.5)[0] == 2.0


def _both_scans(monkeypatch, f, *args):
    # f's result with every _nearest_distance call scanning all rows of a
    # against b, and with every call searching the cells first
    got = []
    for dense in (1 << 62, 0):
        monkeypatch.setattr(mg, "_DENSE_PAIRS", dense)
        got.append(f(*args))
    return got


@pytest.mark.parametrize("name", ["faces", "diagonals", "single", "duplicates", "axis-zeros", "wide-clusters"])
def test_small_cloud_scan_is_the_cell_search(monkeypatch, name):
    pts = _isolated_clouds()[name]
    args = (pts, pts, ISO_RADIUS, np.arange(len(pts)), 2.0 * mg._MERGE_RADIUS)
    dense, cells = _both_scans(monkeypatch, _nearest_distance, *args)
    assert dense.tobytes() == cells.tobytes()


@pytest.mark.parametrize("tag, L, enum", list(_sources()))
def test_oracle_match_is_the_same_with_either_scan(monkeypatch, tag, L, enum):
    pts = geodesic_brute_force(L, grid=200)
    dense, cells = _both_scans(monkeypatch, oracle_match, enum, pts, 200)
    assert repr(dataclasses.astuple(dense)) == repr(dataclasses.astuple(cells))


@pytest.mark.parametrize("tag, L, enum", list(_sources()))
def test_oracle_match_matches_dense_reference(tag, L, enum):
    pts = geodesic_brute_force(L, grid=200)
    agr = oracle_match(enum, pts, 200)
    d_o2s, d_i2o, gap, n_iso, n_enum = _reference_oracle_match(enum, pts, 200)
    assert (agr.n_isolated_oracle, agr.n_isolated_enum) == (n_iso, n_enum)
    assert agr.max_oracle_to_set == pytest.approx(d_o2s, rel=0, abs=1e-15)
    assert agr.max_isolated_to_oracle == pytest.approx(d_i2o, rel=0, abs=1e-15)
    assert agr.family_coverage_gap == pytest.approx(gap, rel=0, abs=1e-15)


@pytest.mark.parametrize("tag, L, enum", [s for s in _sources() if s[0] in ("B1", "B2", "C1", "C2")])
def test_oracle_lands_on_the_circles(tag, L, enum):
    # each refined point is an exact root along its step, so on the full
    # circles it sits on the enumerated set to rounding
    assert oracle_match(enum, geodesic_brute_force(L, grid=200), 200).agreement <= 1e-14


def test_oracle_match_lone_point_is_isolated():
    enum = enumerate_unit_geodesics(functional=np.array([1.0, 0.0, 0.0]))
    agr = oracle_match(enum, [np.array([-1.0, 0.0, 0.0])], 200)
    assert agr.n_isolated_oracle == 1
    assert agr.max_oracle_to_set == 0.0


# the isolation radius 3.5 h of oracle_match at this grid, about 0.05
ISO_GRID = 440
ISO_RADIUS = 3.5 * (2.0 * math.pi / ISO_GRID)


def _isolated_count(pts, grid=ISO_GRID):
    # the count does not look at the enumeration
    return oracle_match(enumerate_unit_geodesics(functional=[1.0, 0.0, 0.0]), list(pts), grid).n_isolated_oracle


def _isolated_clouds():
    rng = np.random.default_rng(23)
    r = ISO_RADIUS
    # pairs (rounded) radius apart across faces of the cells of side radius
    # and radius / 2, one pair per site and sites 4 radii apart
    sites = 4.0 * r * rng.permutation(np.stack(np.meshgrid(*[np.arange(-3, 4)] * 3), -1).reshape(-1, 3))[:60]
    sites = np.concatenate([sites[:20], np.nextafter(sites[20:40], -np.inf), sites[40:] + r / 2])
    step = r * np.eye(3)[rng.integers(0, 3, 60)]
    faces = np.concatenate([sites, sites + step, sites[::3] - step[::3]])
    # lone points just inside and just outside radius of crowded chains:
    # offsets along a chain's normal, and past its ends
    chains, lone = [], []
    for f in (0.1, 0.25, 0.45):
        u, w = np.linalg.qr(rng.standard_normal((3, 2)))[0].T
        t = r * f * np.arange(120)
        chain = np.cos(t)[:, None] * u + np.sin(t)[:, None] * w
        # one offset per chain point, the points 24 steps (2.4 radii or more) apart
        d = np.array([0.6, 1.0 - 1e-9, 1.0 + 1e-9, 1.0 + 1e-6, 2.5])
        lone.append(chain[12::24] + (d * r)[:, None] * np.cross(u, w))
        lone.append([chain[0] - (1.0 + 1e-9) * r * w])
        chains.append(chain)
    # pairs along a cell diagonal: 1.3 and 1.005 radii apart within one
    # cell of side radius (or radius / 1.7), and 0.85 radii apart within
    # one of side radius / 2
    corners = 4.0 * r * rng.permutation(np.stack(np.meshgrid(*[np.arange(-3, 4)] * 3), -1).reshape(-1, 3))[:40]
    corners += 0.001 * r
    diagonals = np.concatenate([corners, corners + r * np.repeat([0.75, 0.58, 0.49], [15, 10, 15])[:, None]])
    # clusters at the cluster width 2 _MERGE_RADIUS, 4 radii apart: three
    # points just under it across (one cluster each), two just over it (none)
    sites = 4.0 * r * rng.permutation(np.stack(np.meshgrid(*[np.arange(-3, 4)] * 3), -1).reshape(-1, 3))[:40]
    u = _unit_rows(rng.standard_normal((40, 3)))
    width = 2.0 * mg._MERGE_RADIUS * np.repeat([1.0 - 1e-6, 1.0 + 1e-6], 20)[:, None]
    wide = rng.permutation(np.concatenate([sites, sites + width * u, sites[:20] + 0.5 * width[:20] * u[:20]]))
    base = _unit_rows(np.random.default_rng(24).standard_normal((40, 3)))
    return {
        "faces": faces,
        "diagonals": diagonals,
        "lone-by-chains": np.concatenate([*chains, *lone]),
        "chains": np.concatenate(chains),
        "single": base[:1],
        "duplicates": np.concatenate([base, base[:10], base[5:25]]),
        "cell-cloud": _cell_cloud(rng, r / 2),
        "axis-zeros": _axis_zeros(),
        "wide-clusters": wide,
    }


def _axis_zeros():
    # each of +-e_k as 4 points 2e-19 apart, split by the cell faces at 0 of
    # the two other coordinates, as the oracle's dedup leaves an axis zero
    s = np.array([[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]]) * 1e-19
    return np.concatenate([np.insert(s, k, sign, axis=1) for k in range(3) for sign in (1.0, -1.0)])


@pytest.mark.parametrize(
    "name",
    ["faces", "diagonals", "lone-by-chains", "chains", "single", "duplicates", "cell-cloud"]
    + ["axis-zeros", "wide-clusters"],
)
def test_isolated_count_matches_dense_reference(name):
    pts = _isolated_clouds()[name]
    want = _reference_cluster_count(pts, ISO_RADIUS)
    assert _isolated_count(pts) == want
    # each kind of cloud exercises what its name says; exact duplicates
    # and the points of one axis zero count once
    expected = {"diagonals": 50, "chains": 0, "single": 1, "duplicates": 40, "axis-zeros": 6, "wide-clusters": 20}
    if name in expected:
        assert want == expected[name]
    else:
        assert 0 < want < len(pts)


def test_isolated_count_of_the_pair_two_cells_apart():
    # z = -5e-324 has cell key -1 at side radius, z = radius has key 1
    for z, want in ((ISO_RADIUS, 0), (np.nextafter(ISO_RADIUS, 1.0), 2)):
        pts = np.array([[0.0, 0.0, -5e-324], [0.0, 0.0, z]])
        assert np.linalg.norm(pts[0] - pts[1]) == z
        assert _isolated_count(pts) == _reference_cluster_count(pts, ISO_RADIUS) == want


def test_cluster_counted_at_its_centre_spans_twice_the_cluster_width():
    # three points on a line in one cell of side 1.75 h, the ends just
    # under 2 _MERGE_RADIUS from the centre: the centre counts when it has
    # the lowest index, and nothing counts when an end has it
    w = 2.0 * mg._MERGE_RADIUS * (1.0 - 1e-6)
    centre = 1.75 * (2.0 * math.pi / ISO_GRID) * np.array([10.5, 3.5, -2.5])
    pts = centre + np.array([[0.0, 0.0, 0.0], [-w, 0.0, 0.0], [w, 0.0, 0.0]])
    for order, want in (([0, 1, 2], 1), ([1, 0, 2], 0)):
        assert _isolated_count(pts[order]) == _reference_cluster_count(pts[order], ISO_RADIUS) == want


def test_axis_zeros_survive_the_dedup_as_one_cluster_each():
    # the raw cloud holds each split point three times, with random defects
    pts = np.tile(_axis_zeros(), (3, 1))
    cloud = _cell_dedup(pts, np.random.default_rng(41).random(len(pts)), mg._MERGE_RADIUS)
    assert len(cloud) == 24
    assert _isolated_count(cloud) == _reference_cluster_count(cloud, ISO_RADIUS) == 6


def _circle_source_400():
    rng = np.random.default_rng(29)
    params = sample_params(rng, "B1")
    return from_milnor(params), enumerate_unit_geodesics(params)


def test_isolated_count_on_a_grid_400_circle_source():
    L, enum = _circle_source_400()
    pts = np.array(geodesic_brute_force(L, grid=400))
    assert len(pts) > 1000
    radius = 3.5 * (2.0 * math.pi / 400)
    assert _isolated_count(pts, 400) == _reference_cluster_count(pts, radius)


def _gap_probes(enum, pts, rng):
    ts = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
    probes = [_unit_rows(rng.standard_normal((200, 3))), np.array(enum.isolated_points()).reshape(-1, 3), pts[::7]]
    for fam in enum.families:
        if fam.angles is None:
            probes.append(np.cos(ts)[:, None] * fam.u + np.sin(ts)[:, None] * fam.v)
    return np.concatenate(probes)


@pytest.mark.parametrize("grid", [200, 400])
def test_nearest_distance_is_independent_of_the_cell_radius(grid):
    # oracle_match searches its one query set, family gap probes included,
    # in cells of side 1.75 h rather than 3.5 h
    rng = np.random.default_rng(31)
    sources = list(_sources()) if grid == 200 else [("B1", *_circle_source_400())]
    h = 2.0 * math.pi / grid
    for _, L, enum in sources:
        pts = np.array(geodesic_brute_force(L, grid=grid))
        x = _gap_probes(enum, pts, rng)
        got = [_nearest_distance(x, pts, f * h) for f in (0.5, 1.0, 1.75, 3.5)]
        assert all(np.array_equal(got[0], d) for d in got[1:])
        dense = [np.linalg.norm(x[s : s + 256, None] - pts[None], axis=-1).min(axis=1) for s in range(0, len(x), 256)]
        assert np.array_equal(got[0], np.concatenate(dense))


@pytest.mark.parametrize("tag, L, enum", list(_sources())[::2])
def test_batched_distance_matches_per_row(tag, L, enum):
    rng = np.random.default_rng(3)
    probes = [_unit_rows(rng.standard_normal((50, 3))), np.array(enum.isolated_points()).reshape(-1, 3)]
    for fam in enum.families:
        probes.append(np.array([fam.point(0.3), fam.normal, -fam.normal]))
    x = np.concatenate(probes)
    batched = enum.distance_to_set(x)
    per_row = np.array([enum.distance_to_set(row) for row in x])
    assert isinstance(enum.distance_to_set(x[0]), float)
    assert np.array_equal(batched, per_row)
    reference = [_reference_distance_to_set(enum, row) for row in x]
    np.testing.assert_allclose(batched, reference, rtol=0, atol=1e-15)
    for fam in enum.families:
        if fam.angles is None:
            d = fam.distance(x)
            assert np.array_equal(d, [fam.distance(row) for row in x])
            assert fam.distance(fam.normal) == math.sqrt(2.0)


@pytest.mark.parametrize("tag, L, enum", list(_sources()))
def test_hemisphere_scan_matches_whole_sphere_reference(tag, L, enum):
    grid = 200
    got = oracle_match(enum, geodesic_brute_force(L, grid=grid), grid)
    ref_pts = _reference_brute_force(L, grid)
    ref = oracle_match(enum, ref_pts, grid)
    assert got.n_isolated_oracle == ref.n_isolated_oracle == ref.n_isolated_enum
    assert max(got.agreement, ref.agreement) <= 1e-5
    assert got.family_coverage_gap <= 3.0 * (2.0 * math.pi / grid)
    assert got.family_coverage_gap == pytest.approx(ref.family_coverage_gap, rel=0, abs=0.1 * 2.0 * math.pi / grid)


def _dense_pairs(a, b, radius):
    # every (row, col) with b[col] in the 27 cells around a[row], by brute force
    ka, kb = np.floor(a / radius), np.floor(b / radius)
    near = np.abs(ka[:, None, :] - kb[None, :, :]).max(axis=-1) <= 1
    return set(zip(*np.nonzero(near)))


def _cell_cloud(rng, radius):
    # points on cell faces, edges and corners (exact multiples of radius)
    # and their neighbours one ulp away, among random points
    lattice = radius * rng.integers(-6, 6, (60, 3)).astype(float)
    faces = lattice + radius * rng.random((60, 3)) * (rng.random((60, 3)) < 0.5)
    return np.concatenate(
        [lattice, np.nextafter(lattice, -np.inf), faces, radius * rng.uniform(-6, 6, (200, 3))]
    )


@pytest.mark.parametrize("block", [1 << 18, 40])
def test_neighbour_pairs_match_dense_scan(monkeypatch, block):
    monkeypatch.setattr(mg, "_BLOCK_PAIRS", block)
    rng = np.random.default_rng(19)
    radius = 0.05
    a, b = _cell_cloud(rng, radius), _cell_cloud(rng, radius)
    blocks = list(_neighbour_pairs(a, b, radius))
    rows, cols, d2 = (np.concatenate(x) for x in zip(*blocks))
    assert set(zip(rows, cols)) == _dense_pairs(a, b, radius)
    assert len(rows) == len(set(zip(rows, cols)))
    assert np.all(np.diff(rows) >= 0)
    # a row never spans two blocks, and a block overflows only by one row
    last = [blk[0][-1] for blk in blocks if len(blk[0])]
    first = [blk[0][0] for blk in blocks if len(blk[0])]
    assert all(l < f for l, f in zip(last, first[1:]))
    assert all(len(blk[0]) <= block or blk[0][0] == blk[0][-1] for blk in blocks)
    assert np.array_equal(d2, ((a[rows] - b[cols]) ** 2).sum(axis=-1))
    # every pair closer than radius is there, up to the rounding of the
    # cell keys: a point a hair below a face and one exactly radius past
    # it are two cells apart at rounded distance radius
    dense = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=-1) < (1.0 - 1e-12) * radius * radius
    assert set(zip(*np.nonzero(dense))) <= set(zip(rows, cols))


def test_neighbour_pairs_of_the_empty_set():
    assert list(_neighbour_pairs(np.zeros((0, 3)), np.ones((4, 3)), 0.1)) == []


def test_neighbour_pairs_overflow_raises():
    r = 1e-3
    # ids reach (2w)^3 / 2 with w the largest |cell key| + 2: 2w = 2^21
    # is the first to overflow int64
    fits = np.array([[(2**20 - 3) * r, 0.0, 0.0]])
    assert len(next(_neighbour_pairs(fits, fits, r))[0]) == 1
    # three pairs of points in adjacent cells, and a seventh point in the
    # sixth one's cell, at keys of magnitude 2^20 - 3
    k = 2**20 - 3
    pts = r * np.array(
        [
            [k + 0.1, 0.5, 0.5],
            [k - 0.3, 0.5, 0.5],
            [-k + 0.9, -k + 0.9, -k + 0.9],
            [-k + 1.1, -k + 1.1, -k + 1.1],
            [k - 1.1, k + 0.1, k - 1.1],
            [k - 0.9, k + 0.3, k - 0.9],
            [k - 0.8, k + 0.4, k - 0.8],
        ]
    )
    assert np.abs(np.floor(pts / r)).max() == k
    defects = np.array([2.0, 1.0, 1.0, 2.0, 3.0, 3.0, 3.0])
    got = _cell_dedup(pts, defects, r)
    assert len(got) == 6 and np.array_equal(_canonical(got), _canonical(_reference_dedup(pts, defects, r)))
    for big in ([[2**20 * r, 0.0, 0.0]], [[0.0, 0.0, -1e6]], [[1e300, 0.0, 0.0]], [[(k + 1) * r, 0.0, 0.0]]):
        with pytest.raises(ValueError):
            list(_neighbour_pairs(np.array(big), np.zeros((1, 3)), r))
        with pytest.raises(ValueError):
            _nearest_distance(np.zeros((1, 3)), np.array(big), r)
        with pytest.raises(ValueError):
            _cell_dedup(np.array(big), np.zeros(1), r)
    with pytest.raises(ValueError):
        _cell_dedup(np.array([[1e6, 0.0, 0.0]]), np.zeros(1), r)


@pytest.mark.parametrize("tag, L, enum", list(_sources()))
def test_refine_matches_rowwise_reference(tag, L, enum):
    grid = 200
    M = _defect_matrices(L.c, Metric3.identity())
    scale = float(np.abs(M).max())
    h = 2.0 * math.pi / grid
    X = _sphere_grid(grid)
    seeds = np.ascontiguousarray(X[defect_max_batch(M, monomial_table(X).T) <= 3.0 * scale * h])
    args = (3.0 * h, 1e-13 * scale)
    got, fg = refine_batch(M, seeds, *args)
    want, fw = _reference_refine_batch(M, seeds, *args)
    assert got.shape == want.shape and got.flags.c_contiguous
    keep = 1e-10 * scale
    assert np.array_equal(fg <= keep, fw <= keep)
    # both settle each seed on the same point; on the full circles of the
    # B tags a seed whose two paths part at a near-tie of the worst
    # residual (under 0.2% of them) lands elsewhere on its circle
    apart = np.linalg.norm(got - want, axis=1) > 1e-9
    assert apart.mean() <= 2e-3
    assert not apart.any() or (tag in ("B1", "B2") and (fg[apart] <= keep).all())
    # the defects returned are the scan kernel's on the returned points
    assert np.array_equal(fg, defect_max_batch(M, monomial_table(got).T))


def _grid_seeds(M, grid):
    # the points of the whole lattice within the oracle's coarse cut
    X = _sphere_grid(grid)
    scale = float(np.abs(M).max())
    return np.ascontiguousarray(X[defect_max_batch(M, monomial_table(X).T) <= 3.0 * scale * 2.0 * math.pi / grid])


def _oracle_seeds(M, grid=400):
    # the coarse survivors of geodesic_brute_force: a superset of the seeds
    # it refines, one survivor per cell of side h
    scale = float(np.abs(M).max())
    return _hemisphere_points(grid, _coarse_scan(M, scale, grid, 3.0 * scale * 2.0 * math.pi / grid)[0])


def _assert_refine_is_the_parents(M, seeds, grid):
    h = 2.0 * math.pi / grid
    args = (M, seeds, 3.0 * h, 1e-13 * float(np.abs(M).max()))
    for got, want in zip(refine_batch(*args), _parent_refine_batch(*args)):
        assert np.array_equal(got, want) and got.tobytes() == want.tobytes()


def _identity_defects(L):
    return _defect_matrices(L.c, Metric3.identity())


@pytest.mark.parametrize("tag, L, enum", list(_sources()))
def test_refine_is_the_parents_refinement(tag, L, enum):
    M = _identity_defects(L)
    _assert_refine_is_the_parents(M, _grid_seeds(M, 200), 200)


def test_refine_is_the_parents_on_the_b2_circle_through_the_pole():
    M = _identity_defects(from_milnor(MilnorParameters.from_pqr(1.0, 0.0, 1.0)))
    seeds = _oracle_seeds(M)
    assert len(seeds) > 18_000
    _assert_refine_is_the_parents(M, seeds, 400)


def _circle_sources():
    return [(tag, L, enum) for tag, L, enum in _sources() if tag in ("B1", "B2", "C1", "C2")]


@pytest.mark.parametrize("grid", [200, 400])
@pytest.mark.parametrize("tag, L, enum", _circle_sources())
def test_oracle_refines_one_coarse_survivor_per_cell_of_side_h(monkeypatch, grid, tag, L, enum):
    seen = []
    refine = _kernels.refine_batch
    monkeypatch.setattr(_kernels, "refine_batch", lambda M, X, *args: seen.append(X) or refine(M, X, *args))
    pts = geodesic_brute_force(L, grid=grid)
    (seeds,) = seen
    # the seeds are the dense dedup, at side h, of the survivors of the
    # whole half-lattice scan, with their coarse defects
    M = _identity_defects(L)
    h = 2.0 * math.pi / grid
    idx, F = _reference_coarse_scan(M, grid, 3.0 * float(np.abs(M).max()) * h)
    assert _canonical(seeds).tobytes() == _canonical(_reference_dedup(_hemisphere_points(grid, idx), F, h)).tobytes()
    assert len(np.unique(np.floor(seeds / h), axis=0)) == len(seeds)
    if tag == "B2":
        # its circle crowds the lattice rows at the pole
        assert 2 * len(seeds) <= len(idx)
    # the thinned cloud still covers the circles at half the verify gate,
    # and its circle points stay chained at half the isolated cut 3.5 h
    assert oracle_match(enum, pts, grid).family_coverage_gap <= 1.5 * h
    circle = np.min([f.distance(pts) for f in enum.families if f.angles is None], axis=0) <= 1e-5
    on = pts[circle]
    spacing = []
    for s in range(0, len(on), 256):
        d2 = ((on[s : s + 256, None, :] - on[None, :, :]) ** 2).sum(axis=-1)
        d2[np.arange(len(d2)), np.arange(s, s + len(d2))] = math.inf
        spacing.append(np.sqrt(d2.min(axis=1)))
    assert 0 < len(on) and np.concatenate(spacing).max() < 0.5 * 3.5 * h


def test_refine_is_the_parents_up_to_the_step_cap(monkeypatch):
    # an A2 source with points still moving after _MAX_STEPS steps
    calls = []
    trial = _kernels._trial
    monkeypatch.setattr(_kernels, "_trial", lambda *args: calls.append(1) or trial(*args))
    M = _identity_defects(from_milnor(MilnorParameters.from_pqr(-2.795513014275484, 0.7641596652750372, -2.99037686395711)))
    seeds = _oracle_seeds(M)
    h = 2.0 * math.pi / 400
    refine_batch(M, seeds, 3.0 * h, 1e-13 * float(np.abs(M).max()))
    assert len(calls) == _kernels._MAX_STEPS
    _assert_refine_is_the_parents(M, seeds, 400)


@pytest.mark.parametrize("lam", [1e-150, 1e150])
@pytest.mark.parametrize("pqr", [(1.0, 0.0, 1.0), (1.5, 0.5, 1.0), (0.0, 0.8, 1.3)])
def test_refine_is_the_parents_at_extreme_scales(pqr, lam):
    p, q, r = pqr
    M = _identity_defects(from_milnor(MilnorParameters.from_pqr(lam * p, q, lam * r)))
    _assert_refine_is_the_parents(M, _grid_seeds(M, 200), 200)


@pytest.mark.parametrize("ties", ["V0 = V1", "|V1| = |V2|", "|V0| = |V1| = |V2|"])
def test_refine_is_the_parents_on_tied_residuals(ties):
    # equal (or opposite) matrices M_k tie the residuals of every point,
    # and on a tie both pick the first worst one; the M_k are an
    # algebra's, with at most two nonzero entries in each row
    M0, M1, M2 = _identity_defects(from_milnor(MilnorParameters.from_pqr(1.5, 0.5, 1.0)))
    M = {"V0 = V1": [M0, M0, M2], "|V1| = |V2|": [M0, M1, -M1], "|V0| = |V1| = |V2|": [M0, -M0, M0]}[ties]
    seeds = _unit_rows(np.random.default_rng(53).standard_normal((2000, 3)))
    _assert_refine_is_the_parents(np.array(M), seeds, 200)


def test_refine_is_independent_of_the_batch():
    # dense M_k (a general metric's): each point's path is its own, so
    # refining the points in two halves gives the bits of refining them
    # together (``_parent_refine_batch``'s gradient sums take the order of the
    # live set's memory layout, which its boolean-mask compaction transposes)
    rng = np.random.default_rng(61)
    M = np.array([a + a.T for a in rng.standard_normal((3, 3, 3))])
    seeds = _unit_rows(rng.standard_normal((2000, 3)))
    args = (3.0 * 2.0 * math.pi / 200, 1e-13 * float(np.abs(M).max()))
    pts, fr = refine_batch(M, seeds, *args)
    for half in (slice(0, None, 2), slice(1, None, 2)):
        got, fg = refine_batch(M, seeds[half], *args)
        assert got.tobytes() == pts[half].tobytes() and fg.tobytes() == fr[half].tobytes()


def test_monomial_table_is_the_gathered_products():
    rng = np.random.default_rng(59)
    for X in (rng.standard_normal((1000, 3)), rng.standard_normal((7, 3))[::2], np.zeros((0, 3)), _sphere_grid(100)):
        got = monomial_table(X)
        assert got.flags.c_contiguous and got.tobytes() == _gather_monomials(X).tobytes()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    log_lam=st.floats(-150, 150),
    grid=st.integers(100, 420),
    cut=st.floats(0.5, 30.0),
)
@example(seed=0, log_lam=0.0, grid=400, cut=3.0)
@example(seed=1, log_lam=150.0, grid=401, cut=3.0)
@example(seed=2, log_lam=-150.0, grid=333, cut=3.0)
@example(seed=3, log_lam=0.0, grid=199, cut=30.0)
def test_coarse_scan_is_the_full_scan(seed, log_lam, grid, cut):
    # random antisymmetric structure constants under a random SPD metric,
    # scaled by lam; the cut is tau = cut * scale * h (the oracle's is 3)
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(3, 3, 3))
    A = rng.normal(size=(3, 3))
    g = Metric3(A @ A.T + 0.2 * np.eye(3))
    with np.errstate(over="raise", invalid="raise"):
        M = _defect_matrices(10.0**log_lam * (c - c.transpose(1, 0, 2)), g)
        scale = float(np.abs(M).max())
        tau = cut * scale * 2.0 * math.pi / grid
        idx, F = _coarse_scan(M, scale, grid, tau)
        want, fw = _reference_coarse_scan(M, grid, tau)
    assert np.array_equal(idx, want)
    assert np.array_equal(F, fw)
