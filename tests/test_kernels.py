"""The oracle hot kernels against direct evaluation and the closed forms."""

import math

import numpy as np
import pytest

from contact3 import Metric3, from_milnor
from contact3._kernels import BACKEND, defect_max_batch, refine_batch, residual_batch
from contact3.metric_geometry import _defect_matrices, _sphere_grid


@pytest.fixture(scope="module")
def problem():
    L = from_milnor((3, 0, 0, -1))
    M = _defect_matrices(L, Metric3.identity())
    X = _sphere_grid(100)
    return M, X


def test_defect_matches_direct_evaluation(problem):
    M, X = problem
    direct = np.abs(np.einsum("ni,kij,nj->nk", X, M, X)).max(axis=1)
    np.testing.assert_allclose(defect_max_batch(M, X), direct)


def test_residual_shape(problem):
    M, X = problem
    V = residual_batch(M, X[:7])
    assert V.shape == (7, 3)


def test_refine_lands_on_closed_form_roots(problem):
    M, X = problem
    F = defect_max_batch(M, X)
    seeds = np.ascontiguousarray(X[F <= 0.2][:200])
    cap = 3.0 * 2.0 * math.pi / 100
    target = 1e-13 * np.abs(M).max()
    pts, fr = refine_batch(M, seeds, cap, target, 80)
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


def test_backend_reported():
    assert BACKEND == "numpy"
