"""The option surface: no predicate or gate takes a tolerance or an iteration cap.

Each gate reads its constant when it runs (from ``contact3.tolerances``,
or ``_kernels._MAX_STEPS`` for refinement), so changing a gate is one
edit and no caller can move it.  These are the nine settable values
retired together; none may come back on its function.
"""

import inspect

import pytest

from contact3 import _kernels, classification, contact_structures, lie_core, metric_geometry
from contact3.verify import GROUPS

RETIRED = [
    (metric_geometry.is_geodesic_vector, "tol"),
    (contact_structures.xi_in_ker_deta, "tol"),
    (contact_structures.check_ker_condition, "tol"),
    (contact_structures.is_contact_form, "tol"),
    (contact_structures.is_contact_metric, "tol"),
    (classification.is_isomorphic, "tol"),
    (lie_core.is_unimodular, "tol"),
    (classification.PhiBasisStructure.structure, "g"),
    (_kernels.refine_batch, "max_iter"),
]


@pytest.mark.parametrize("fn, name", RETIRED, ids=[f"{fn.__qualname__}-{name}" for fn, name in RETIRED])
def test_retired_parameter_stays_gone(fn, name):
    assert name not in inspect.signature(fn).parameters


def test_refine_batch_keeps_target_fourth():
    # the benchmark's refine hook (bench/layers.py) reads the target as args[3]
    assert list(inspect.signature(_kernels.refine_batch).parameters) == ["M", "X0", "step_cap", "target"]


@pytest.mark.parametrize("name", list(GROUPS))
def test_verify_group_takes_only_a_seed(name):
    # a group's sample sizes are constants inside it; the CLI and the tests set only the seed
    assert list(inspect.signature(GROUPS[name]).parameters) == ["seed"]
