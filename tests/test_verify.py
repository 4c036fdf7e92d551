"""Every verify group at its full sample size, and the runner that decides and formats them."""

import math
import numbers

import numpy as np
import pytest

from contact3 import verify
from contact3.verify import GROUPS

CHECKS = [fn for name, fn in vars(verify).items() if name.startswith("check_") and fn.__module__ == verify.__name__]


@pytest.mark.parametrize("name", list(GROUPS))
def test_verify_group_full_size(name):
    result = GROUPS[name](seed=42)
    assert result.passed, result.detail


def _run_fake(monkeypatch, value, bound, seed=1):
    # registers a fake group in an empty registry and runs it
    draws = []

    def check(rng):
        draws.append(rng.random())
        return "3 draws", [("misses", 0, 0), ("worst residual", value, bound)]

    monkeypatch.setattr(verify, "GROUPS", {})
    assert verify._group("fake")(check) is check
    result = verify.GROUPS["fake"](seed=seed)
    assert draws == [np.random.default_rng(seed).random()]
    return result


def test_a_gate_passes_at_its_bound_and_fails_one_float_above(monkeypatch):
    at = _run_fake(monkeypatch, 1e-12, 1e-12)
    assert at.name == "fake" and at.passed
    assert not _run_fake(monkeypatch, math.nextafter(1e-12, math.inf), 1e-12).passed
    assert not _run_fake(monkeypatch, 1, 0).passed
    assert not _run_fake(monkeypatch, math.nan, 1e-12).passed


def test_detail_holds_the_sample_and_every_label(monkeypatch):
    assert _run_fake(monkeypatch, 2.5e-13, 1e-12).detail == "3 draws; misses 0; worst residual 2.50e-13"


def test_every_group_has_one_check():
    assert len(CHECKS) == len(GROUPS)
    assert sorted(run.__doc__ for run in GROUPS.values()) == sorted(check.__doc__ for check in CHECKS)


@pytest.mark.parametrize("check", CHECKS, ids=[check.__name__ for check in CHECKS])
def test_check_declares_finite_bounds_and_numeric_values(check):
    sample, gates = check(np.random.default_rng(42))
    assert isinstance(sample, str) and sample
    assert gates
    for label, value, bound in gates:
        assert isinstance(label, str) and label
        assert isinstance(value, numbers.Real) and not isinstance(value, bool), (label, value)
        assert isinstance(bound, numbers.Real) and math.isfinite(bound), (label, bound)
