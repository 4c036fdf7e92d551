"""Every verify group at its full sample size (the oracle at its quick size)."""

import pytest

from contact3.verify import GROUPS


@pytest.mark.parametrize("name", list(GROUPS))
def test_verify_group_full_size(name):
    # the full geodesic-oracle group takes minutes; n=8, grid=200 is its --quick size
    kwargs = {"n": 8, "grid": 200} if name == "geodesic-oracle" else {}
    result = GROUPS[name](seed=42, **kwargs)
    assert result.passed, result.detail
