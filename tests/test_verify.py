"""Every verify group at its full sample size (the oracle at n=24, its full grid)."""

import pytest

from contact3.verify import GROUPS


@pytest.mark.parametrize("name", list(GROUPS))
def test_verify_group_full_size(name):
    # the full geodesic-oracle group (n=200) takes half a minute; n=24 checks
    # each of the 8 case tags 3 times at the full grid
    kwargs = {"n": 24} if name == "geodesic-oracle" else {}
    result = GROUPS[name](seed=42, **kwargs)
    assert result.passed, result.detail
