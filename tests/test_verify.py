"""Every verify group at its full sample size."""

import pytest

from contact3.verify import GROUPS


@pytest.mark.parametrize("name", list(GROUPS))
def test_verify_group_full_size(name):
    result = GROUPS[name](seed=42)
    assert result.passed, result.detail
