"""Validation of the shard coordinator's supervision policy."""

import pytest

from repro.resilience.supervisor import SupervisionPolicy


class TestPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fragment_timeout_seconds": 0.0},
            {"fragment_timeout_seconds": -1.0},
            {"heartbeat_seconds": 0.0},
            {"max_redispatches": -1},
            {"heartbeat_seconds": -0.5},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SupervisionPolicy(**kwargs)

    def test_defaults_are_valid(self):
        policy = SupervisionPolicy()
        assert policy.fragment_timeout_seconds > 0
        assert policy.max_redispatches >= 0
