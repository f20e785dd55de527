"""Unit tests: system parameters (repro.core.params)."""

import math

import pytest

from repro.core.params import DEFAULTS, SystemParams


class TestValidation:
    def test_defaults_valid(self):
        assert DEFAULTS.n >= 8

    def test_n_too_small(self):
        with pytest.raises(ValueError):
            SystemParams(n=4)

    def test_beta_bounds(self):
        with pytest.raises(ValueError):
            SystemParams(beta=0.0)
        with pytest.raises(ValueError):
            SystemParams(beta=0.5)

    def test_threshold_must_stay_below_half(self):
        with pytest.raises(ValueError):
            SystemParams(beta=0.3, delta=1.0)  # (1+1)*0.3 = 0.6 >= 0.5

    def test_d1_le_d2(self):
        with pytest.raises(ValueError):
            SystemParams(d1=10.0, d2=2.0)

    def test_epoch_length_min(self):
        with pytest.raises(ValueError):
            SystemParams(epoch_length=1)


class TestDerived:
    def test_default_delta_gives_one_third_threshold(self):
        p = SystemParams(beta=0.05)
        assert p.bad_member_threshold == pytest.approx(1.0 / 3.0)
        p2 = SystemParams(beta=0.1)
        assert p2.bad_member_threshold == pytest.approx(1.0 / 3.0)

    def test_ln_ln_n_floor(self):
        # tiny systems must not produce degenerate sizes
        p = SystemParams(n=8)
        assert p.ln_ln_n >= 1.0

    def test_group_sizes_scale_with_n(self):
        small = SystemParams(n=64)
        large = SystemParams(n=2**20)
        assert small.group_solicit_size <= large.group_solicit_size
        assert large.group_solicit_size < large.logn_group_size

    def test_group_min_le_solicit(self):
        for n in (64, 1024, 2**16):
            p = SystemParams(n=n)
            assert p.group_min_size <= p.group_solicit_size

    def test_churn_slack_positive(self):
        p = SystemParams(beta=0.05)
        assert p.churn_slack == pytest.approx(1.0 / 3.0)

    def test_pf_target(self):
        p = SystemParams(n=1024, k=3.0)
        assert p.pf_target == pytest.approx(1.0 / math.log(1024) ** 3)

    def test_effective_beta(self):
        p = SystemParams(beta=0.09)
        assert p.effective_beta() == pytest.approx(0.03)


class TestWith:
    def test_with_replaces(self):
        p = SystemParams(n=512).with_(n=1024)
        assert p.n == 1024

    def test_with_beta_recouples_delta(self):
        p = SystemParams(beta=0.05).with_(beta=0.1)
        assert p.bad_member_threshold == pytest.approx(1.0 / 3.0)

    def test_frozen(self):
        p = SystemParams()
        with pytest.raises(Exception):
            p.n = 99  # type: ignore[misc]

    def test_describe_mentions_key_values(self):
        s = SystemParams(n=1024, beta=0.05).describe()
        assert "n=1024" in s and "0.05" in s
