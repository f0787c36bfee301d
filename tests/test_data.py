"""Tests for dataset validation and partition designs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ssdiag import ValidationError, contiguous_partition, validate_dataset
from ssdiag.data import draw_treatment


def _valid_arrays(n=4, f=2):
    rng = np.random.default_rng(0)
    return {
        "y": rng.standard_normal(n),
        "shares": rng.uniform(0.1, 1.0, size=(n, f)),
    }


class TestValidateDataset:
    def test_identity_passthrough(self):
        raw = _valid_arrays()
        data = validate_dataset(**raw, clusters=[3, 3, 7, 7])
        assert data.n_regions == 4
        assert data.n_sectors == 2
        assert data.n_clusters == 2
        np.testing.assert_array_equal(data.clusters, [0, 0, 1, 1])
        np.testing.assert_allclose(data.y, raw["y"])

    def test_all_zero_share_row_rejected(self):
        raw = _valid_arrays()
        shares = raw["shares"].copy()
        shares[2] = 0.0
        with pytest.raises(ValidationError, match="degenerate exposure row"):
            validate_dataset(raw["y"], shares)

    def test_nan_outcome_rejected(self):
        raw = _valid_arrays()
        y = raw["y"].copy()
        y[1] = np.nan
        with pytest.raises(ValidationError, match="non-finite outcome"):
            validate_dataset(y, raw["shares"])

    def test_negative_share_rejected(self):
        raw = _valid_arrays()
        shares = raw["shares"].copy()
        shares[0, 0] = -0.5
        with pytest.raises(ValidationError, match="negative share"):
            validate_dataset(raw["y"], shares)

    def test_dimension_mismatch(self):
        raw = _valid_arrays()
        with pytest.raises(ValidationError, match="do not match"):
            validate_dataset(raw["y"][:3], raw["shares"])

    def test_too_small(self):
        with pytest.raises(ValidationError):
            validate_dataset([1.0, 2.0], np.ones((2, 2)))

    def test_idempotent(self):
        raw = _valid_arrays()
        once = validate_dataset(
            **raw, clusters=[5, 2, 2, 5], y_placebo=raw["y"] * 2, x_realized=raw["y"] + 1
        )
        twice = validate_dataset(
            once.y, once.shares, once.clusters, once.y_placebo, once.x_realized
        )
        np.testing.assert_array_equal(once.y, twice.y)
        np.testing.assert_array_equal(once.shares, twice.shares)
        np.testing.assert_array_equal(once.clusters, twice.clusters)
        np.testing.assert_array_equal(once.y_placebo, twice.y_placebo)
        np.testing.assert_array_equal(once.x_realized, twice.x_realized)

    @pytest.mark.parametrize(
        "x_realized, message",
        [
            ([0.0, 1.0, 2.0], "realized regressor .* does not match"),
            ([0.0, 1.0, np.nan, 3.0], "non-finite realized regressor"),
            ([0.0, 1.0, -np.inf, 3.0], "non-finite realized regressor"),
        ],
    )
    def test_realized_regressor_checked(self, x_realized, message):
        with pytest.raises(ValidationError, match=message):
            validate_dataset(**_valid_arrays(), x_realized=x_realized)

    def test_arrays_immutable(self):
        data = validate_dataset(**_valid_arrays())
        with pytest.raises(ValueError):
            data.y[0] = 99.0


class TestPartitionDesign:
    def test_two_singleton_groups(self):
        shares = oracles.partition_to_shares(contiguous_partition(2, 1))
        np.testing.assert_array_equal(shares, np.eye(2))

    def test_two_pair_groups(self):
        shares = oracles.partition_to_shares(contiguous_partition(2, 2))
        np.testing.assert_array_equal(shares, [[1, 0], [1, 0], [0, 1], [0, 1]])

    def test_odd_group_count_rejected(self):
        with pytest.raises(ValidationError, match="even"):
            contiguous_partition(3, 1)

    def test_too_few_groups_rejected(self):
        with pytest.raises(ValidationError, match="at least 2 groups"):
            contiguous_partition(0, 1)

    def test_empty_groups_rejected(self):
        with pytest.raises(ValidationError, match="group size"):
            contiguous_partition(2, 0)

    @settings(max_examples=30, deadline=None)
    @given(f=st.sampled_from([2, 4, 6]), m=st.integers(1, 3), seed=st.integers(0, 99))
    def test_rows_sum_to_one_and_round_trip(self, f, m, seed):
        design = contiguous_partition(f, m)
        x = draw_treatment(design, np.random.default_rng(seed))
        shares = oracles.partition_to_shares(design)
        np.testing.assert_array_equal(shares.sum(axis=1), 1.0)
        # the group-level assignment behind x is balanced and maps back onto x
        treated = shares.T @ x / m
        assert sorted(treated) == [0.0] * (f // 2) + [1.0] * (f // 2)
        np.testing.assert_array_equal(shares @ treated, x)
