"""Mask fusion across channels and mask combination rules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arraysep import CombineMode, DataError, combine_masks, fuse_channels
from arraysep.signal import MaskGrid, check_ratio_mask


def _random_masks(seed, count=3, shape=(6, 8)):
    gen = np.random.default_rng(seed)
    return [MaskGrid(values=gen.uniform(0.0, 1.0, size=shape))
            for _ in range(count)]


def test_fuse_is_elementwise_max():
    a = MaskGrid(values=np.array([[0.2, 0.9], [0.5, 0.1]]))
    b = MaskGrid(values=np.array([[0.4, 0.3], [0.5, 0.8]]))
    fused = fuse_channels([a, b])
    np.testing.assert_array_equal(fused.values, [[0.4, 0.9], [0.5, 0.8]])


def test_fuse_matches_max_over_the_stack():
    """The running maximum is bit for bit the reduction over a stack of
    the checked masks, ties, signed zeros and clipped overshoot included,
    and in the stack's C order also when the masks are in Fortran order,
    as the enhancer writes them."""
    gen = np.random.default_rng(9)
    masks = []
    for k in range(8):
        values = gen.uniform(0.0, 1.0, size=(33, 17))
        values[gen.uniform(size=values.shape) < 0.2] = 0.5
        values[gen.uniform(size=values.shape) < 0.1] = -0.0
        values[gen.uniform(size=values.shape) < 0.1] = 1.0 + 5e-10
        masks.append(MaskGrid(values=np.asfortranarray(values) if k % 2 == 0 else values))
    for subset in (masks, masks[:1]):
        expected = np.max([check_ratio_mask(m) for m in subset], axis=0)
        fused = fuse_channels(subset).values
        assert fused.flags.c_contiguous and expected.flags.c_contiguous
        assert fused.dtype == expected.dtype and fused.tobytes() == expected.tobytes()
    # The inputs are not written to.
    assert all(m.values.max() == 1.0 + 5e-10 for m in masks)


def test_fuse_single_channel_identity():
    (a,) = _random_masks(0, count=1)
    np.testing.assert_array_equal(fuse_channels([a]).values, a.values)


def test_fuse_permutation_invariant():
    masks = _random_masks(1, count=4)
    forward_order = fuse_channels(masks).values
    shuffled = fuse_channels(masks[::-1]).values
    np.testing.assert_array_equal(forward_order, shuffled)


def test_fuse_idempotent():
    masks = _random_masks(2, count=2)
    once = fuse_channels(masks)
    twice = fuse_channels([once, once])
    np.testing.assert_array_equal(once.values, twice.values)


def test_fuse_dominates_inputs():
    masks = _random_masks(3, count=3)
    fused = fuse_channels(masks).values
    for m in masks:
        assert np.all(fused >= m.values)


def test_fuse_validates_shapes_and_range():
    a = MaskGrid(values=np.zeros((2, 2)))
    b = MaskGrid(values=np.zeros((3, 2)))
    with pytest.raises(DataError, match="share shape"):
        fuse_channels([a, b])
    with pytest.raises(DataError, match="at least one"):
        fuse_channels([])
    bad = MaskGrid(values=np.full((2, 2), 1.5))
    with pytest.raises(DataError, match="out of"):
        fuse_channels([bad])


# ---------------------------------------------------------------- combine

def test_combine_mode_ordering():
    a, b = _random_masks(4, count=2)
    low = combine_masks(a, b, CombineMode.MIN).values
    mid = combine_masks(a, b, CombineMode.AVG).values
    high = combine_masks(a, b, CombineMode.MAX).values
    assert np.all(low <= mid) and np.all(mid <= high)


def test_combine_exact_values():
    a = MaskGrid(values=np.array([[0.2]]))
    b = MaskGrid(values=np.array([[0.6]]))
    assert combine_masks(a, b, CombineMode.AVG).values[0, 0] == pytest.approx(0.4)
    assert combine_masks(a, b, CombineMode.MIN).values[0, 0] == 0.2
    assert combine_masks(a, b, CombineMode.MAX).values[0, 0] == 0.6
    assert combine_masks(a, b, CombineMode.LSTM_ONLY).values[0, 0] == 0.2


def test_combine_symmetric_except_lstm():
    a, b = _random_masks(5, count=2)
    for mode in (CombineMode.AVG, CombineMode.MIN, CombineMode.MAX):
        ab = combine_masks(a, b, mode).values
        ba = combine_masks(b, a, mode).values
        np.testing.assert_array_equal(ab, ba)
    np.testing.assert_array_equal(
        combine_masks(a, b, CombineMode.LSTM_ONLY).values, a.values)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_combine_stays_in_unit_interval(seed):
    a, b = _random_masks(seed, count=2, shape=(3, 4))
    for mode in CombineMode:
        out = combine_masks(a, b, mode).values
        assert out.min() >= 0.0 and out.max() <= 1.0


def test_combine_mode_parse():
    assert CombineMode.parse(" MAX ") is CombineMode.MAX
    assert CombineMode.parse("lstm") is CombineMode.LSTM_ONLY
    with pytest.raises(DataError, match="unknown combine mode"):
        CombineMode.parse("median")


def test_combine_shape_mismatch():
    a = MaskGrid(values=np.zeros((2, 2)))
    b = MaskGrid(values=np.zeros((2, 3)))
    with pytest.raises(DataError, match="shapes differ"):
        combine_masks(a, b, CombineMode.AVG)
