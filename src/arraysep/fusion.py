"""Cross-channel mask reduction and mask combination rules."""

from __future__ import annotations

import enum

import numpy as np

from .errors import DataError
from .signal import MaskGrid, _mask_grid, check_ratio_mask
from .util import _checked, _member, _tuple_of


class CombineMode(enum.Enum):
    AVG = "avg"
    MIN = "min"
    MAX = "max"
    LSTM_ONLY = "lstm"

    parse = classmethod(_member)  # the member a name gives, else DataError


def fuse_channels(masks) -> MaskGrid:
    """Elementwise maximum over per-channel masks, as a running maximum
    into one grid rather than a reduction over a stack of every channel."""
    masks = _checked("masks", masks, _tuple_of(_mask_grid))
    if not masks:
        raise DataError("need at least one channel mask")
    shape = masks[0].values.shape
    fused = None
    for mask in masks:
        if mask.values.shape != shape:
            raise DataError("channel masks must share shape")
        values = check_ratio_mask(mask)
        if fused is None:
            # C order, as a reduction over a stack returns it: the
            # covariances' weight sums follow the mask's memory order.
            fused = np.ascontiguousarray(values)
        else:
            np.maximum(fused, values, out=fused)
    return MaskGrid(values=fused)


def combine_masks(enhanced: MaskGrid, clustering: MaskGrid, mode: CombineMode) -> MaskGrid:
    """Blend the enhanced mask with the spatial-clustering mask."""
    a = check_ratio_mask(enhanced)
    b = check_ratio_mask(clustering)
    if a.shape != b.shape:
        raise DataError(f"mask shapes differ: {a.shape} vs {b.shape}")
    if mode is CombineMode.AVG:
        values = 0.5 * (a + b)
    elif mode is CombineMode.MIN:
        values = np.minimum(a, b)
    elif mode is CombineMode.MAX:
        values = np.maximum(a, b)
    elif mode is CombineMode.LSTM_ONLY:
        values = a
    else:
        raise DataError(f"unknown combine mode {mode}")
    return MaskGrid(values=values)
