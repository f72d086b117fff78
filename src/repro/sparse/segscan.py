"""Segmented-scan primitives.

CSR5 (Liu & Vinter) and in turn Javelin's Segmented-Rows lower stage are
built on the segmented scan of Blelloch et al.: reduce contiguous runs of
products where segment boundaries are given by the CSR row pointer.  On
vector machines this maps to register-lane shuffles; here the same
algorithm is expressed with vectorized NumPy so that the tiled kernels
operate on whole tiles at once instead of Python-level per-element loops.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "segment_ids_from_ptr",
    "segment_positions",
    "ptr_from_segment_ids",
    "sort_segments",
    "segmented_scan_sum",
    "segmented_reduce",
]


def segment_ids_from_ptr(ptr, total=None):
    """Expand a pointer array into per-element segment ids.

    ``ptr`` is CSR-style: segment ``s`` covers ``[ptr[s], ptr[s+1])``.
    Empty segments are allowed and simply produce no elements.

    >>> segment_ids_from_ptr([0, 2, 2, 5])
    array([0, 0, 2, 2, 2])
    """
    ptr = np.asarray(ptr, dtype=np.int64)
    ids = np.repeat(np.arange(ptr.shape[0] - 1, dtype=np.int64), np.diff(ptr))
    if total is not None and total != ids.shape[0]:
        raise ValueError(f"ptr covers {ids.shape[0]} elements, not {total}")
    return ids


def sort_segments(ptr, indices, data):
    """Sort ``indices`` (and ``data`` alongside) within every segment, in place.

    Nothing is written when every segment is already sorted.  The sort is
    stable, so equal indices keep the order of their values.
    """
    seg = segment_ids_from_ptr(ptr)
    if np.any((indices[1:] < indices[:-1]) & (seg[1:] == seg[:-1])):
        order = np.lexsort((indices, seg))
        indices[:] = indices[order]
        data[:] = data[order]


def segment_positions(ptr, segs):
    """Flat positions of the elements of segments ``segs``, in the order given.

    Returns ``(out_ptr, pos)``: ``pos[out_ptr[i]:out_ptr[i+1]]`` are the
    positions of segment ``segs[i]``, so ``values[pos]`` gathers a row
    subset (or a permutation of rows) of a CSR array in one step.

    >>> segment_positions([0, 2, 2, 5], [2, 0])
    (array([0, 3, 5]), array([2, 3, 4, 0, 1]))
    """
    ptr = np.asarray(ptr, dtype=np.int64)
    segs = np.asarray(segs, dtype=np.int64)
    start = ptr[segs]
    lens = ptr[segs + 1] - start
    out_ptr = np.zeros(segs.shape[0] + 1, dtype=np.int64)
    np.cumsum(lens, out=out_ptr[1:])
    pos = np.arange(out_ptr[-1], dtype=np.int64) + np.repeat(start - out_ptr[:-1], lens)
    return out_ptr, pos


def ptr_from_segment_ids(ids, n_segments):
    """CSR-style pointer of ``n_segments`` segments holding the elements ``ids``.

    The inverse of :func:`segment_ids_from_ptr` for nondecreasing ``ids``
    (for example the row ids of the entries a mask keeps).

    >>> ptr_from_segment_ids([0, 0, 2, 2, 2], 4)
    array([0, 2, 2, 5, 5])
    """
    ptr = np.zeros(n_segments + 1, dtype=np.int64)
    np.cumsum(np.bincount(np.asarray(ids, dtype=np.int64), minlength=n_segments), out=ptr[1:])
    return ptr


def segmented_scan_sum(values, seg_ids):
    """Inclusive segmented prefix-sum.

    Within each segment the output is the running sum; sums reset at
    segment boundaries.  Implemented with a global cumulative sum minus
    the per-segment offset — two vector passes, no Python loop, which is
    the same trick the vectorized hardware implementation plays with
    carry lanes.
    """
    values = np.asarray(values, dtype=np.float64)
    seg_ids = np.asarray(seg_ids, dtype=np.int64)
    if values.shape != seg_ids.shape:
        raise ValueError("values and seg_ids must have the same shape")
    if values.size == 0:
        return values.copy()
    csum = np.cumsum(values)
    # offset[i] = total of all elements in strictly earlier segments
    first = np.empty(values.shape[0], dtype=bool)
    first[0] = True
    first[1:] = seg_ids[1:] != seg_ids[:-1]
    starts = np.nonzero(first)[0]
    seg_offsets = np.where(starts > 0, csum[starts - 1], 0.0)
    offset_per_elem = seg_offsets[np.cumsum(first) - 1]
    return csum - offset_per_elem


def segmented_reduce(values, seg_ids, n_segments=None):
    """Sum-reduce each segment to a scalar.

    This is the final "carry out" step of a CSR5 tile: the tail partial
    sums of each row within the tile.
    """
    values = np.asarray(values, dtype=np.float64)
    seg_ids = np.asarray(seg_ids, dtype=np.int64)
    if n_segments is None:
        n_segments = int(seg_ids.max()) + 1 if seg_ids.size else 0
    out = np.zeros(n_segments)
    np.add.at(out, seg_ids, values)
    return out
