"""Segment-pointer primitives.

A CSR row pointer splits a flat array into contiguous segments, one per
row.  CSR5 (Liu & Vinter), Javelin's Segmented-Rows lower stage and the
level-ordered sweep plans all work segment by segment; these helpers
convert between pointers and per-element segment ids, gather segment
subsets, and sort within segments, each as whole-array NumPy with no
per-element Python loop.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "segment_ids_from_ptr",
    "segment_positions",
    "ptr_from_segment_ids",
    "sort_segments",
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
