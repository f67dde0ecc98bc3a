"""Sums, means and percentiles that equal numpy's bit for bit, without numpy.

The tail-latency figures (Fig. 8's p99/p99.99, the serve fleet's
p50/p99/p999, means and fairness sums) were computed with numpy, and the
reported numbers are pinned.  These helpers repeat numpy's float64
arithmetic in the same order, so they return the same bits while a
process that only needs them never imports numpy:

* :func:`pairwise_sum` is ``np.sum``'s pairwise summation: blocks of at
  most 128 values summed in 8 interleaved lanes, longer runs split in two
  at a multiple of 8.  The lanes are plain float additions in a loop over
  groups of eight; ``builtins.sum`` is compensated from CPython 3.12 on,
  so it would not match.
* :func:`percentiles` is ``np.percentile``'s default ``linear`` method,
  including the branch of numpy's ``_lerp`` that interpolates down from
  the upper neighbour once the weight reaches 0.5.
"""

from __future__ import annotations

from functools import reduce
from math import floor, isnan
from operator import add
from typing import Iterable, Sequence, Tuple

#: numpy's ``PW_BLOCKSIZE``: the longest run summed without a split.
_BLOCK = 128


def _pairwise(values: Sequence[float], start: int, count: int) -> float:
    if count < 8:
        return reduce(add, values[start:start + count], -0.0)
    if count <= _BLOCK:
        # numpy's unrolled kernel: eight running sums over interleaved
        # values, then the rest one by one.
        stop = start + count - count % 8
        groups = zip(*[iter(values[start:stop])] * 8)
        r0, r1, r2, r3, r4, r5, r6, r7 = next(groups)
        for a0, a1, a2, a3, a4, a5, a6, a7 in groups:
            r0 += a0
            r1 += a1
            r2 += a2
            r3 += a3
            r4 += a4
            r5 += a5
            r6 += a6
            r7 += a7
        lanes = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        return reduce(add, values[stop:start + count], lanes)
    half = count // 2
    half -= half % 8
    return (_pairwise(values, start, half) +
            _pairwise(values, start + half, count - half))


def pairwise_sum(values: Sequence[float]) -> float:
    """``float(np.sum(values))`` for a list or ``array('d')`` of floats."""
    # numpy's pairwise kernel starts short runs from -0.0; the reduction
    # around it starts from add's identity, +0.0, so no total is -0.0.
    return 0.0 + _pairwise(values, 0, len(values))


def mean(values: Sequence[float]) -> float:
    """``float(np.mean(values))``; an empty sample raises."""
    if not len(values):
        raise ValueError("mean of an empty sample")
    return pairwise_sum(values) / len(values)


def percentiles(values: Iterable[float], qs: Iterable[float]
                ) -> Tuple[float, ...]:
    """``np.percentile(values, qs)`` for percentiles ``qs`` in [0, 100].

    An empty sample, a percentile outside [0, 100] and a NaN value raise
    ``ValueError`` (numpy would return NaN for the last).
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if any(map(isnan, ordered)):
        raise ValueError("percentile of a sample holding a NaN value")
    last = len(ordered) - 1
    result = []
    for q in qs:
        quantile = q / 100
        if not 0.0 <= quantile <= 1.0:
            raise ValueError(f"percentile must be in [0, 100], got {q!r}")
        virtual = last * quantile
        if virtual >= last:
            # numpy takes the last value for both neighbours and measures
            # the weight from index -1.
            below, a, b = -1, ordered[-1], ordered[-1]
        else:
            below = floor(virtual)
            a, b = ordered[below], ordered[below + 1]
        t = virtual - below
        result.append(a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t))
    return tuple(result)


def percentile(values: Iterable[float], q: float) -> float:
    """``np.percentile(values, q)``; see :func:`percentiles`."""
    return percentiles(values, (q,))[0]
