"""Affordance vectors: per-topic match scores and their comparison.

An affordance vector is a length-m list of non-negative scores, element i
aligned with topic i of the lexicon. Block and query vectors are raw match
counts; comparisons always go through L2 normalization, so stored counts stay
lossless while similarity is pure cosine.
"""

from __future__ import annotations

import math
import sys
from operator import add
from typing import NamedTuple

from .errors import DimensionError
from .lexicon import Lexicon

AffordanceVector = list[float]


def compute_block_affordance(tokens: list[str], lexicon: Lexicon) -> AffordanceVector:
    """Score a block's tokens against every topic: element i counts topic i matches."""
    return [float(c) for c in lexicon.match_counts(tokens)]


def compute_query_affordance(tokens: list[str], lexicon: Lexicon) -> AffordanceVector:
    """Query tokens are scored by the same rule as block tokens."""
    return compute_block_affordance(tokens, lexicon)


def compute_doc_affordance(block_avs: list[AffordanceVector]) -> AffordanceVector:
    """Element-wise sum of block vectors, which must share one dimension; no vectors sum to ``[]``."""
    width = len(block_avs[0]) if block_avs else 0
    total = [0.0] * width
    for av in block_avs:
        if len(av) != width:
            raise DimensionError(f"block vector has dimension {len(av)}, expected {width}")
        total = list(map(add, total, av))
    return total


def normalize_av(av: AffordanceVector) -> AffordanceVector:
    """Scale to unit Euclidean length; the zero vector maps to itself.

    A block or query with no lexicon matches is legitimate and must rank
    below anything that matched, which the zero-vector convention delivers
    (its cosine against everything is 0).
    """
    # hypot scales internally, so tiny or huge components cannot underflow
    # or overflow the sum of squares
    norm = math.hypot(*av)
    if norm == 0.0:
        return [0.0] * len(av)
    if norm < sys.float_info.min:
        # A subnormal norm has lost precision (hypot(5e-324, 5e-324) is
        # 5e-324), so rescale by the largest component and measure again.
        peak = max(map(abs, av))
        av = [v / peak for v in av]
        norm = math.hypot(*av)
    return [v / norm for v in av]


class UnitSupport(NamedTuple):
    """A unit vector's dimension and its nonzero components as (index, value), in index order."""

    m: int
    items: list[tuple[int, float]]


def unit_support(av: AffordanceVector) -> UnitSupport:
    """The support of ``normalize_av(av)``: the components a cosine with it reads."""
    unit = normalize_av(av)
    return UnitSupport(len(unit), [(j, x) for j, x in enumerate(unit) if x != 0])


def cosine_sim(a: AffordanceVector, b: AffordanceVector) -> float:
    """Cosine similarity of two same-dimension vectors; 0 if either is zero.

    For the non-negative vectors produced by counting, the result lies in
    [0, 1]; tiny float excess is clamped.
    """
    return cosine_to_unit(unit_support(a), b)


def cosine_to_unit(unit: UnitSupport, b: AffordanceVector) -> float:
    """``cosine_sim(a, b)`` given ``unit = unit_support(a)``, bit for bit.

    Lets a caller comparing one vector with many normalize it once. The dot
    product runs over the support only: a query names few topics, and each
    component it leaves out adds ``0.0 * y`` for a finite ``y``, which
    changes no sum of finite terms (plain or compensated). Each kept term is
    the product ``normalize_av`` would give, added in the same order.
    ``b`` must be finite, as every loaded or revised vector is.
    """
    m, support = unit
    if m != len(b):
        raise DimensionError(f"dimension mismatch: {m} vs {len(b)}")
    norm = math.hypot(*b)
    if norm < sys.float_info.min:
        # zero or subnormal: normalize_av's rescale keeps the direction exact
        b, norm = normalize_av(b), 1.0
    dot = sum([x * (b[j] / norm) for j, x in support], 0.0)
    return min(max(dot, 0.0), 1.0)
