"""Affordance vectors: per-topic match scores and their comparison.

An affordance vector is a length-m list of non-negative scores, element i
aligned with topic i of the lexicon. Block and query vectors are raw match
counts; comparisons always go through L2 normalization, so stored counts stay
lossless while similarity is pure cosine.
"""

from __future__ import annotations

import math
import sys

from .errors import DimensionError
from .lexicon import Lexicon

AffordanceVector = list[float]


def compute_block_affordance(tokens: list[str], lexicon: Lexicon) -> AffordanceVector:
    """Score a block's tokens against every topic: element i counts topic i matches."""
    return [float(c) for c in lexicon.match_counts(tokens)]


def compute_query_affordance(tokens: list[str], lexicon: Lexicon) -> AffordanceVector:
    """Query tokens are scored by the same rule as block tokens."""
    return compute_block_affordance(tokens, lexicon)


def compute_doc_affordance(block_avs: list[AffordanceVector], m: int | None = None) -> AffordanceVector:
    """Element-wise sum of block vectors; an empty block list gives a zero vector.

    ``m`` fixes the dimension when the block list is empty.
    """
    if not block_avs:
        return [0.0] * (m or 0)
    width = len(block_avs[0])
    if m is not None and width != m:
        raise DimensionError(f"block vector has dimension {width}, expected {m}")
    total = [0.0] * width
    for av in block_avs:
        if len(av) != width:
            raise DimensionError(f"block vector has dimension {len(av)}, expected {width}")
        for i, v in enumerate(av):
            total[i] += v
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


def cosine_sim(a: AffordanceVector, b: AffordanceVector) -> float:
    """Cosine similarity of two same-dimension vectors; 0 if either is zero.

    For the non-negative vectors produced by counting, the result lies in
    [0, 1]; tiny float excess is clamped.
    """
    return cosine_to_unit(normalize_av(a), b)


def cosine_to_unit(unit: AffordanceVector, b: AffordanceVector) -> float:
    """``cosine_sim(a, b)`` given ``unit = normalize_av(a)``, bit for bit.

    Lets a caller comparing one vector with many normalize it once.
    """
    if len(unit) != len(b):
        raise DimensionError(f"dimension mismatch: {len(unit)} vs {len(b)}")
    dot = sum(x * y for x, y in zip(unit, normalize_av(b)))
    return min(max(dot, 0.0), 1.0)
