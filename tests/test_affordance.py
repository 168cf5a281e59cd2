"""Affordance vector computation, normalization, and cosine comparison."""

from __future__ import annotations

import math
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from affret import (
    DimensionError,
    Lexicon,
    Topic,
    compute_block_affordance,
    compute_doc_affordance,
    compute_query_affordance,
    cosine_sim,
    normalize_av,
)
from affret.affordance import cosine_to_unit, unit_support

import oracles

nonneg_vectors = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=8,
)


class TestBlockAffordance:
    def test_counts_per_topic(self, lexicon3):
        av = compute_block_affordance(["beach", "sand", "temple"], lexicon3)
        assert av == [2.0, 1.0, 0.0]

    def test_empty_block_is_zero_vector(self, lexicon3):
        assert compute_block_affordance([], lexicon3) == [0.0, 0.0, 0.0]

    def test_unmatched_tokens_land_in_catchall(self):
        lex = Lexicon(
            topics=[
                Topic(name="Beaches", terms=frozenset({"beach"})),
                Topic(name="Miscellaneous", terms=frozenset(), miscellaneous=True),
            ]
        )
        av = compute_block_affordance(["foo", "bar", "baz"], lex)
        assert av == [0.0, 3.0]


class TestDocAffordance:
    def test_element_wise_sum(self):
        assert compute_doc_affordance([[1.0, 0.0], [2.0, 3.0]]) == [3.0, 3.0]

    def test_zero_propagation(self):
        assert compute_doc_affordance([[0.0, 0.0]]) == [0.0, 0.0]

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            compute_doc_affordance([[1.0, 2.0], [1.0]])


class TestQueryAffordance:
    def test_same_rule_as_blocks(self, lexicon_no_misc):
        av = compute_query_affordance(["beach", "resorts", "goa"], lexicon_no_misc)
        assert av == [1.0, 1.0, 0.0]

    def test_no_matches_without_catchall_is_zero(self, lexicon_no_misc):
        assert compute_query_affordance(["zzz"], lexicon_no_misc) == [0.0, 0.0, 0.0]

    def test_empty_query_is_zero(self, lexicon3):
        assert compute_query_affordance([], lexicon3) == [0.0, 0.0, 0.0]


class TestNormalize:
    def test_three_four_five(self):
        assert normalize_av([3.0, 4.0]) == pytest.approx([0.6, 0.8])

    def test_zero_vector_maps_to_zero(self):
        assert normalize_av([0.0, 0.0]) == [0.0, 0.0]

    def test_single_element(self):
        assert normalize_av([5.0]) == [1.0]


class TestCosine:
    def test_self_similarity(self):
        assert cosine_sim([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine_sim([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_shared_axis(self):
        assert cosine_sim([1.0, 1.0, 0.0], [1.0, 0.0, 0.0]) == pytest.approx(1 / math.sqrt(2))

    def test_zero_vector_scores_zero(self):
        assert cosine_sim([0.0, 0.0], [1.0, 1.0]) == 0.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            cosine_sim([1.0], [1.0, 2.0])


class TestProperties:
    @given(nonneg_vectors)
    @example([5e-324, 5e-324])
    @settings(max_examples=200, deadline=None)
    def test_norm_contract(self, av):
        if not any(av):
            assert normalize_av(av) == [0.0] * len(av)
            return
        length = math.sqrt(sum(v * v for v in normalize_av(av)))
        assert abs(length - 1.0) <= 1e-9

    @given(nonneg_vectors, st.floats(min_value=1e-3, max_value=1e3))
    @example([5e-324], 0.5)
    @example([5e-324, 1e-323], 0.7)
    @settings(max_examples=200, deadline=None)
    def test_scale_invariance(self, av, scale):
        scaled = [v * scale for v in av]
        # Scaling a subnormal rounds it to a coarse grid (or to 0), which
        # changes the vector's direction; only normal floats keep it.
        assume(all(v == 0.0 or v >= sys.float_info.min for v in av + scaled))
        other = [1.0] * len(av)
        assert cosine_sim(scaled, other) == pytest.approx(cosine_sim(av, other), abs=1e-9)

    def test_scaling_a_subnormal_to_zero_gives_zero_cosine(self):
        scaled = [5e-324 * 0.5]
        assert scaled == [0.0]
        assert cosine_sim([5e-324], [1.0]) == 1.0
        assert cosine_sim(scaled, [1.0]) == 0.0

    @given(nonneg_vectors)
    @settings(max_examples=200, deadline=None)
    def test_cosine_range_for_count_vectors(self, av):
        other = [1.0] * len(av)
        assert 0.0 <= cosine_sim(av, other) <= 1.0

    def test_doc_affordance_additivity_for_single_word_terms(self, lexicon3):
        # with single-word terms, summing block AVs equals scoring the
        # concatenated token stream in one shot
        blocks = [["beach", "temple"], ["sand", "sand", "nothing"]]
        summed = compute_doc_affordance([compute_block_affordance(b, lexicon3) for b in blocks])
        flat = compute_block_affordance([t for b in blocks for t in b], lexicon3)
        assert summed == flat

    def test_appending_topic_token_increments_its_element(self, lexicon3):
        base = compute_block_affordance(["beach"], lexicon3)
        more = compute_block_affordance(["beach", "sand"], lexicon3)
        assert more[0] == base[0] + 1


def bits(x):
    """A float compared bit for bit: its type and its exact repr (which tells -0.0 from 0.0)."""
    return type(x), repr(x)


# finite components, with the edges pinned: zeros of both signs, subnormals
# (whose norm takes normalize_av's rescale), the smallest normal float, and
# 1.7e308 (two of which overflow the norm to inf)
edge_components = st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.0, 3.0, 1.7e308])
components = edge_components | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def sparse_pairs(draw):
    """A query with 0..m nonzero components in a drawn dimension m, and a vector to compare it with."""
    m = draw(st.integers(1, 19), label="m")
    nonzero = draw(st.sets(st.integers(0, m - 1)), label="query support")
    query = [draw(components.filter(bool)) if j in nonzero else draw(st.sampled_from([0.0, -0.0])) for j in range(m)]
    return query, draw(st.lists(components, min_size=m, max_size=m), label="vector")


class TestCosineMatchesOracle:
    """The support-only cosine against the dense one it replaced, bit for bit and by type."""

    @given(sparse_pairs())
    @example(([0.0, 0.0, 0.0], [1.0, 2.0, 3.0]))
    @example(([1.0, 0.0, 2.0], [0.0, 0.0, 0.0]))
    @example(([1.0, 0.0, 2.0], [5e-324, 5e-324, 5e-324]))
    @example(([5e-324, 0.0, 5e-324], [5e-324, 1.0, 1e-323]))
    @example(([0.0, 1.7e308, 1.7e308], [1.7e308, 1.7e308, 1.7e308]))
    @example(([-0.0, 1.0, -0.0], [3.0, -0.0, 4.0]))
    @settings(max_examples=400, deadline=None)
    def test_cosine_sim(self, pair):
        a, b = pair
        assert bits(cosine_sim(a, b)) == bits(oracles.cosine_sim(a, b))
        assert bits(cosine_to_unit(unit_support(a), b)) == bits(oracles.cosine_to_unit(normalize_av(a), b))

    @given(sparse_pairs())
    @settings(max_examples=200, deadline=None)
    def test_one_support_serves_many_vectors(self, pair):
        a, b = pair
        unit, support = normalize_av(a), unit_support(a)
        for other in (b, b[::-1], [0.0] * len(b), [5e-324] * len(b)):
            assert bits(cosine_to_unit(support, other)) == bits(oracles.cosine_to_unit(unit, other))

    def test_empty_support_gives_a_float_zero(self):
        assert unit_support([0.0, -0.0]).items == []
        assert bits(cosine_sim([0.0, -0.0], [1.0, 1.0])) == bits(0.0)

    @given(st.integers(1, 6), st.integers(1, 6))
    def test_dimension_mismatch_rejected(self, m, n):
        assume(m != n)
        a, b = [1.0] + [0.0] * (m - 1), [1.0] * n
        for cosine in (cosine_sim, oracles.cosine_sim):
            with pytest.raises(DimensionError):
                cosine(a, b)
        with pytest.raises(DimensionError):
            cosine_to_unit(unit_support(a), b)
