"""The numpy step's row orders: radix passes and the carried rank order.

:func:`~repro.core.soa.kernel.radix_order` sorts rows by 16-bit
digits, least significant first, and must return exactly
``np.argsort(key, kind="stable")``: on both sides of each 16-bit
boundary, with equal keys (where stability shows) and for empty and
one-row keys.  :func:`~repro.core.soa.kernel.compact_order` carries
random-rank's rank order through the compactions that drop delivered
rows, and must leave the stable argsort of the surviving ranks.
Everything here is numpy state, so the module skips without it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.soa import _compat
from repro.core.soa.kernel import DIGIT_BITS, compact_order, radix_order

np = _compat.np

pytestmark = pytest.mark.skipif(
    np is None, reason="the numpy step's orders are numpy state"
)

#: Bounds at and around each 16-bit boundary, beside drawn ones.
EDGE_BOUNDS = (
    1,
    2,
    2**16 - 1,
    2**16,
    2**16 + 1,
    2**32 - 1,
    2**32,
    2**32 + 1,
    2**48 + 1,
    2**63 - 1,
)


@st.composite
def keys_below(draw, max_bound=2**63 - 1):
    """``(keys, bound)``: keys drawn from a few values below ``bound``,
    so equal keys are common."""
    bound = draw(
        st.one_of(
            st.sampled_from(
                [bound for bound in EDGE_BOUNDS if bound <= max_bound]
            ),
            st.integers(min_value=1, max_value=max_bound),
        )
    )
    palette = draw(
        st.lists(
            st.one_of(
                st.integers(min_value=0, max_value=bound - 1),
                st.sampled_from([0, bound - 1]),
            ),
            min_size=1,
            max_size=6,
        )
    )
    keys = draw(st.lists(st.sampled_from(palette), max_size=200))
    return keys, bound


def _passes(bound):
    """Digits a key below ``bound`` has: one, plus one per further 16
    bits."""
    return max(1, -(-(bound - 1).bit_length() // DIGIT_BITS))


class _CountingNumpy:
    """numpy, with every argsort call's dtype and kind recorded."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        return getattr(np, name)

    def argsort(self, values, kind=None):
        self.calls.append((values.dtype, kind))
        return np.argsort(values, kind=kind)


class TestRadixOrder:
    @settings(max_examples=300, deadline=None)
    @given(drawn=keys_below())
    def test_equals_stable_argsort(self, drawn):
        keys, bound = drawn
        key = np.asarray(keys, dtype=np.int64)
        order = radix_order(np, key, bound)
        assert order.tolist() == np.argsort(key, kind="stable").tolist()

    @settings(max_examples=100, deadline=None)
    @given(drawn=keys_below(max_bound=2**80))
    def test_keys_wider_than_int64(self, drawn):
        # Held as Python ints: every digit below the top one is masked
        # into uint16 range before the cast, whatever the key's width.
        keys, bound = drawn
        key = np.asarray(keys, dtype=object)
        order = radix_order(np, key, bound)
        assert order.tolist() == np.argsort(key, kind="stable").tolist()

    @pytest.mark.parametrize("bound", EDGE_BOUNDS)
    def test_one_uint16_radix_pass_per_digit(self, bound):
        counting = _CountingNumpy()
        key = np.asarray([bound - 1, 0, bound - 1, bound // 2], np.int64)
        order = radix_order(counting, key, bound)
        assert order.tolist() == np.argsort(key, kind="stable").tolist()
        assert counting.calls == [(np.dtype(np.uint16), "stable")] * (
            _passes(bound)
        )

    @pytest.mark.parametrize("bound", (1, 2**16, 2**16 + 1, 2**32))
    def test_empty_and_one_row_keys(self, bound):
        empty = radix_order(np, np.empty(0, dtype=np.int64), bound)
        assert empty.shape == (0,)
        one = radix_order(np, np.asarray([bound - 1], np.int64), bound)
        assert one.tolist() == [0]

    def test_high_digit_decides_before_low_digit(self):
        # Equal high digits fall back to the low digit, equal keys to
        # row order; a most-significant-first pass order inverts this.
        key = np.asarray(
            [2**16, 1, 2**16 + 1, 1, 0, 2**17, 2**16], dtype=np.int64
        )
        assert radix_order(np, key, 2**18).tolist() == [4, 1, 3, 0, 6, 2, 5]


class TestRankOrder:
    @settings(max_examples=200, deadline=None)
    @given(
        ranks=st.lists(
            st.sampled_from([0.0, 0.25, 0.5, 0.75, 0.125]), max_size=120
        ),
        deletions=st.lists(
            st.lists(st.booleans(), min_size=120, max_size=120),
            max_size=6,
        ),
    )
    def test_carried_order_is_the_fresh_argsort(self, ranks, deletions):
        ranks = np.asarray(ranks, dtype=np.float64)
        order = np.argsort(ranks, kind="stable")
        for mask in deletions:
            keep = np.asarray(mask[: ranks.shape[0]], dtype=bool)
            order = compact_order(np, order, keep)
            ranks = ranks[keep]
            assert (
                order.tolist() == np.argsort(ranks, kind="stable").tolist()
            )

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**16),
                st.sampled_from([0.0, 0.5, 0.25]),
            ),
            max_size=150,
        ),
        keep=st.lists(st.booleans(), min_size=150, max_size=150),
    )
    def test_step_order_is_the_node_then_rank_lexsort(self, rows, keep):
        # What the random-rank step orders by: node, then rank, then
        # row, before and after a compaction.
        pos = np.asarray([node for node, _ in rows], dtype=np.int64)
        ranks = np.asarray([rank for _, rank in rows], dtype=np.float64)
        rank_order = np.argsort(ranks, kind="stable")
        for _ in range(2):
            order = rank_order[radix_order(np, pos[rank_order], 2**16 + 1)]
            assert order.tolist() == np.lexsort((ranks, pos)).tolist()
            mask = np.asarray(keep[: pos.shape[0]], dtype=bool)
            rank_order = compact_order(np, rank_order, mask)
            pos = pos[mask]
            ranks = ranks[mask]
