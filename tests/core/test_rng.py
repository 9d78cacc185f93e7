"""Unit tests for the seeded RNG helpers."""

import random

from repro.core.rng import fresh_seed, index_draw, make_rng, spawn


class TestMakeRng:
    def test_none_is_deterministic(self):
        assert make_rng(None).random() == make_rng(None).random()

    def test_int_seed_reproducible(self):
        assert make_rng(42).random() == make_rng(42).random()

    def test_different_seeds_differ(self):
        assert make_rng(1).random() != make_rng(2).random()

    def test_passthrough_random_instance(self):
        rng = random.Random(7)
        assert make_rng(rng) is rng


class TestSpawn:
    def test_children_decorrelated_by_key(self):
        parent = random.Random(0)
        a = spawn(parent, "a")
        parent2 = random.Random(0)
        b = spawn(parent2, "b")
        assert a.random() != b.random()

    def test_child_reproducible(self):
        a = spawn(random.Random(5), "policy")
        b = spawn(random.Random(5), "policy")
        assert [a.random() for _ in range(5)] == [
            b.random() for _ in range(5)
        ]


class TestFreshSeed:
    def test_range(self):
        seed = fresh_seed(random.Random(0))
        assert 0 <= seed < 2**63

    def test_reproducible_from_rng(self):
        assert fresh_seed(random.Random(3)) == fresh_seed(random.Random(3))

    def test_default_entropy_varies(self):
        # Extremely unlikely to collide twice.
        assert fresh_seed() != fresh_seed() or fresh_seed() != fresh_seed()


class _RandomOnly(random.Random):
    """A generator that defines ``random`` alone, so ``random.Random``
    draws its integers from it rather than from ``getrandbits``."""

    def random(self):
        return super().random()


class _CountedBits(random.Random):
    """A generator whose ``getrandbits`` is its own (a counting one)."""

    calls = 0

    def getrandbits(self, k):
        type(self).calls += 1
        return super().getrandbits(k)


class _OwnChoice(random.Random):
    """A generator that overrides ``choice`` itself (last item first)."""

    def choice(self, seq):
        return seq[len(seq) - 1 - self.randrange(len(seq))]


class TestIndexDraw:
    """``index_draw`` is ``choice`` by index, pinned as
    ``TestZeroDrawShuffles`` pins shuffles: the traffic models draw
    node indices through it, and every seeded stream downstream rests
    on it making exactly ``choice``'s calls."""

    LENGTHS = range(1, 301)

    def _pin(self, make):
        for length in self.LENGTHS:
            items = [f"item{n}" for n in range(length)]
            by_index = make(length)
            by_choice = make(length)
            draw = index_draw(by_index)
            for _ in range(5):
                assert items[draw(length)] == by_choice.choice(items)
            assert by_index.getstate() == by_choice.getstate()

    def test_same_items_and_state_as_choice(self):
        self._pin(random.Random)

    def test_powers_of_two_are_covered(self):
        # choice draws bit_length(n) bits, so at n = 2**k half the
        # draws are rejected: the lengths where a shortcut would slip.
        assert {2**k for k in range(9)} <= set(self.LENGTHS)

    def test_subclass_drawing_from_random_alone(self):
        self._pin(_RandomOnly)

    def test_subclass_with_its_own_getrandbits(self):
        self._pin(_CountedBits)
        assert _CountedBits.calls > 0

    def test_subclass_with_its_own_choice(self):
        self._pin(_OwnChoice)
