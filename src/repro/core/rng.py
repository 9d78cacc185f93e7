"""Seeded randomness helpers.

Every stochastic component in the library takes an explicit
``random.Random`` instance (or a seed) so that simulations are
reproducible bit-for-bit.  These helpers normalize the two forms and
derive independent child streams for sub-components.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, Optional, Union

RngLike = Union[int, random.Random, None]


def describe_seed(seed: RngLike) -> Union[int, str]:
    """A reproducible description of an engine seed for run results.

    Integer seeds pass through; ``None`` is the library's deterministic
    default stream (seed 0); a caller-provided ``random.Random``
    carries hidden state, so its description is a digest of that state
    — two engines handed equal-state generators report the same value,
    and the value never silently collides with a plain integer seed.
    """
    if isinstance(seed, int):
        return seed
    if seed is None:
        return 0  # make_rng(None) is the deterministic seed-0 stream
    digest = hashlib.sha256(repr(seed.getstate()).encode("utf-8")).hexdigest()
    return f"rng-state:{digest[:16]}"


def make_rng(seed: RngLike = None) -> random.Random:
    """Return a ``random.Random`` from a seed, an existing Random, or None.

    ``None`` yields a deterministic default stream (seed 0) rather than
    OS entropy: reproducibility is the library default, and callers who
    want fresh entropy can pass ``random.Random()`` explicitly.
    """
    if isinstance(seed, random.Random):
        return seed
    if seed is None:
        return random.Random(0)
    return random.Random(seed)


def index_draw(rng: random.Random) -> Callable[[int], int]:
    """``rng.choice`` as an index draw: ``draw(n)`` makes exactly the
    calls ``rng.choice(seq)`` makes for a sequence of ``n`` items and
    returns the index of the item it would pick.

    ``random.Random.choice`` returns ``seq[self._randbelow(len(seq))]``,
    so the draw is that bound method, which ``random.Random`` picks per
    subclass (from ``getrandbits``, or from ``random`` alone).  A class
    that overrides ``choice`` itself draws through ``choice`` over a
    ``range``.  Drawing indices spares a caller that numbers its items
    the lookup of each drawn item's number.
    """
    if type(rng).choice is random.Random.choice:
        draw: Callable[[int], int] = getattr(rng, "_randbelow")
        return draw
    choice = rng.choice
    return lambda n: choice(range(n))


def spawn(rng: random.Random, key: str) -> random.Random:
    """Derive an independent child stream labeled by ``key``.

    The child is seeded from the parent's state and the label, so two
    children with different labels are decorrelated while remaining a
    pure function of the parent seed.
    """
    return random.Random(f"{rng.getrandbits(64)}:{key}")


def fresh_seed(rng: Optional[random.Random] = None) -> int:
    """Draw a 63-bit seed suitable for labeling runs."""
    source = rng if rng is not None else random.Random()
    return source.getrandbits(63)
