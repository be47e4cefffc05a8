"""Deterministic random number generator plumbing.

All stochastic code in :mod:`repro` accepts either an integer seed, a
:class:`numpy.random.Generator`, or ``None`` and normalises it through
:func:`to_rng`.  Experiments that need several independent streams (one per
trial, one per link, ...) split a parent generator with :func:`spawn_rngs`
so that adding streams never perturbs existing ones.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

#: Anything acceptable as a source of randomness.
RngLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def to_rng(seed: RngLike = None) -> np.random.Generator:
    """Normalise ``seed`` into a :class:`numpy.random.Generator`.

    ``None`` produces a fresh OS-seeded generator; an existing generator is
    returned unchanged (so callers may thread one generator through a whole
    experiment); ints and :class:`~numpy.random.SeedSequence` objects seed a
    new PCG64 generator.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: RngLike, n: int) -> Sequence[np.random.Generator]:
    """Create ``n`` statistically independent generators from ``seed``.

    Uses :meth:`numpy.random.Generator.spawn` so the child streams are
    independent of each other and of the parent's future output.
    """
    if n < 0:
        raise ValueError(f"cannot spawn {n} generators")
    return to_rng(seed).spawn(n)


def stable_seed(*parts: Union[int, str]) -> int:
    """Derive a stable 63-bit seed from a tuple of ints/strings.

    Useful for giving every (experiment, trial, P) cell of a sweep its own
    reproducible stream regardless of evaluation order.
    """
    acc = 1469598103934665603  # FNV-1a offset basis
    prime = 1099511628211
    for part in parts:
        data = str(part).encode("utf-8") + b"\x1f"
        for byte in data:
            acc = ((acc ^ byte) * prime) & 0xFFFF_FFFF_FFFF_FFFF
    return acc & 0x7FFF_FFFF_FFFF_FFFF
