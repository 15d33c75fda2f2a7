"""Deterministic random-number-generator helpers.

Every stochastic component (dataset synthesis, SuperCircuit sampling, the
evolutionary engine, shot noise, calibration drift) accepts either a seed or a
``numpy.random.Generator`` so experiments are reproducible end to end.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Tuple, Union

import numpy as np

__all__ = ["ensure_rng", "stable_seed"]

RngLike = Union[int, np.random.Generator, None]


def stable_seed(key: Tuple) -> int:
    """A deterministic 32-bit seed derived from a hashable key.

    ``hash()`` is salted per process for strings, so the seed is derived from
    ``repr`` instead — seeds (cache entries, shard rng streams, pinned shot
    draws) are then reproducible across processes and insertion orders.
    """
    digest = hashlib.blake2b(repr(key).encode("utf-8"), digest_size=4).digest()
    return int.from_bytes(digest, "big")


def ensure_rng(rng: RngLike = None) -> np.random.Generator:
    """Coerce ``rng`` (seed, generator or None) into a Generator."""
    if rng is None:
        # The one sanctioned unpinned stream: every determinism-contract
        # path (engine, scheduler, backends, caches) passes an explicit
        # seed or Generator; ``None`` is the exploratory-use escape hatch,
        # and funnelling every call site through here keeps this the single
        # audited occurrence in the tree.
        # repro: ignore[det-unpinned-rng] -- documented escape hatch
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(int(rng))
