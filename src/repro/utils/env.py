"""Environment defaults shared by the engine configurations.

Every ``REPRO_*`` variable treats an empty value as unset: the CI matrix
passes ``REPRO_SANITIZE=`` empty on most lanes.
"""

from __future__ import annotations

import os

__all__ = ["env_workers"]


def env_workers() -> int:
    """The ``REPRO_WORKERS`` worker count; unset or empty means 1."""
    value = os.environ.get("REPRO_WORKERS", "").strip()
    if not value:
        return 1
    try:
        return int(value)
    except ValueError:
        raise ValueError(
            f"REPRO_WORKERS must be an integer worker count, got {value!r}"
        ) from None
