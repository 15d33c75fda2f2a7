"""Environment defaults shared by the engine configurations.

Every ``REPRO_*`` variable treats an empty value as unset: the CI matrix
passes ``REPRO_BACKEND=`` empty on most lanes.
"""

from __future__ import annotations

import os
from typing import Optional

__all__ = ["env_workers", "normalize_backend"]


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


def normalize_backend(name) -> Optional[str]:
    """A simulation-backend name stripped and lower-cased; empty means None.

    Both engine configs apply it to explicit ``backend=`` values and to the
    ``REPRO_BACKEND`` default alike, so ``Statevector`` selects the
    registered ``statevector`` backend everywhere.
    """
    if name is None:
        return None
    return str(name).strip().lower() or None
