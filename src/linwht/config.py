"""Size bounds, all in one place.

``N_MAX`` is the representation contract: every stage sequence, parsed
file and CLI size has 1 <= n <= N_MAX.  The ``*_ENUM_MAX`` bounds cap
exhaustive enumeration.  Work of 2^n size is guarded further, by
``_guard`` here: dense evaluation (``oracle`` and
``membership.predict_plus_set``) and the dataflow export (``dot``), each
against its ``Limits`` field.  Setting the environment variable
``WHT_MAX_N`` replaces both limits at call time.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = ["Limits", "SizeLimitError", "active_limits"]

N_MAX = 64
MEMBER_ENUM_MAX = 3
BIT_INDEX_ENUM_MAX = 4
GL_ENUM_MAX = 5

ENV_MAX_N = "WHT_MAX_N"


class SizeLimitError(ValueError):
    """A dense 2^n-sized computation was refused by a size guard."""


@dataclass(frozen=True)
class Limits:
    oracle_max_n: int = 14
    export_max_n: int = 6


def active_limits() -> Limits:
    """Current limits, honouring the ``WHT_MAX_N`` override if set."""
    raw = os.environ.get(ENV_MAX_N)
    if raw is None:
        return Limits()
    try:
        v = int(raw)
    except ValueError as exc:
        raise ValueError(f"{ENV_MAX_N} must be an integer, got {raw!r}") from exc
    if v < 1:
        raise ValueError(f"{ENV_MAX_N} must be positive, got {v}")
    return Limits(oracle_max_n=v, export_max_n=v)


def _guard(n: int, export: bool = False) -> None:
    """Refuses a 2^n-sized computation past its limit: dense evaluation's, or the dataflow export's."""
    limits = active_limits()
    lim, what = (limits.export_max_n, "dataflow export") if export else (limits.oracle_max_n, "dense evaluation")
    if not 1 <= n <= lim:
        raise SizeLimitError(
            f"{what} needs 1 <= n <= {lim} (2^{n} points requested); "
            f"raise the limit with {ENV_MAX_N} if you really want this"
        )
