"""Desk-scale caps and time budgets: the limits a run is held to.

This module imports only `errors`, so the CLI can load it without loading
any library layer. The enumeration cap is checked once, by the CLI, where
outside input enters. `oracle` binds these names too.
"""

from __future__ import annotations

import math
import os
import time
from typing import NamedTuple

from .errors import TimeBudgetExceededError, ValidationError

#: default desk-scale cap on n for `enumerate` and every `verify` sweep
ENUM_N_MAX = 10


class Caps(NamedTuple):
    """Desk-scale caps, overridden only by SOMBOR_CAPS (e.g. "enum=12")."""
    enum: int = ENUM_N_MAX


def load_caps(text: str | None = None) -> Caps:
    """Parse a SOMBOR_CAPS-style override, e.g. "enum=8".

    An unknown key or a non-integer value raises `ValidationError`.
    """
    if text is None:
        text = os.environ.get("SOMBOR_CAPS", "")
    values = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        key, _, val = part.partition("=")
        key = key.strip()
        if key not in Caps._fields:
            raise ValidationError(f"unknown cap {key!r} in SOMBOR_CAPS")
        try:
            values[key] = int(val)
        except ValueError:
            raise ValidationError(f"cap {key!r} in SOMBOR_CAPS needs an integer, "
                                  f"got {val.strip()!r}") from None
    return Caps(**values)


class Deadline:
    """Cooperative time budget, checked between the units of a sweep and per grid row."""

    def __init__(self, seconds: float | None = None):
        if seconds is not None and math.isnan(seconds):
            # NaN never expires; None and inf mean no limit
            raise ValidationError("time budget must be a number of seconds, got nan")
        self.seconds = seconds
        self.start = time.monotonic()

    def remaining(self) -> float | None:
        if self.seconds is None:
            return None
        return self.seconds - (time.monotonic() - self.start)

    def check(self, partial=None) -> None:
        rem = self.remaining()
        if rem is not None and rem <= 0:
            raise TimeBudgetExceededError(
                f"time budget of {self.seconds}s exhausted", partial=partial
            )
