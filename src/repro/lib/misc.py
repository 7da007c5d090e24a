"""The ``misc`` library: containers, conversions, timers, synchronisation helpers.

The original ``misc`` library "provides common containers, functions for
format conversion, bit manipulation, high-precision timers and distributed
synchronization".  The pieces needed by the reproduced applications and by
the framework are implemented here.
"""

from __future__ import annotations

import re

from repro.lib.ring import between as between  # re-exported, mirrors misc.between_c

_DURATION_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*(ms|s|m|h|d)?\s*$")
_DURATION_FACTORS = {"ms": 0.001, "s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0, None: 1.0}


def parse_duration(text: str | float | int) -> float:
    """Parse durations such as ``"30s"``, ``"5m"``, ``"1h"``, ``"250ms"`` into seconds.

    Bare numbers (or numeric types) are interpreted as seconds — this is the
    format used by the churn script language of Section 3.2.
    """
    if isinstance(text, (int, float)):
        return float(text)
    match = _DURATION_RE.match(text)
    if not match:
        raise ValueError(f"cannot parse duration: {text!r}")
    value, unit = match.groups()
    return float(value) * _DURATION_FACTORS[unit]
