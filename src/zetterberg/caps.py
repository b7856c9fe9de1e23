"""Work/size caps.

The exhaustive routes are bounded by explicit caps; exceeding a cap raises
SizeCapExceeded rather than truncating silently.  The weight-2 and weight-3
passes of min_distance_exhaustive have no cap of their own: they try at most
length * q0 words, so only max_ambient_order bounds them.  Caps can be
overridden via a key=value config file whose path is taken from the
ZETTERBERG_CONFIG environment variable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

ENV_CONFIG = "ZETTERBERG_CONFIG"


@dataclass(frozen=True)
class Caps:
    # largest ambient field order p**(2*s*m) a FieldContext may be built for
    max_ambient_order: int = 2**32
    # largest syndrome space q**2 the covering-radius oracle will layer (its
    # BFS runs over norm classes, on tables of size O(q))
    oracle_cap: int = 2**20
    # largest field order q the criterion scan will walk.  Its residues times
    # its tests are q - 1, so it makes fewer than q - 1 character evaluations,
    # and its tests fit in memory: (q0 - 1)/2 or q0 - 1 of them
    criterion_order_cap: int = 2**25
    # most candidate words one weight's pass of min_distance_exhaustive may
    # try, C(length-1, w-2) * (q0-1)^(w-2) for weight w >= 4
    enum_codewords_cap: int = 2**18


_FIELDS = {f: int for f in Caps.__dataclass_fields__}


def power_exceeds(base: int, e: int, cap: int) -> bool:
    """base**e > cap for base >= 2, decided from the exponent first: e >=
    cap.bit_length() already means base**e > cap, so a huge e costs nothing."""
    return e >= cap.bit_length() or base**e > cap


def load_caps(path: str | None = None) -> Caps:
    """Caps from a key=value file; defaults when no file is configured."""
    caps = Caps()
    if path is None:
        path = os.environ.get(ENV_CONFIG)
    if not path:
        return caps
    overrides = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _FIELDS:
                raise ValueError(f"unknown cap {key!r} in {path}")
            overrides[key] = int(value.strip(), 0)
            if overrides[key] <= 0:
                raise ValueError(f"cap {key} must be positive in {path}")
    return replace(caps, **overrides)


DEFAULT_CAPS = Caps()
