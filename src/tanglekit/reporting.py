"""Deterministic JSON rendering for reports and state files.

format_float is the one float rule: 17 significant digits (round-trip exact
for IEEE doubles), always a decimal point or exponent so they read back as
floats, -0.0 as 0.0, and non-finite numbers rejected.  The fonts writer's
%.17g is a fast path for the values this rule leaves alone.  Dict insertion
order is preserved, which makes repeated seeded runs byte-identical.
"""
from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii  # what json.dumps runs on a str


def format_float(value: float) -> str:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {value!r} cannot be reported")
    if value == 0.0:
        return "0.0"
    text = f"{value:.17g}"
    return text if any(c in text for c in ".eE") else text + ".0"


class Rendered(str):
    """JSON text that :func:`render_json` embeds unchanged."""


def render_json(value) -> str:
    """Serialize nested dicts/lists/scalars; floats via :func:`format_float`, Rendered as is."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, str):
        return value if isinstance(value, Rendered) else encode_basestring_ascii(value)
    if isinstance(value, dict):
        pieces = [piece for k, v in value.items()
                  for piece in (", ", encode_basestring_ascii(str(k)), ": ", render_json(v))]
        return _bracketed("{", pieces, "}")
    if isinstance(value, list):
        return _bracketed("[", [piece for v in value for piece in (", ", render_json(v))], "]")
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _bracketed(opening: str, pieces: list[str], closing: str) -> str:
    """opening + pieces + closing in one join, the items' text copied once.

    pieces leads each item with its ", " separator, and opening takes the
    first one's place.
    """
    pieces[:1] = [opening]
    pieces.append(closing)
    return "".join(pieces)
