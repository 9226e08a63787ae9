"""Deterministic JSON rendering: render_json writes all the text of reports and state files.

format_float is the one float rule: 17 significant digits (round-trip exact
for IEEE doubles), always a decimal point or exponent so they read back as
floats, -0.0 as 0.0, and non-finite numbers rejected.  _fonts_json writes a
spectra.Fonts as the fonts report's rows, their floats by _float_slots, which
hands each value its array passes cannot settle to format_float.  Dict
insertion order is preserved, which makes repeated seeded runs byte-identical.
"""
from __future__ import annotations

import json.encoder  # its encode_basestring_ascii is what json.dumps runs on a str
import math
from functools import cache

import numpy as np

from .spectra import Fonts
from .states import index_to_bits

# bytes of a value in _float_slots, NUL where its text has none: "[-]0.000D0" or "[-]D0."
# right-aligned in 7, D1..D16, then "e-XX" or "e-XXX" in 5
_SLOT = 28
_DECADES = 282  # the decades k, 10**-k <= |x| < 10**(1 - k), of _float_slots' values: 1..281
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into two 26-bit halves
# rows of a fonts report built as one byte array
_FONT_BLOCK_ROWS = 1024


def format_float(value: float) -> str:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {value!r} cannot be reported")
    if value == 0.0:
        return "0.0"
    text = f"{value:.17g}"
    return text if any(c in text for c in ".eE") else text + ".0"


@cache
def _slot_tables() -> tuple[np.ndarray, ...]:
    """_float_slots' tables, built on first use: 10**(16 + k) as hi + lo and hi's halves, the
    4-digit ASCII groups (trailing zeros NUL from 10,000 on), the rest of a slot by sign, k, D0."""
    hi = np.array([10 ** (16 + k) for k in range(_DECADES)], dtype=float)
    lo = np.array([10 ** (16 + k) - int(h) for k, h in enumerate(hi.tolist())], dtype=float)
    top = _SPLIT * hi - (_SPLIT * hi - hi)
    digit = np.arange(48, 58, dtype=np.uint8)
    groups = np.stack(np.broadcast_arrays(*np.ix_(digit, digit, digit, digit)), axis=-1)
    kept = np.flip(np.logical_or.accumulate(np.flip(groups != 48, -1), -1), -1)
    frames = np.zeros((2, _DECADES, 10, _SLOT), np.uint8)  # by sign, k and D0
    frames[:, 1:5, :, 6] = frames[:, 5:, :, 5] = digit
    frames[:, 5:, :, 6], frames[1, 5:, :, 4] = ord("."), ord("-")
    for k in range(1, 5):  # fixed notation: "0." and k - 1 zeros before D0
        lead = np.frombuffer(b"-0." + b"0" * (k - 1), np.uint8)
        frames[:, k, :, 6 - lead.size:6], frames[0, k, :, 6 - lead.size] = lead, 0
    exponents = np.array([b"e-%02d" % k for k in range(_DECADES)], dtype="S5")
    frames[:, 5:, :, 23:] = exponents.view(np.uint8).reshape(-1, 1, 5)[5:]
    tables = (hi, lo, top, hi - top, np.stack([groups, groups * kept]).view(np.uint32).ravel(),
              frames.reshape(-1, _SLOT))
    for table in tables:
        table.flags.writeable = False
    return tables


def _float_slots(values: np.ndarray) -> np.ndarray:
    """format_float of each value, equal to it value for value, as _SLOT ASCII bytes with NUL
    where absent: shape values.shape + (_SLOT,).

    Zeros and finite 1e-280 < |x| < 1 take array passes: in the decade k of |x| the digits
    are N = round(|x| 10**(16 + k)), from Dekker's two-product, and N's 4-digit groups index
    the ASCII table.  The other values, and those beside a power of ten or within 1e-9 of a
    rounding tie, go through format_float, whose ValueError stays a non-finite value's error.
    """
    hi, lo, top, bottom, groups, frames = _slot_tables()
    x = np.asarray(values, dtype=float).ravel()
    a = np.abs(x)
    fast = (a > 1e-280) & (a < 1.0)
    a[~fast] = 0.5  # a stand-in with digits; the slots of these values are written below
    k = -np.floor(np.log10(a)).astype(np.intp)
    hi, lo, top, bottom = hi[k], lo[k], top[k], bottom[k]
    a_top = _SPLIT * a - (_SPLIT * a - a)
    a_bottom = a - a_top
    ph = a * hi  # |x| 10**(16 + k) is ph + r to within 5e-15: r is ph's exact error, plus a lo
    r = ((a_top * top - ph) + a_top * bottom + a_bottom * top) + a_bottom * bottom + a * lo
    whole = np.rint(r)
    # log10 can round into the next decade beside a power of ten; a near tie is not called
    fast &= ((ph - 1e16) + r >= 0) & ((ph - 1e17) + r < 0) & (abs(abs(r - whole) - 0.5) > 1e-9)
    n = ph.astype(np.int64) + whole.astype(np.int64)
    carry = n == 10**17  # rounded up into the next decade
    n[carry], k[carry] = 10**16, k[carry] - 1
    high = n // 10**8
    d0 = high // 10**8
    halves = np.stack([high - d0 * 10**8, n - high * 10**8], axis=-1).astype(np.int32)
    tops = halves // 10**4
    g = np.stack([tops, halves - tops * 10**4], axis=-1).reshape(-1, 4)  # D1..D4 to D13..D16
    last = np.ones(g.shape, bool)  # every later group is zero: this one drops its trailing zeros
    for j in (2, 1, 0):
        last[:, j] = last[:, j + 1] & (g[:, j + 1] == 0)
    # clip: a value off the decade, left to format_float, can have D0 past 9
    slots = np.take(frames, ((x < 0) * _DECADES + k) * 10 + d0, axis=0, mode="clip")
    slots[:, 7:23] = np.take(groups, g + 10000 * last).view(np.uint8)
    slots[last[:, 0] & (g[:, 0] == 0) & (k > 4), 6] = 0  # D0 alone takes no point: "1e-10"
    slots[x == 0] = frames[10]  # sign +, k = 1, D0 = 0: "0.0", for -0.0 as well
    for i in np.flatnonzero(~fast & (x != 0)).tolist():
        slots[i] = np.frombuffer(format_float(x[i]).encode().ljust(_SLOT, b"\0"), np.uint8)
    return slots.reshape(np.shape(values) + (_SLOT,))


def _fonts_json(fonts: Fonts) -> str:
    """The fonts as a JSON list of objects, one row of the Fonts columns each.

    Each block of _FONT_BLOCK_ROWS rows is one byte array, a row of fixed-width fields
    with NUL where a text is shorter than its field: the keys, the labels, k, the floats'
    slots from _float_slots and negligible.  JSON text has no NUL, so dropping them leaves
    the block's text, which goes into one buffer for the whole list.
    """
    n = fonts.n_qubits
    label = np.array([index_to_bits(x, n) for x in range(2**n)], dtype=bytes)
    ks, k_at = np.unique(fonts.k, return_inverse=True)
    k_text = np.array([str(k) for k in ks.tolist()], dtype=bytes)
    keys = [np.broadcast_to(np.frombuffer(key.encode(), np.uint8), (_FONT_BLOCK_ROWS, len(key)))
            for key in (', {"i": "', '", "j": "', f'", "p": {fonts.p}, "k": ', ', "det_re": ',
                        ', "det_im": ', ', "lambda_minus": ', ', "negligible": ')]
    width = sum(key.shape[1] for key in keys) + 2 * n + k_text.itemsize + 3 * _SLOT + len("false}")
    text = np.empty(2 + len(fonts) * width, np.uint8)  # "[", at most width bytes a row, "]"
    text[0], end = ord("["), 1
    for start in range(0, len(fonts), _FONT_BLOCK_ROWS):
        block = slice(start, start + _FONT_BLOCK_ROWS)
        slots = _float_slots(np.stack(
            [fonts.det.real[block], fonts.det.imag[block], fonts.lambda_minus[block]], axis=-1))
        i, j, k, negligible = (column.view(np.uint8).reshape(len(slots), -1) for column in (
            label[fonts.i[block]], label[fonts.j[block]], k_text[k_at[block]],
            np.where(fonts.negligible[block], b"true}", b"false}")))
        values = (i, j, k, slots[:, 0], slots[:, 1], slots[:, 2], negligible)
        table = np.concatenate([piece for key, value in zip(keys, values)
                                for piece in (key[:len(value)], value)], axis=1)
        rows = table[table != 0][2 if start == 0 else 0:]  # the first row has no ", "
        text[end:end + rows.size] = rows
        end += rows.size
    text[end] = ord("]")
    return str(memoryview(text)[:end + 1], "ascii")


def render_json(value) -> str:
    """Serialize nested dicts/lists/scalars, floats via :func:`format_float`, and a Fonts."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, str):
        return json.encoder.encode_basestring_ascii(value)
    if isinstance(value, dict):
        pieces = [piece for k, v in value.items()
                  for piece in (", ", render_json(str(k)), ": ", render_json(v))]
        return _bracketed("{", pieces, "}")
    if isinstance(value, list):
        return _bracketed("[", [piece for v in value for piece in (", ", render_json(v))], "]")
    if isinstance(value, Fonts):
        return _fonts_json(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _bracketed(opening: str, pieces: list[str], closing: str) -> str:
    """opening + pieces + closing in one join, the items' text copied once.

    pieces leads each item with its ", " separator, and opening takes the
    first one's place.
    """
    pieces[:1] = [opening]
    pieces.append(closing)
    return "".join(pieces)
