"""Exact ``"%.17g"`` text for whole float64 arrays, built with numpy.

The trace writer formats tens of thousands of values per run; Python's
``"%.17g" % v`` costs about a microsecond for each value that needs 17
digits. Here one block of values goes through a fixed sequence of numpy
operations instead, and only the values this arithmetic cannot prove
correct (see :func:`_round17`) are handed to Python one by one.

Texts are laid out in little-endian int64 words whose zero bytes are pads;
dropping every zero byte of a block of such words leaves the text. A float
field is :data:`WORDS` words:

* word 0: ``","``, then the sign and, for decimal exponents -4..-1, ``"0."``
  and zeros;
* words 1-3: 18 body slots, slot j in byte j % 8 of word 1 + j // 8: the
  significant digits with a point slot after the last integer digit; then
  the exponent (``"e-308"`` at most) in bytes 2-6 of word 3, and byte 7
  free for the caller (the trace writer puts a line's ``"\\n"`` there).
"""

from __future__ import annotations

import numpy as np

WORDS = 4
WORD = np.dtype("<i8")  # little-endian whatever the host, so the bytes read in text order


def _le(text: str) -> int:
    """The integer whose little-endian bytes spell text."""
    return int.from_bytes(text.encode(), "little")


# lead word by kind: 0 none, 1-4 "0." and kind - 1 zeros, 5 "0" (a zero); +6 signed
_LEADS = np.array(
    [_le("," + sign + lead) for sign in ("", "-")
     for lead in ("", "0.", "0.0", "0.00", "0.000", "0")],
    dtype=np.int64,
)
# exponent bytes, shifted to bytes 2-6 of word 3, by the scale s (below); 0 for fixed notation
_EXPONENTS = np.array([0] * 21 + [_le("e-%02d" % (s - 16)) << 16 for s in range(21, 298)],
                      dtype=np.int64)
# _FIRST_SLOTS[w, k]: the bytes of word w that hold slots 0..k-1, as signed words
_FIRST_SLOTS = np.array(
    [[(1 << 8 * min(max(k - 8 * w, 0), 8)) - 1 for k in range(19)] for w in range(3)],
    dtype=np.uint64,
).view(np.int64)
# the flat offset of each row of _FIRST_SLOTS, shaped to broadcast over (3, k, j) words
_WORD_ROWS = np.arange(0, _FIRST_SLOTS.size, _FIRST_SLOTS.shape[1]).reshape(3, 1, 1)
_ASCII_ZEROS = _le("0" * 8)
# a word of digit bytes 0..9 exceeds _BYTES_BELOW[b] exactly when a byte from b on is nonzero
_BYTES_BELOW = (1 << 8 * np.arange(8, dtype=np.int64)) - 1
_POWERS_OF_TEN = 10 ** np.arange(17, dtype=np.int64)
# the doubles nearest 10^k, k = -281..16: the decade of each 1e-280 <= |v| < 1e16
_DECADES = np.array([float(f"1e{k}") for k in range(-281, 17)])
# 10^s for s = 0..297, the scales that take those |v| into [10^16, 10^17), as hi + lo
_TEN_HI = np.array([float(10**s) for s in range(298)])
_TEN_LO = np.array([float(10**s - int(hi)) for s, hi in enumerate(_TEN_HI)])


def _split(x: np.ndarray):
    """Dekker's split of doubles into two 26-bit halves, x = hi + lo exactly."""
    t = x * 134217729.0  # 2^27 + 1
    hi = t - (t - x)
    return hi, x - hi


def _round17(v: np.ndarray):
    """Each |v| rounded to 17 significant digits, as (D, s, exact).

    |v| rounds to D / 10^s with D in [10^16, 10^17), so 16 - s is the
    decimal exponent. Where ``exact`` is False nothing is proved: zero, NaN,
    inf, |v| outside [1e-280, 1e16), a fraction within 2^-30 of a tie, 17
    nines that may round up into the next decade, or the one double in a
    decade (the nearest to 10^k, when below it) that _DECADES places a
    decade too high.
    """
    a = np.abs(v)
    exact = (a >= 1e-280) & (a < 1e16)
    a = np.where(exact, a, 1.0)
    s = 298 - np.searchsorted(_DECADES, a, side="right")
    hi = _TEN_HI.take(s)
    # a * 10^s = p + q to ~2^-100 relative: Dekker's exact a * hi (numpy has no fma), plus a * lo
    p = a * hi
    a1, a2 = _split(a)
    h1, h2 = _split(hi)
    q = a1 * h1 - p
    q += a1 * h2
    q += a2 * h1
    q += a2 * h2
    q += a * _TEN_LO.take(s)
    whole = np.floor(q)
    q -= whole  # the fraction, in [0, 1)
    D = p.astype(np.int64) + whole.astype(np.int64)
    # a floor of 10^17 - 1 may round up into the next decade; Python prints those
    exact &= (D >= 10**16) & (D < 10**17 - 1) & (np.abs(q - 0.5) > 2.0**-30)
    D += q > 0.5
    return D, s, exact


def _digits8(x: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of each 0 <= x < 10^8 as the bytes of a word, most significant first."""
    # halves in 32-bit lanes, quarters in 16-bit lanes, digits in bytes; each
    # quotient by 10^4, 100 or 10 is a multiply and shift, exact at these sizes
    hi = x * 109951163 >> 40
    x = hi | (x - 10000 * hi) << 32
    hi = x * 10486 >> 20 & 0x0000007F0000007F
    x = hi | (x - 100 * hi) << 16
    hi = x * 103 >> 10 & 0x000F000F000F000F
    return hi | (x - 10 * hi) << 8


def _slow(values: list) -> list:
    """``"%.17g" % v`` by Python itself, for the values _round17 cannot prove."""
    return [("%.17g" % v).encode() for v in values]


def format_floats(v: np.ndarray, out: np.ndarray) -> None:
    """Write ``"," + "%.17g" % v[k, j]`` for a 2-D float64 array into the words out[k, :, j]."""
    D, s, exact = _round17(v)
    # the digits d0..d16 of D: bytes 0-7 of word 0, 0-7 of word 1, 0 of word 2
    L = np.empty((3,) + v.shape, np.int64)
    L[0], rest = np.divmod(D, 10**9)
    L[1], L[2] = np.divmod(rest, 10)
    L[:2] = _digits8(L[:2])
    # significant digits: up to the last nonzero digit byte
    last = np.searchsorted(_BYTES_BELOW, L[:2])
    nd = np.where(L[2] != 0, 17, np.where(last[1] > 0, 8 + last[1], last[0]))
    L[:2] |= _ASCII_ZEROS
    L[2] |= 0x30
    zero = v == 0
    fixed = s <= 20  # "%g" picks fixed notation for exponents -4..16; else "d.ddde-XX"
    ip = np.where(fixed, np.maximum(16 - s, -1), 0)  # slot of the last integer digit
    # body slot j holds d_j up to ip, then d_(j-1), after the point slot ip + 1
    R = L << 8
    R[1:] |= L[:-1] >> 56
    col = ip + 1 + _WORD_ROWS
    sel = _FIRST_SLOTS.take(col)
    L ^= R
    L &= sel
    L ^= R
    col += 1
    point = _FIRST_SLOTS.take(col) ^ sel
    # keep the slots before the last significant digit's, or before the point's
    np.add(np.where(zero, 0, np.maximum(ip + 1, nd + 1)), _WORD_ROWS, out=col)
    L &= _FIRST_SLOTS.take(col)
    L |= point
    L ^= point
    point *= (nd > ip + 1) & (ip >= 0)
    L |= point & _le("." * 8)
    kind = np.where(fixed & (s > 16), s - 16, 0)
    kind[zero] = 5
    kind += 6 * np.signbit(v)
    out[:, 0] = _LEADS.take(kind)
    out[:, 1] = L[0]
    out[:, 2] = L[1]
    out[:, 3] = L[2] | _EXPONENTS.take(s)
    slow = np.nonzero(~(exact | zero))
    for k, j, text in zip(*slow, _slow(v[slow].tolist())):
        out[k, :, j] = np.frombuffer(b"," + text.ljust(31, b"\0"), WORD)


def format_indices(first: int, count: int, words: int) -> np.ndarray:
    """``"%d"`` of first, first + 1, ... (below 10^(8 words)) as rows of ``words`` words."""
    n = np.arange(first, first + count, dtype=np.int64)
    out = np.empty((words, count), np.int64)
    rest = n
    for w in reversed(range(words)):
        rest, out[w] = np.divmod(rest, 10**8)
    out = _digits8(out) | _ASCII_ZEROS
    # clear the leading zeros: the first 8 * words - len("%d" % n) bytes
    pads = _FIRST_SLOTS.take(8 * words - np.searchsorted(_POWERS_OF_TEN, n, side="right")
                             + _WORD_ROWS[:words, 0])
    out |= pads
    out ^= pads
    return out.T
