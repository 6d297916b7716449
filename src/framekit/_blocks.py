"""The float kernel and the row layouts that ``serialize`` fills a block at a time.

``serialize`` writes per-atom records and large float arrays a block at a
time.  This module holds the parts of that writer that do not depend on the
JSON layout: the kernel that formats all the floats of a block at once
(``_kernel``) and the layout of a block of rows (``_Layout``).
``serialize`` imports it on the first block it writes: with no bytecode
cache, a process compiles every module it imports, and one that only
verifies or builds frames writes no block.
"""

from __future__ import annotations

import functools
import re
from typing import NamedTuple

import numpy as np

# The float kernel, _kernel, gives format(x, ".17g") for every float of an
# array from whole-array numpy steps.  For 1e-280 <= |x| <= 1e280 it takes
# e = floor(log10|x|) and y = |x| * 10**(16 - e) as a double-double (Dekker's
# two-product with 10**k held as hi + lo): exactly for -6 <= e <= 16, where
# 10**k is a double, and to about 1e-14 otherwise.  When
# 10**16 < N = round(y) < 10**17, and y is exact or more than 1e-6 from a
# half-integer, N holds the 17 significant digits '%.17g' rounds |x| to, and
# they are laid out by the %g rules: fixed notation for -4 <= e < 17,
# d.ddd...e+XX otherwise, trailing zeros dropped.  Every other float (zero,
# subnormals, |x| outside that range, near-ties outside -6 <= e <= 16, an e
# one off next to a power of ten, and NaN and inf) is left to the caller,
# serialize._fmt_float, which also raises on a non-finite one.  None of
# 10**6 normal floats spread over 1e-20 .. 1e20 took that path.

# 10**k is tabulated for _POW10_MIN <= k < 300, the k = 16 - e the kernel needs.
_POW10_MIN = -270
# Control characters the writer's text holds for a moment: the place of a
# float the kernel leaves to the caller, and the end of a run of floats in a
# record (see _layout).
_FALLBACK = "\x01"
_RUN_END = "\x02"


@functools.cache
def _kernel_tables():
    """10**k for k from _POW10_MIN as float64 (hi, hi split, lo): hi correctly
    rounded, split in two halves of 26 bits as Dekker's product uses it, and
    lo the correctly rounded rest, all by integer arithmetic; the float32
    reciprocals of 10**5 .. 10**0; the digit positions 0 .. 16.  Built on
    first use, not at import."""
    hi, lo = [], []
    for k in range(_POW10_MIN, 300):
        if k >= 0:
            h = float(10**k)
            hi.append(h)
            lo.append(float(10**k - int(h)))
        else:
            h = 1 / 10**-k  # int / int is correctly rounded
            num, den = h.as_integer_ratio()
            hi.append(h)
            lo.append((den - num * 10**-k) / (den * 10**-k))
    hi = np.array(hi)
    c = 134217729.0 * hi
    split = c - (c - hi)
    inverse = (1.0 / 10.0 ** np.arange(5, -1, -1)).astype(np.float32)
    return np.stack([split, hi - split, lo]), inverse[:, None], np.arange(17, dtype=np.uint8)[:, None]


def _kernel(x: np.ndarray, codes: np.ndarray, pieces: tuple) -> tuple[str, np.ndarray]:
    """The text of the 1-D float64 array x, each float followed by its
    piece, pieces[codes[i] - 0x80] (ASCII bytes), and the indices of the
    floats the kernel cannot certify, written as _FALLBACK."""
    n = x.size
    pow10, inverse, position = _kernel_tables()
    ax = np.abs(x)
    ok = (ax >= 1e-280) & (ax <= 1e280)
    ax[~ok] = 1.0
    e = np.log10(ax)
    e = np.floor(e, out=e).astype(np.int64)
    # y = p + t: p + err is ax * (bh + bl) exactly (Dekker's product, both
    # factors split at 2**27), and ax * lo adds the rest of 10**k
    bh, bl, lo = pow10[:, (16 - _POW10_MIN) - e]
    lo *= ax
    p = bh + bl
    p *= ax
    c = 134217729.0 * ax
    ah = c - (c - ax)
    ax -= ah
    t = ah * bh
    t -= p
    bh *= ax
    ah *= bl
    ax *= bl
    t += ah
    t += bh
    t += ax
    t += lo
    del ax, ah, bh, bl, c, lo
    # 10**k is exact for 0 <= k <= 22, and y with it: a tie there rounds half
    # to even as '%.17g' does, since p is even; elsewhere y is within 1e-14
    r = np.rint(t)
    t -= r
    ok &= ((e >= -6) & (e <= 16)) | (np.abs(t, out=t) < 0.5 - 1e-6)
    digits = p.astype(np.int64)
    digits += r.astype(np.int64)
    del p, r, t
    ok &= (digits > 10**16) & (digits < 10**17)
    # the 17 digits from three parts below 10**6, exact in float32:
    # floor((v + 0.5) / 10**j) is off by less than 0.12 / 10**j
    high = digits // 1000000
    digits -= high * 1000000
    top = high // 1000000
    high -= top * 1000000
    dig = np.empty((18, n), dtype=np.uint8)
    q = np.empty((6, n), dtype=np.float32)
    for j, part in enumerate((top, high, digits)):
        np.multiply(part.astype(np.float32) + np.float32(0.5), inverse, out=q)
        np.floor(q, out=q)
        q[1:] -= np.float32(10) * q[:-1]
        dig[6 * j : 6 * j + 6] = q
    dig = dig[1:]
    del digits, high, top, q
    # one row of text per column of out, NUL where a character is absent:
    # sign, "0." and zeros before the digits of 1e-4 <= |x| < 0.1, the digits
    # with a row for the point after each of the first few, the exponent
    last = ((dig != 0) * position).max(axis=0)  # the last nonzero digit
    fixed = (e >= -4) & (e < 17)
    whole = fixed & (e >= 0)
    small = fixed & ~whole
    sci = ~fixed
    front = np.where(whole, np.clip(e, 0, 16), 0).astype(np.uint8)
    dig += np.uint8(ord("0"))
    dig *= position <= np.maximum(last, front)
    point = front
    point[(last <= point) | small] = 16  # none
    points = int(np.max(point + 1, initial=0, where=point < 16))
    zeros = np.where(small, -1 - e, 0).astype(np.uint8)
    nzero = int(zeros.max()) if small.any() else -2
    rows = 3 + nzero + 17 + points
    out = np.zeros((rows + 5 * bool(sci.any()) + 1, n), dtype=np.uint8)
    out[0] = np.signbit(x) * np.uint8(ord("-"))
    if nzero >= 0:
        out[1] = small * np.uint8(ord("0"))
        out[2] = small * np.uint8(ord("."))
        out[3 : 3 + nzero] = (position[:nzero] < zeros) * np.uint8(ord("0"))
    row = 3 + nzero
    out[row : row + 2 * points : 2] = dig[:points]
    out[row + 1 : row + 2 * points : 2] = (position[:points] == point) * np.uint8(ord("."))
    out[row + 2 * points : rows] = dig[points:]
    if sci.any():
        size = np.abs(e)
        out[rows] = sci * np.uint8(ord("e"))
        out[rows + 1] = np.where(e < 0, ord("-"), ord("+")) * sci
        out[rows + 2] = np.where(size >= 100, size // 100 + ord("0"), 0) * sci
        out[rows + 3] = (size // 10 % 10 + ord("0")) * sci
        out[rows + 4] = (size % 10 + ord("0")) * sci
    out[-1] = codes
    del dig, last, fixed, whole, small, point, sci, e, zeros
    bad = np.flatnonzero(~ok)
    if bad.size:
        out[:-1, bad] = 0
        out[0, bad] = ord(_FALLBACK)
    text = out.T.tobytes()
    del out
    text = text.translate(None, b"\0")
    for i, piece in enumerate(pieces):
        text = text.replace(bytes((0x80 + i,)), piece)
    return text.decode("ascii"), bad


@functools.lru_cache(maxsize=64)
def _coded(lits: tuple) -> tuple[np.ndarray, tuple]:
    """The kernel's codes and pieces for these texts.  A layout's texts are
    the few separators of its rows, far fewer than the 128 codes."""
    distinct = dict.fromkeys(lits)
    assert len(distinct) <= 128
    index = {lit: 0x80 + i for i, lit in enumerate(distinct)}
    return np.array([index[lit] for lit in lits], dtype=np.uint8), tuple(lit.encode("ascii") for lit in distinct)


class _Layout(NamedTuple):
    """How the rows of a column table are written a block at a time.

    floats: the float columns, each a sequence of one item a row, all
    floats or all float64 arrays of one shape, which np.asarray stacks;
    values: (column, text of one item) for the other columns a row takes
    from; lits: the text after each float of a row, with _RUN_END after the
    last float of a run; recipe: a row as texts, value indices and None for
    each run of floats.
    """

    floats: list
    values: list
    lits: tuple
    recipe: list


def _layout(row: str, floats: list, values: list, sep: str) -> _Layout:
    """The layout of rows written as the text row followed by sep, where
    row holds "\0" for each float and "\1" for each value in turn."""
    tokens = re.split("([\0\1])", row + sep)
    pieces, kinds = tokens[0::2], tokens[1::2]
    lits, recipe, value = [], [pieces[0]], 0
    for i, kind in enumerate(kinds):
        after = pieces[i + 1]
        if kind == "\1":
            recipe += [value, after]
            value += 1
            continue
        if i == 0 or kinds[i - 1] == "\1":
            recipe.append(None)
        lits.append(after if kinds[i + 1 : i + 2] == ["\0"] else after + _RUN_END)
    recipe = [part for part in recipe if part != ""]
    return _Layout(floats, values, tuple(lits), recipe)
