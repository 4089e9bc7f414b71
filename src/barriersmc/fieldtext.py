"""Fixed-width `%.17g` text of float64 arrays, made at array speed.

`fields(values)` gives each value's `%-24.17g` text, byte for byte what
`percent(values)`, Python's `%`, gives: `%.17g`, which round-trips every
double, padded with spaces to WIDTH bytes. See `fields` for why its
digits are exact and which values it leaves to `%`.
"""

import functools

import numpy as np

# bytes of a field: the longest %.17g text of a double, such as
# -2.2250738585072014e-308, so every value fits its field
WIDTH = 24
FIELD_FMT = f"%-{WIDTH}.17g"  # %.17g, padded with spaces to WIDTH bytes
# `fields` takes its digits from longdouble products, exact with a 64-bit
# significand (x87 extended); with a narrower one every value goes through `%`
NMANT = 63
POW10_MAX = 400  # `fields` tables 10**k for |k| <= this: a double needs -292..340


def percent(values: np.ndarray) -> bytes:
    """The FIELD_FMT text of each value, by `%`."""
    part = values.tolist()
    return (FIELD_FMT * len(part) % tuple(part)).encode("ascii")


@functools.lru_cache(maxsize=None)
def _tables():
    """The tables of `fields`, built on its first call: 10**k for k in
    [-POW10_MAX, POW10_MAX] in longdouble, each parsed from its decimal
    text and so correctly rounded; the 4 ASCII digits of each group
    0000-9999 as a uint32, as they are and with their trailing zeros as
    spaces; each group's count of trailing zeros; and the exponent text
    of each e in that range, as `e+05` or `e-308`, in 5 bytes."""
    powers = range(-POW10_MAX, POW10_MAX + 1)
    pow10 = np.array([f"1e{k}" for k in powers], np.longdouble)
    digits = (np.arange(10000)[:, None] // np.array([1000, 100, 10, 1])) % 10
    trailing = np.cumprod(digits[:, ::-1] == 0, axis=1)[:, ::-1].astype(bool)
    text = (digits + ord("0")).astype(np.uint8)
    cut = np.where(trailing, ord(" "), text).astype(np.uint8)
    suffix = np.array([f"e{k:+03d}".ljust(5) for k in powers], "S5")
    return (pow10, text.view(np.uint32).ravel(), cut.view(np.uint32).ravel(),
            trailing.sum(axis=1).astype(np.int8), suffix.view(np.uint8).reshape(-1, 5))


def _digits(a: np.ndarray):
    """For finite positive doubles: the exponent of each as `%.17g` writes
    it (int16), its 17 significant digits as 20 bytes of text (3 zeros,
    then the digits with their trailing zeros as spaces), the count of
    digits before those zeros, and whether the digits were a near-tie,
    which only `%` rounds exactly. See `fields`."""
    pow10, quad, quad_cut, trailing, _ = _tables()
    e = np.floor(np.log10(a)).astype(np.int16)
    y = pow10[POW10_MAX + 16 - e]
    y *= a
    off = (y >= 1e17).view(np.int8) - (y < 1e16).view(np.int8)
    if off.any():  # log10 rounded across a power of ten
        e += off
        y = pow10[POW10_MAX + 16 - e]
        y *= a
    digits = y.astype(np.uint64)
    y -= digits  # exact: y > 2**53 keeps few fraction bits
    frac = y.astype(np.float64)
    del y
    near_tie = np.abs(frac - 0.5) < 1 / 64
    digits += frac > 0.5
    del frac
    carry = digits == 10 ** 17  # rounded up to the next power of ten
    if carry.any():
        digits[carry] = 10 ** 16
        e += carry
    high, low = (half.astype(np.uint32) for half in np.divmod(digits, np.uint64(10 ** 8)))
    text = np.empty((len(a), 5), np.uint32)  # 4 digits each, the first 000d
    g, rest = np.divmod(high, np.uint32(10 ** 8))
    text[:, 0] = quad[g]
    g, rest = np.divmod(rest, np.uint32(10 ** 4))
    text[:, 1], text[:, 2] = quad[g], quad[rest]
    g, rest = np.divmod(low, np.uint32(10 ** 4))
    text[:, 3], text[:, 4] = quad[g], quad_cut[rest]
    count = 17 - trailing[rest]
    rows = np.flatnonzero(rest == 0)
    if len(rows):  # the trailing zeros reach into the groups above
        above = digits[rows] // np.uint64(10 ** 4)
        zeros = np.ones(len(rows), bool)  # every group below is zero
        row_count = count[rows]
        for j in (3, 2, 1):
            above, g = np.divmod(above, np.uint64(10 ** 4))
            text[rows, j] = np.where(zeros, quad_cut[g], quad[g])
            row_count -= zeros * trailing[g]
            zeros &= g == 0
        count[rows] = row_count
    return e, text, count, near_tie


def _lay_out(out: np.ndarray, counts: np.ndarray, text: np.ndarray, e: np.ndarray,
             count: np.ndarray) -> None:
    """Write the fields of `fields` into `out`, whose rows are sorted by
    layout key, counts[k] rows of key k, from their `_digits` sorted alike.
    Every row of a key takes the same slice copies."""
    text = text.view(np.uint8).reshape(-1, 20)[:, 3:]
    suffix = _tables()[4]
    lo = 0
    for k in np.flatnonzero(counts).tolist():
        hi = lo + int(counts[k])
        block, d, p = out[lo:hi], text[lo:hi], k // 64  # p: after the sign
        if p:
            block[:, 0] = ord("-")
        if k % 64 < 32:  # fixed notation: dddd.ddd or 0.000ddd
            e10 = k % 64 - 4
            if e10 >= 0:  # the integer digits keep their zeros
                np.maximum(d[:, :e10 + 1], ord("0"), out=block[:, p:p + e10 + 1])
                if e10 < 16:
                    block[:, p + e10 + 1] = np.where(count[lo:hi] > e10 + 1,
                                                     ord("."), ord(" "))
                    block[:, p + e10 + 2:p + 18] = d[:, e10 + 1:]
            else:
                lead = 1 - e10  # "0." and the zeros after the point
                block[:, p:p + lead] = np.frombuffer(b"0.000", np.uint8)[:lead]
                block[:, p + lead:p + lead + 17] = d
        else:  # exponent notation: d.ddde+XX
            nd = k % 64 - 32
            block[:, p] = d[:, 0]
            if nd > 1:
                block[:, p + 1] = ord(".")
                block[:, p + 2:p + nd + 1] = d[:, 1:nd]
            at = p + nd + (nd > 1)
            block[:, at:at + 5] = suffix[POW10_MAX + e[lo:hi]]
        lo = hi


def fields(values: np.ndarray) -> np.ndarray:
    """The FIELD_FMT text of each value as a row of WIDTH uint8: the
    bytes of `percent`, made at array speed.

    A finite nonzero x has the digits N = round(|x| * 10**(16 - e)) in
    [1e16, 1e17), with e = floor(log10|x|). The product y is taken in
    longdouble from a correctly rounded table entry, so where the
    longdouble holds 64 bits (NMANT) y is within
    1e17 * 2 * 2**-64 < 0.011 of the exact product, and rounding it gives
    the exact N unless its fraction lies within 1/64 of 0.5. Those
    near-ties, zeros, infinities and NaNs go through `percent`, and so
    does every value where the longdouble is narrower.

    Values that share a layout are sorted together (a stable sort on an
    int16 key, which numpy does by radix) and laid out by slice copies:
    one layout per sign and e in fixed notation, -4 <= e < 17, and one per
    sign and digit count in exponent notation."""
    x = np.asarray(values, np.float64)
    n = len(x)
    if np.finfo(np.longdouble).nmant < NMANT:
        return np.frombuffer(percent(x), np.uint8).reshape(n, WIDTH)
    ok = np.isfinite(x) & (x != 0)
    e, text, count, near_tie = _digits(np.where(ok, np.abs(x), 1.0))
    # layout key: e + 4 in fixed notation, 32 + the digit count in exponent
    # notation, 64 more for a minus sign, and 128 for the values `%` formats
    key = np.where((e >= -4) & (e < 17), e + 4, 32 + count).astype(np.int16, copy=False)
    key += np.signbit(x) * np.int16(64)
    key[~ok | near_tie] = 128
    order = np.argsort(key, kind="stable")
    counts = np.bincount(key, minlength=129)
    text = text.view("V20").ravel().take(order)
    out = np.full((n, WIDTH), ord(" "), np.uint8)
    _lay_out(out, counts[:128], text, e.take(order), count.take(order))
    del text  # before the result: it and `out` are the largest arrays
    result = np.empty_like(out)
    result.view(f"V{WIDTH}").ravel()[order] = out.view(f"V{WIDTH}").ravel()
    del out
    if counts[128]:
        rest = np.flatnonzero(key == 128)
        result[rest] = np.frombuffer(percent(x[rest]), np.uint8).reshape(-1, WIDTH)
    return result
