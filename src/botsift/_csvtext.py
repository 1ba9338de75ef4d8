"""The CSV text of a chunk of columns, computed in numpy.

chunk(columns) gives the UTF-8 bytes csv.writer writes for rows whose
cells come column by column, each row ended by "\\r\\n", under the writers'
cell rule:

- an int64 value, or a float that is a whole number below 1e16 in
  magnitude, as integer digits;
- NaN, a missing value, as an empty cell;
- an infinite or subnormal float by repr, and an int64 past 2**53 by str,
  one value at a time (such values are rare);
- any other float in the shortest digits that read back to it, the closest
  of those to it, laid out as repr lays them out: positionally when the
  value is 0.ddd * 10**decpt with -4 < decpt <= 16, else as d[.ddd]e±XX,
  with at least two exponent digits;
- a token as it is, quoted where csv.writer quotes it.

The shortest digits are Schubfach's (R. Giulietti, "The Schubfach way to
render doubles", 2020). For v = c * 2**q and k = floor(log10(2**q)) (of
3/4 * 2**q where v's lower neighbour is half as far as its upper one),
the products of 4c - 2, 4c and 4c + 2 with 10**-k, rounded to odd, place
the bounds of the decimals that read back to v against the multiples of
10**k and 10**(k + 1). The 128-bit significand of 10**-k is tabled per
biased exponent from exact integers at import, and each 64 x 128-bit
product is taken in 32-bit limbs, so every step is exact arithmetic on
whole uint64 arrays (no int64 array meets a uint64 one: numpy would take
both to float64).

The text goes straight into one buffer. The digit places of every number
are written in descending place order, each place of all cells at once; a
cell's writes above its first digit land on earlier cells, whose own
places there come later in that order (see _put_digits). Dots, signs,
exponents, tokens and separators go in last.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Sequence

import numpy as np

_LOW = np.uint64(0xFFFFFFFF)
_FRACTION = np.uint64((1 << 52) - 1)
_ALL = np.uint64((1 << 64) - 1)
_POW10 = 10 ** np.arange(17, dtype=np.uint64)
# A t_dot for a cell with no decimal point.
_NO_DOT = 64
# Bytes ahead of a chunk's text: a cell's digit writes above its first
# digit reach at most 20 bytes before it.
_PAD = 24


def _words(values: list[int], bits: int, count: int) -> np.ndarray:
    """values as count words of bits each, a row per word, most
    significant first."""
    raw = b"".join(v.to_bytes(bits * count // 8, "big") for v in values)
    return np.frombuffer(raw, f">u{bits // 8}").reshape(len(values), count).T.astype(np.uint64)


def _tables() -> tuple[np.ndarray, np.ndarray]:
    """k, and the rows h, g, below, above, per index e + 2048 * closer,
    where e is a normal double's biased exponent and closer whether its
    fraction is zero and e > 1, so that its lower neighbour is half as far
    as its upper one.

    With r = floor(log2(10**-k)) - 127, g = floor(10**-k / 2**r) + 1 is
    held as four 32-bit limbs, most significant first, and
    h = q + r + 128, so that (4c << h) * g / 2**128 is 4v / 10**k from
    above. v's bounds have numerators 4c - 2 + closer and 4c + 2, so
    their products with g differ from v's by below = g * (2 - closer) << h
    and above = g * 2 << h, each held as three 64-bit words."""
    ks, hs, gs = [0] * 4096, [0] * 4096, [0] * 4096
    below, above = [0] * 4096, [0] * 4096
    significands: dict[int, tuple[int, int]] = {}  # k -> (r, g)
    for i in range(4096):
        e, closer = i % 2048, i >= 2048 and i % 2048 > 1
        if not 0 < e < 2047:
            continue
        q = e - 1075
        # floor(log10(2**q)), or of 3/4 * 2**q, by Schubfach's integer
        # formulas (exact for |q| <= 5456721)
        k = q * 661971961083 - closer * 274743187321 >> 41
        if k not in significands:
            power = 10 ** abs(k)
            if k <= 0:
                r = power.bit_length() - 128
                significands[k] = r, (power << -r if r < 0 else power >> r) + 1
            else:
                r = -power.bit_length() - 127
                significands[k] = r, (1 << -r) // power + 1
        r, gs[i] = significands[k]
        ks[i], hs[i] = k, q + r + 128
        below[i], above[i] = gs[i] * (2 - closer) << hs[i], gs[i] * 2 << hs[i]
    return np.array(ks, np.int64), np.concatenate([
        [np.array(hs, np.uint64)], _words(gs, 32, 4), _words(below, 64, 3), _words(above, 64, 3)])


_K, _ROWS = _tables()


def _product(g: list[np.ndarray], cp: np.ndarray) -> list[np.ndarray]:
    """g * cp as 64-bit words, most significant first, for the 128-bit g
    of four 32-bit limbs and cp < 2**60: each sum below is of the 32-bit
    place its comment names, and stays under 2**64."""
    g3, g2, g1, g0 = g
    c1, c0 = cp >> 32, cp & _LOW
    a, b = g0 * c0, g1 * c0
    s = (a >> 32) + (b & _LOW) + g0 * c1  # 2**32
    low = s << 32 | a & _LOW
    a = g2 * c0
    s = (s >> 32) + (b >> 32) + (a & _LOW) + g1 * c1  # 2**64
    middle = s & _LOW
    b = g3 * c0
    s = (s >> 32) + (a >> 32) + (b & _LOW) + g2 * c1  # 2**96
    middle |= s << 32
    return [(s >> 32) + (b >> 32) + g3 * c1, middle, low]  # 2**128


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(digits, k) of the positive normal doubles whose bits these are:
    the shortest decimal digits * 10**k that reads back to each, the
    closest such (ties to an even last digit)."""
    e = (bits >> 52).astype(np.intp)
    fraction = bits & _FRACTION
    index = e + 2048 * (fraction == 0)
    c = fraction | np.uint64(1 << 52)
    odd = c & 1
    # 4v / 10**k, and 4v's bounds over 10**k, from above and rounded to
    # odd: floor(P / 2**128) of P = g * (numerator << h), its lowest bit
    # set where the next 64 bits of P are over 1. The bounds' P differ
    # from v's by the tabled g * (lower << h) and g * (2 << h).
    h, *g, b0, b1, b2, a0, a1, a2 = np.take(_ROWS, index, axis=1)
    high, middle, low = _product(g, c << h + 2)
    vb = high | (middle > 1)
    borrow = low < b2
    lower = middle - b1
    borrow, lower = (middle < b1) | (lower == 0) & borrow, lower - borrow
    lower = (high - b0 - borrow | (lower > 1)) + odd
    carry = low + a2 < a2
    upper = middle + a1
    carry, upper = (upper < a1) | (upper == _ALL) & carry, upper + carry
    upper = (high + a0 + carry | (upper > 1)) - odd
    s = vb >> 2
    # one of s * 10**k and (s + 1) * 10**k reads back to v, and at most
    # one multiple of 10**(k + 1) does: that one if it does, else the
    # nearer of the two that do, the even one at a tie
    sp = s // 10
    ten = sp * 40
    up, wp = lower <= ten, ten + 40 <= upper
    one = s << 2
    w = one + 4 <= upper
    nearer = (vb & 3) + (s & 1) > 2
    closest = w & (nearer | (one < lower))
    short = up != wp
    digits = np.where(short, sp + wp, s + closest)
    return digits, np.take(_K, index) + short


class _Numbers(NamedTuple):
    """How _numbers writes a column's numbers, by byte offset from each
    cell's start: the cells with digits (None: every cell), their digits,
    the offset of their last digit, the place left of which a decimal
    point falls (None: no cell has one) and the highest place written;
    then the other bytes, as (cells, offsets, bytes), and the texts
    written whole, as (cell, text)."""

    cells: np.ndarray | None
    digits: np.ndarray
    last: np.ndarray
    t_dot: np.ndarray | None
    top: int
    marks: list[tuple[np.ndarray, np.ndarray | int, np.ndarray | int]]
    texts: list[tuple[int, str]]


def _numbers(column: np.ndarray) -> tuple[np.ndarray, _Numbers]:
    """The width in bytes of each cell of a float64 or int64 column, and
    how to write them."""
    texts: list[tuple[int, str]] = []
    if column.dtype.kind == "f":
        x = np.ascontiguousarray(column, np.float64)
    else:
        ints = np.asarray(column, np.int64)
        wide = np.flatnonzero((ints > 2 ** 53) | (ints < -2 ** 53))
        texts = list(zip(wide.tolist(), map(str, ints[wide].tolist())))
        x = ints.astype(np.float64)
        x[wide] = np.nan
    nan = np.isnan(x)
    if nan.any():
        x = np.where(nan, 0.0, x)  # no arithmetic on a signalling NaN
    a = np.abs(x)
    whole = (np.trunc(a) == a) & (a < 1e16) & ~nan
    e = a.view(np.uint64) >> 52
    schub = ~whole & (e != 0) & (e != 2047)
    digit = whole | schub
    special = np.flatnonzero(~digit & ~nan)
    texts += zip(special.tolist(), map(repr, column[special].tolist()))
    digits = np.where(whole, a, 0.0).astype(np.uint64)
    k = np.zeros(len(x), np.int64)
    some = np.flatnonzero(schub)
    if some.size:
        d, kd = _shortest(a.view(np.uint64)[some])
        # strip trailing zeros, at most 15: digits that end in 0 are a
        # multiple of 10**(k + 1), so at most 16 digits long
        zeros = np.flatnonzero(d % 10 == 0)
        if zeros.size:
            dz, kz = d[zeros], kd[zeros]
            for p in (8, 4, 2, 1):
                m = dz % 10 ** p == 0
                dz = np.where(m, dz // 10 ** p, dz)
                kz += m * p
            d[zeros], kd[zeros] = dz, kz
        digits[some], k[some] = d, kd
    n = np.maximum(np.searchsorted(_POW10, digits, side="right"), 1)
    decpt = n + k
    expo = schub & ((decpt <= -4) | (decpt > 16))
    fixed = schub & ~expo
    neg = (x < 0) & digit
    last = neg + n - 1 + fixed * (1 + np.maximum(1 - decpt, 0)) + (expo & (n > 1))
    width = np.where(digit, last + 1 + expo * (4 + (np.abs(decpt - 1) >= 100)), 0)
    for i, text in texts:
        width[i] = len(text.encode())
    t_dot = np.where(fixed, n - decpt, np.where(expo & (n > 1), n - 1, _NO_DOT))
    top = np.where(fixed, n - np.minimum(decpt, 1), n - 1)
    dots = np.flatnonzero(t_dot < _NO_DOT)
    marks = [(dots, last[dots] - t_dot[dots], ord(".")), (np.flatnonzero(neg), 0, ord("-"))]
    expo = np.flatnonzero(expo)
    if expo.size:
        exponent = decpt[expo] - 1
        end = width[expo]
        marks += [(expo, last[expo] + 1, ord("e")),
                  (expo, last[expo] + 2, np.where(exponent < 0, ord("-"), ord("+")))]
        exponent = np.abs(exponent)
        three = np.flatnonzero(exponent >= 100)
        marks += [(expo, end - 1, ord("0") + exponent % 10),
                  (expo, end - 2, ord("0") + exponent // 10 % 10),
                  (expo[three], end[three] - 3, ord("0") + exponent[three] // 100)]
    if digit.all():
        cells = None
    else:
        cells = np.flatnonzero(digit)
        digits, last, t_dot, top = digits[cells], last[cells], t_dot[cells], top[cells]
    return width, _Numbers(cells, digits, last, t_dot.astype(np.int8) if dots.size else None,
                           int(top.max(initial=-1)), marks, texts)


# A token holding one of these characters is quoted, as csv.writer quotes
# under its default dialect (QUOTE_MINIMAL, "\r\n" line ends).
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _quote(token: str) -> str:
    if _NEEDS_QUOTES.search(token):
        return '"' + token.replace('"', '""') + '"'
    return token


def _places(digits: np.ndarray, top: int) -> np.ndarray:
    """The decimal digits of each of digits (< 10**17) at places 0 to top
    (at most 16), as ASCII, a row per place, place 0 first."""
    places = np.empty((min(top, 16) + 1, len(digits)), np.uint8)
    hi = (digits // 10 ** 8).astype(np.uint32)
    part = (digits - hi.astype(np.uint64) * 10 ** 8).astype(np.uint32)
    for t in range(len(places)):
        if t == 8:
            part = hi
        q = part // 10
        places[t] = part - q * 10
        part = q
    places += ord("0")
    return places


def _put_digits(buf: np.ndarray, numbers: list[tuple[np.ndarray, _Numbers]]) -> None:
    """Write the digits of the numbers of each column from its cells'
    starts: place 0 at the last digit byte, a place at or above t_dot one
    byte further left.

    Each place of all cells is written at once, from the highest top down.
    A cell also writes its places above its own first digit and up to its
    column's top as '0's (leading zeros of 0.00ddd are such places), onto
    bytes left of it. For a cell B, a byte there of an earlier cell A's
    digits is A's place t_A = t_B - (last_B - last_A) + (dots passed) <
    t_B, as last_B - last_A is at least 2 (a byte of B and a separator) and
    at most one dot is passed, so A writes it later; any other byte there
    is written after the digits."""
    columns = []
    for start, cells in numbers:
        if cells.top >= 0:
            # place t goes to base + top - t, base rising by one past t_dot
            base = (start if cells.cells is None else start[cells.cells]) + cells.last - cells.top
            if cells.t_dot is not None:
                base -= cells.t_dot <= cells.top
            columns.append((base, cells.t_dot, _places(cells.digits, cells.top), cells.top))
    for t in range(max((column[3] for column in columns), default=-1), -1, -1):
        for base, t_dot, places, top in columns:
            if t <= top:
                buf[top - t:][base] = places[t] if t < 17 else ord("0")
                if t_dot is not None:
                    base += t_dot == t


def _put_text(buf: np.ndarray, starts: np.ndarray, texts: list[bytes]) -> None:
    """Write each of texts from its start in buf."""
    lengths = np.fromiter(map(len, texts), np.int64, len(texts))
    total = int(lengths.sum())
    if not total:
        return
    shift = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    buf[shift + np.arange(total)] = np.frombuffer(b"".join(texts), np.uint8)


def chunk(columns: Sequence[np.ndarray]) -> bytes:
    """The CSV bytes of rows whose cells come column by column: float64,
    int64 or string columns of one length, under the rule of the module
    docstring."""
    rows, m = len(columns[0]), len(columns)
    if not rows:
        return b""
    widths = np.empty((rows, m), np.int64)
    numbers: list[tuple[int, _Numbers]] = []
    texts: list[tuple[int, int, list[bytes]]] = []  # (column, first row, texts)
    for j, column in enumerate(columns):
        if column.dtype.kind == "U":
            tokens, inverse = np.unique(column, return_inverse=True)
            encoded = [_quote(token).encode() for token in tokens.tolist()]
            widths[:, j] = np.fromiter(map(len, encoded), np.int64, len(encoded))[inverse]
            texts.append((j, 0, [encoded[i] for i in inverse.tolist()]))
        else:
            widths[:, j], cells = _numbers(column)
            numbers.append((j, cells))
            texts += [(j, i, [text.encode()]) for i, text in cells.texts]
    spans = widths + 1
    spans[:, -1] += 1  # "\r\n"
    starts = np.cumsum(spans).reshape(rows, m) + (_PAD - spans)
    buf = np.empty(_PAD + int(spans.sum()), np.uint8)
    _put_digits(buf, [(starts[:, j], cells) for j, cells in numbers])
    for j, cells in numbers:
        for at, offsets, values in cells.marks:
            buf[starts[at, j] + offsets] = values
    for j, row, cell_texts in texts:
        _put_text(buf, starts[row:row + len(cell_texts), j], cell_texts)
    ends = starts + widths
    buf[ends[:, :-1]] = ord(",")
    buf[ends[:, -1]] = ord("\r")
    buf[ends[:, -1] + 1] = ord("\n")
    return buf[_PAD:].tobytes()
