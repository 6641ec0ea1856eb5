"""Similarity matrices and simplex points with their validity contracts.

One validator, `_validated`, checks every similarity matrix. It takes
ownership of a fresh float64 array, checks it in place and freezes it,
so constructors that build their own array hand it over without a copy;
`new_similarity_matrix` copies its argument first. Whole-matrix scans
(symmetry, off-diagonal extremes) walk square tiles of _TILE x _TILE, so
their scratch is one tile, not an n x n temporary.

`ShiftedMatrix(A, s, S)` stands for B = A_SS + s(11' - I), the matrix a
clustering round solves over the objects S it has not clustered yet, without
building it: the solvers read rows of the one immutable A, add the scalar
shift s and keep their Frank-Wolfe vertex inside S. A `SimilarityMatrix`
is the same operator with s = 0 and S = all, so both expose `base`,
`shift` and `active`.

The dense primitives here (matvec, quadratic_form) are deliberately O(n^2):
they serve as oracles against the solvers' O(n) incremental updates.

Both directions of a matrix CSV scale by a power of ten with one
arithmetic, `_scale`: y = v 10^k as the double-double p + lo, where the
float64 pair H_k + L_k is 10^k within 2^-106, relatively
(-117 <= k <= 117), p = fl(v H_k) and lo is its rounding error, exact from
Dekker's split and TwoProduct (Numer. Math. 1971, no FMA needed), plus
fl(v L_k). No partial product below leaves the normal range (they lie
in about 1e-134 to 1e126), and p + lo is within about 2^-103 y of y.

`save_matrix_csv` writes the bytes np.savetxt(path, A.entries,
delimiter=",") writes, one run of rows (a tile's worth of entries) at a
time, so its scratch is O(block * n), never n x n. Within a run it
formats each nonzero value where it stands and writes the zero token for
each zero, as the reader reads each token where it stands. Every run
whose tokens all have np.savetxt's 24 characters (+0.0 and positive
values with two-digit exponents) is written that way; a run holding a
negative value, -0.0, NaN, inf or a three-digit exponent is formatted
line by line by %. The tokens are those "%.18e" gives, digit for digit:

- the token of v > 0 is d0.f1..f18e+XX (or e-XX) with the 19 digits of
  N = round(v 10^k), k = 18 - E, at the exponent E for which
  10^18 <= N < 10^19; % rounds correctly, ties to even. E starts at
  floor(log10 v), which may be one off next to a power of ten, and moves
  by one while N is out of range;
- y = v 10^k < 10^20, with -81 <= k <= 117, is p + lo within 2^-36;
- p >= 10^17 > 2^53 is an integer, so N = p + floor(lo), plus one when
  the fraction lo - floor(lo) exceeds 1/2. That is round(y) whenever the
  fraction is more than 2^-30 from 1/2. A value nearer than that is
  formatted by %: exact ties occur, such as 2^-28 =
  3.7252902984619140625e-09, whose 20th and last digit is 5;
- N's digits are laid out eight to a word, in the reverse of the reader's
  multiply-shift-mask rounds below, and XOR with the zero token makes
  them text.

`load_matrix_csv` reads without np.loadtxt the layout that writer and
np.savetxt produce for a nonnegative matrix whose exponents have two
digits: 25 n^2 bytes, n lines of n 24-byte tokens
d.ddddddddddddddddddde+XX (or e-XX), each followed by ',' or, at a
line's end, a newline. It reads chunks of about 256 KB into one buffer,
checks every byte of the layout there with whole-chunk numpy operations
and gets every float64 bit for bit as np.loadtxt does:

- the zero token 0.000000000000000000e+00 is 0.0, with no arithmetic;
- the bytes are XORed with the zero token, which turns each digit into its
  value (XOR, not subtraction: a subtraction would borrow across the '.'),
  and the 19 digits become one integer m < 10^19 < 2^64, eight digits a
  word in three multiply-shift-mask rounds (Lemire, SP&E 2021);
- m = a + b, with a = float64(m), exact, and |b| <= 2^-53 a. With
  q = 18 - exponent in [-81, 117], y = m 10^-q is p + lo for a and
  k = -q, plus fl(b H_k), within about 2^-103 y;
- z = fl(p + lo) is taken when |fl(fl(p - z) + lo)| <= spacing(z) / 8.
  The decimal value y then lies within (1/8 + 2^-49) spacing(z) of z,
  strictly inside z's rounding interval, whose half-widths are at least
  spacing(z) / 4, so z is its correctly rounded double. Every token
  np.savetxt writes passes, as its 19 digits lie within 0.005 spacing(z)
  of the double they print;
- a token that fails the margin, next to a rounding midpoint, goes
  through float(), which rounds correctly too.

A file that breaks the layout anywhere (a negative value, -0.0, a
three-digit exponent, CRLF line ends, short or extra rows, NaN) or is
compressed is read by np.loadtxt and keeps np.loadtxt's errors.
"""

from __future__ import annotations

import bz2
import gzip
import lzma
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import ClassVar

import numpy as np

from .errors import (
    AsymmetricMatrix,
    DimensionMismatch,
    NegativeEntry,
    NonFiniteEntry,
    NonSquareMatrix,
    NonzeroDiagonal,
    TooSmall,
)

SUM_TOL = 1e-12
SYM_TOL = 1e-9
DIAG_TOL = 1e-12
_TILE = 128


@dataclass(frozen=True)
class SimilarityMatrix:
    """Dense symmetric nonnegative n x n matrix with zero diagonal.

    Immutable after construction; safe to share across concurrent solver
    runs. Use :func:`new_similarity_matrix` to build a validated instance.
    """

    entries: np.ndarray
    # As an operator, the matrix is itself, unshifted, over all objects.
    shift: ClassVar[float] = 0.0
    active: ClassVar[None] = None

    @property
    def base(self) -> "SimilarityMatrix":
        return self

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def row_sums(self) -> np.ndarray:
        return self.entries.sum(axis=1)


@dataclass(frozen=True)
class ShiftedMatrix:
    """B = A + shift * (11' - I) on the face of the simplex spanned by
    `active` (a boolean array over A's objects with at least one True;
    None means all), held implicitly over the immutable A.

    Maximizing x'Bx over that face is the StQP of the compacted matrix
    A_SS + shift * (11' - I). For x supported in S, Bx = Ax + shift * (1 - x)
    on every coordinate, so the solvers read rows of A and add the scalar
    shift; only the Frank-Wolfe vertex is restricted to S. Coordinates stay
    global: a solve returns x over all n objects, zero off S. The shift,
    finite and nonnegative, is stated here and nowhere else.
    """

    base: SimilarityMatrix
    shift: float = 0.0
    active: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.base, SimilarityMatrix):
            raise TypeError("a ShiftedMatrix shifts a SimilarityMatrix")
        if not 0.0 <= self.shift < np.inf:  # NaN fails too
            raise ValueError("shift must be finite and nonnegative")
        if self.active is None:
            return
        if not (isinstance(self.active, np.ndarray)
                and self.active.dtype == bool):
            raise TypeError("active must be a boolean array")
        if self.active.shape != (self.n,):
            raise DimensionMismatch(
                f"active mask of shape {self.active.shape} vs matrix "
                f"n={self.n}")
        if not self.active.any():
            raise TooSmall("active mask selects no object")

    @property
    def n(self) -> int:
        return self.base.n


def renormalize_if_needed(coords: np.ndarray) -> None:
    """Divide simplex coordinates by their sum, in place, when the sum has
    drifted from 1 by more than SUM_TOL."""
    s = coords.sum()
    if abs(s - 1.0) > SUM_TOL:
        coords /= s


def simplex_point(coords) -> np.ndarray:
    """Check raw coordinates as a point of the standard simplex and return
    them as a float64 array; its support is where it is positive."""
    arr = np.asarray(coords, dtype=float)
    if arr.ndim != 1:
        raise DimensionMismatch(f"a simplex point is 1-D, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteEntry("simplex point has a NaN or infinite coordinate")
    if np.any(arr < 0):
        raise NegativeEntry("simplex point has a negative coordinate")
    if abs(arr.sum() - 1.0) > SUM_TOL:
        raise DimensionMismatch(f"simplex sum drifted: {arr.sum()!r}")
    return arr


def _row_chunks(n: int) -> list[slice]:
    """Runs of consecutive rows of an n x n array, each holding about one
    tile's worth of entries, so per-chunk temporaries stay tile-sized."""
    step = max(1, _TILE * _TILE // max(n, 1))
    return [slice(k, k + step) for k in range(0, n, step)]


def _tiles(n: int) -> list[tuple[slice, slice]]:
    """Pairs of square tiles (I, J) with J at or right of I; with their
    mirrors (J, I) they cover the n x n index set once."""
    cuts = [slice(k, min(k + _TILE, n)) for k in range(0, n, _TILE)]
    return [(I, J) for a, I in enumerate(cuts) for J in cuts[a:]]


def _asymmetry(arr: np.ndarray) -> float:
    """max |a_ij - a_ji| over the whole square array (0 when it is empty),
    exactly as np.max(np.abs(arr - arr.T), initial=0.0), tile by tile.
    fl(a - b) = -fl(b - a), so tiles at or right of the diagonal suffice;
    NaN propagates as in the whole-array maximum."""
    worst = np.float64(0.0)
    buf = np.empty((_TILE, _TILE))
    for I, J in _tiles(arr.shape[0]):
        tile = buf[: I.stop - I.start, : J.stop - J.start]
        np.subtract(arr[I, J], arr[J, I].T, out=tile)
        np.abs(tile, out=tile)
        worst = np.maximum(worst, tile.max())
    return float(worst)


def _require_square(arr: np.ndarray) -> int:
    """n of an n x n array; NonSquareMatrix or TooSmall (n = 0) if not."""
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NonSquareMatrix(f"expected a square matrix, got {arr.shape}")
    if arr.shape[0] == 0:
        raise TooSmall("a matrix needs at least one object")
    return arr.shape[0]


def _validated(arr: np.ndarray) -> SimilarityMatrix:
    """The one similarity-matrix validator. Takes ownership of `arr`, a
    fresh float64 array that nobody else holds: checks it in place, forces
    tiny diagonal entries to zero and freezes it."""
    _require_square(arr)
    # min and max propagate NaN, so both are finite exactly when every
    # entry is.
    if not (np.isfinite(arr.min(initial=0.0))
            and np.isfinite(arr.max(initial=0.0))):
        raise NonFiniteEntry("similarities must be finite (no NaN or inf)")
    if _asymmetry(arr) > SYM_TOL:
        raise AsymmetricMatrix("matrix is not symmetric")
    diag = np.diagonal(arr)
    if np.any(np.abs(diag) > DIAG_TOL):
        raise NonzeroDiagonal("self-similarities must be zero")
    np.fill_diagonal(arr, 0.0)
    if arr.min(initial=0.0) < 0:
        raise NegativeEntry("similarities must be nonnegative")
    arr.setflags(write=False)
    return SimilarityMatrix(arr)


def new_similarity_matrix(raw) -> SimilarityMatrix:
    """Validate a copy of a raw square array as a similarity matrix; the
    caller's array is never frozen or aliased.

    Raises NonSquareMatrix, TooSmall, NonFiniteEntry, AsymmetricMatrix,
    NegativeEntry or NonzeroDiagonal (all ValueErrors) when the respective
    contract is violated. Diagonal entries within 1e-12 of zero are forced
    to exactly zero.
    """
    return _validated(np.array(raw, dtype=float))


Operator = SimilarityMatrix | ShiftedMatrix


def matvec(A: Operator, x: np.ndarray) -> np.ndarray:
    """Dense B @ x for the matrix B that A stands for; O(n^2) reads of A,
    O(n) scratch. This is the oracle, not the hot path."""
    v = np.asarray(x, dtype=float)
    if v.shape[0] != A.n:
        raise DimensionMismatch(f"dim {v.shape[0]} vs matrix n={A.n}")
    out = A.base.entries @ v
    if A.shift:
        out += A.shift * (v.sum() - v)
    return out


def quadratic_form(A: Operator, x: np.ndarray) -> float:
    """Dense x' B x."""
    v = np.asarray(x, dtype=float)
    return float(v @ matvec(A, v))


def offdiag_extremes(A: Operator) -> tuple[float, float]:
    """(min, max) over the off-diagonal entries of B on its active objects,
    tile by tile: tiles off the diagonal are read in place (copied, when
    only some objects are active), diagonal tiles through one tile of
    scratch with their diagonal masked. Rounding is monotone, so adding
    the shift to the extremes of A gives the extremes of B exactly."""
    idx = None if A.active is None else np.flatnonzero(A.active)
    m = A.n if idx is None else idx.size
    if m < 2:
        raise TooSmall("need n >= 2 for off-diagonal extremes")
    E = A.base.entries

    def read(I: slice, J: slice) -> np.ndarray:
        return E[I, J] if idx is None else E[np.ix_(idx[I], idx[J])]

    lo, hi = np.inf, -np.inf
    buf = np.empty((_TILE, _TILE))
    for I, J in _tiles(m):
        if I == J:
            tile = buf[: I.stop - I.start, : I.stop - I.start]
            tile[...] = read(I, I)
            np.fill_diagonal(tile, np.inf)
            lo = min(lo, tile.min())
            np.fill_diagonal(tile, -np.inf)
            hi = max(hi, tile.max())
        else:
            for tile in (read(I, J), read(J, I)):
                lo = min(lo, tile.min())
                hi = max(hi, tile.max())
    return float(lo) + A.shift, float(hi) + A.shift


# The suffixes that np.savetxt compresses and np.loadtxt decompresses.
_COMPRESSED = {".gz": gzip.open, ".bz2": bz2.open,
               ".xz": lzma.open, ".lzma": lzma.open}


def _require_rows(path, what: str) -> None:
    """Raise TooSmall where np.loadtxt would find no rows and warn."""
    with _COMPRESSED.get(Path(path).suffix, open)(path, "rb") as fh:
        if not any(line.split(b"#", 1)[0].strip() for line in fh):
            raise TooSmall(f"{what} has no rows")


def load_matrix_csv(path) -> SimilarityMatrix:
    """Read a header-free CSV of n rows of n comma-separated values.

    A file in np.savetxt's fixed-width layout is read by _read_fixed_width.
    Any other is read by np.loadtxt: the first row gives n, and the matrix
    is read with a row limit of n + 1, so numpy allocates its output once
    instead of growing it and the load holds one n x n array, not the
    pieces of a growing one. An (n + 1)-th row means the matrix is not
    square."""
    arr = _read_fixed_width(path)
    if arr is None:
        _require_rows(path, "matrix CSV")
        n = np.loadtxt(path, delimiter=",", ndmin=2, max_rows=1).shape[1]
        arr = np.loadtxt(path, delimiter=",", ndmin=2, max_rows=n + 1)
        if arr.shape[0] > n:
            raise NonSquareMatrix(
                f"expected a square matrix, got more than {n} rows of {n}")
    return _validated(arr)


# The "%.18e" token of a nonnegative float64 whose exponent has two digits,
# with its separator: 25 bytes. XOR with it maps a token's digits to their
# values and its '.', 'e', '+' and ',' to 0.
_ZERO = np.frombuffer(b"0.000000000000000000e+00,", dtype=np.uint8)
_WIDTH = _ZERO.size
# Tokens a chunk holds: about 256 KB, and a multiple of 8 tokens, so that a
# chunk is a whole number of 8-byte words.
_CHUNK = 8 * 1310
_ZERO_WORDS = np.frombuffer(_ZERO.tobytes() * 8, dtype="<u8")
# 10^k for k = -117 to 117 at index k + _Q0: _POW10_HI is 10^k rounded to
# a float64 and _POW10_LO the rest rounded, so that their sum is 10^k
# within 2^-106, relatively. The reader scales by 10^-q, q = 18 - exponent
# in [-81, 117], the writer by 10^k, k = 18 - E in [-81, 117].
_Q0 = 117
_POW10_HI, _POW10_LO = np.array(
    [(float(p), float(p - Fraction(float(p))))
     for p in (Fraction(10) ** k for k in range(-_Q0, _Q0 + 1))]).T
# Nonzero tokens converted at a time, by the reader and by the writer:
# their temporaries stay far below a chunk's 256 KB.
_PIECE = 4096
# (mask, factor, shift): digit values to 2-, 4- and 8-digit integers.
_SWAR_ROUNDS = [(0x0F0F_0F0F_0F0F_0F0F, 10 * 2**8 + 1, 8),
                (0x00FF_00FF_00FF_00FF, 100 * 2**16 + 1, 16),
                (0x0000_FFFF_0000_FFFF, 10000 * 2**32 + 1, 32)]


def _read_fixed_width(path) -> np.ndarray | None:
    """The n x n array of a CSV in the layout np.savetxt(path, A,
    delimiter=",") writes for a nonnegative A whose exponents have two
    digits, equal bit for bit to np.loadtxt's; None when the file breaks
    that layout anywhere, is compressed or cannot be opened.

    The file is 25 n^2 bytes: n lines of n 25-byte tokens. It is read in
    chunks of _CHUNK tokens into one buffer and checked there, a chunk at
    a time; _token_values converts the tokens that are not zero."""
    if Path(path).suffix in _COMPRESSED:
        return None
    try:
        fh = open(path, "rb")
    except OSError:
        return None
    with fh:
        size = os.fstat(fh.fileno()).st_size
        n = math.isqrt(size // _WIDTH)
        if n == 0 or size != _WIDTH * n * n:
            return None
        total = n * n
        buf = bytearray(_WIDTH * _CHUNK)
        flat = np.frombuffer(buf, dtype=np.uint8)
        as_words = flat.view("<u8").reshape(-1, _ZERO_WORDS.size)
        out = np.zeros(total)
        for t0 in range(0, total, _CHUNK):
            k = min(_CHUNK, total - t0)
            if fh.readinto(memoryview(buf)[: _WIDTH * k]) != _WIDTH * k:
                return None
            as_words ^= _ZERO_WORDS
            tokens = flat[: _WIDTH * k].reshape(k, _WIDTH)
            # A line ends at every n-th token: there a '\n' reads as ','.
            tokens[(n - 1 - t0) % n::n, -1] ^= ord(",") ^ ord("\n")
            # Digits, '.', 'e', '+', '-' and separators in their places:
            # every byte is at most 9, and the signs are 0 ('+') or 6 ('-').
            sign = tokens[:, 21]
            if (tokens.max() > 9 or tokens[:, [1, 20, 24]].any()
                    or not ((sign == 0) | (sign == 6)).all()):
                return None
            # Each token's bytes 0-7, 8-15 and 16-23 as words, in place.
            parts = [np.ndarray((k,), "<u8", buf, offset, (_WIDTH,))
                     for offset in (0, 8, 16)]
            nonzero = np.flatnonzero(parts[0] | parts[1] | parts[2])
            for s in range(0, nonzero.size, _PIECE):
                rows = nonzero[s: s + _PIECE]
                words = np.empty((3, rows.size), "<u8")
                for part, row in zip(parts, words):
                    np.take(part, rows, out=row)
                out[t0 + rows] = _token_values(tokens, rows, words)
    return out.reshape(n, n)


def _token_values(tokens: np.ndarray, rows: np.ndarray,
                  words: np.ndarray) -> np.ndarray:
    """The float64 values of the nonzero tokens tokens[rows], given XOR the
    zero token. Row c of `words` holds their bytes 8c to 8c + 7 as words
    and is overwritten.

    Bytes, lowest first: words[0] = d0 0 f1..f6, words[1] = f7..f14 and
    words[2] = f15..f18 0 sign e1 e2, for the token d0.f1..f18e(sign)e1e2,
    with the sign 0 for '+' and 6 for '-'."""
    w0, _, w2 = words
    exponent = (((w2 >> 48) & 0xFF) * 10 + (w2 >> 56)).astype(np.int64)
    # The table index of 10^-q, q = 18 - exponent: _Q0 - q.
    i = np.where(w2 & 0xFF00_0000_0000, -exponent, exponent) + (_Q0 - 18)
    # Runs of 8 digit values, the first the most significant, each made one
    # integer in three multiply-shift-mask rounds (Lemire, SP&E 2021):
    # 0 d0 f1..f6, f7..f14 and 0 0 0 0 f15..f18.
    w0[:] = (w0 & 0xFFFF_FFFF_FFFF_0000) | ((w0 & 0xFF) << 8)
    w2 <<= 32
    for mask, factor, shift in _SWAR_ROUNDS:
        words &= mask
        words *= factor
        words >>= shift
    m = words[0] * 10**12  # d0 f1..f18 < 10^19 < 2^64
    m += words[1] * 10**4
    m += words[2]
    # m = a + b, a = float64(m) and |b| <= 2^-53 a, an integer below 2^11:
    # m 10^-q is p + lo, a double-double, plus fl(b H).
    a = m.astype(np.float64)
    m -= a.astype(np.uint64)  # b, modulo 2^64
    p, lo = _scale(a, i)
    lo += m.view(np.int64) * _POW10_HI[i]  # _scale's H is overwritten
    z = p + lo
    done = np.abs((p - z) + lo) <= np.spacing(z) / 8  # p - z is exact
    for j in np.flatnonzero(~done):
        z[j] = float((tokens[rows[j], :-1] ^ _ZERO[:-1]).tobytes())
    return z


_FMT = "%.18e"


# A run of rows is written from 24-byte tokens when every nonzero value has
# bits in [_TWO_DIGITS[0], _TWO_DIGITS[1]): positive, with a token exponent
# from -99 to 99. The doubles just below 1e-99 and 1e100 print as
# 9.99...e-100 and 9.99...e+99. Negative values, -0.0, NaN and inf have
# larger bits, as unsigned integers, than every positive finite value.
_TWO_DIGITS = np.array([1e-99, 1e100]).view(np.uint64)
# The bytes 'e', sign, e1 and e2 of the tokens with exponents -99 to 99,
# at index exponent + 99, as bytes 4 to 7 of the reader's last word: 0, the
# sign's value (0 for '+', 6 for '-') and the two digits' values.
_EXPONENT_BYTES = np.array([6 * (e < 0) << 40 | abs(e) // 10 << 48
                            | abs(e) % 10 << 56 for e in range(-99, 100)],
                           dtype=np.uint64)
# Dekker's splitting factor: x = hi + lo with 26-bit halves.
_SPLITTER = 2.0**27 + 1
# (factor, shift, mask, divisor, lane bits): an integer below 10^8 to
# 4-digit lanes to 2-digit lanes to digits, each lane's quotient by the
# divisor, (lane * factor) >> shift, in its low half and the remainder in
# its high half (the reverse of _SWAR_ROUNDS).
_ITOA_ROUNDS = [(109951163, 40, 0x0000_0000_0000_3FFF, 10000, 32),
                (5243, 19, 0x0000_007F_0000_007F, 100, 16),
                (103, 10, 0x000F_000F_000F_000F, 10, 8)]


def save_matrix_csv(path, A: SimilarityMatrix) -> None:
    """Write the bytes of np.savetxt(path, A.entries, delimiter=","): n
    lines of n comma-separated "%.18e" tokens, compressed when the suffix
    is one np.savetxt compresses.

    Each run of rows from _row_chunks is formatted and written on its own,
    so the scratch is the positions of one run's nonzero values and its
    text of 25 bytes an entry, never an n x n temporary."""
    E = A.entries
    with _COMPRESSED.get(Path(path).suffix, open)(path, "wb") as fh:
        for r in _row_chunks(E.shape[0]):
            _write_rows(fh, E[r])


def _write_rows(fh, rows: np.ndarray) -> None:
    """Write the CSV lines of `rows`, each nonzero value formatted by
    _tokens where it stands and each zero as the zero token.

    Rows are formatted line by line, as np.savetxt does, only when their
    tokens differ in width, which only a negative value, -0.0, NaN, inf or
    a three-digit exponent brings about: bits outside _TWO_DIGITS."""
    bits = rows.view(np.uint64).ravel()
    nonzero = np.flatnonzero(bits)
    low, high = _TWO_DIGITS
    if nonzero.size and (bits.max() >= high or bits[nonzero].min() < low):
        for row in rows:
            fh.write(_percent_line(row))
        return
    lines = np.tile(_ZERO, (bits.size, 1))
    for s in range(0, nonzero.size, _PIECE):
        at = nonzero[s: s + _PIECE]
        lines[at, :-1] = _tokens(bits[at].view(np.float64))
    lines[rows.shape[1] - 1::rows.shape[1], -1] = ord("\n")
    fh.write(lines)


def _percent_line(values: np.ndarray) -> bytes:
    """One CSV line of values formatted by %, as np.savetxt does."""
    return ((",".join([_FMT] * values.size) + "\n")
            % tuple(values.tolist())).encode()


def _tokens(v: np.ndarray) -> np.ndarray:
    """The "%.18e" tokens of positive float64 values whose exponents have
    two digits, as an (m, 24) array of bytes; the module docstring gives
    the argument that they are exact."""
    E = np.floor(np.log10(v)).astype(np.int64)
    np.clip(E, -99, 99, out=E)
    N, frac, over = _scaled(v, E)
    redo = np.flatnonzero(over | (N < 10**18) | (N >= 10**19))
    while redo.size:
        E[redo] += np.where(over[redo] | (N[redo] >= 10**19), 1, -1)
        N[redo], frac[redo], over[redo] = _scaled(v[redo], E[redo])
        redo = redo[over[redo] | (N[redo] < 10**18) | (N[redo] >= 10**19)]
    tie = np.abs(frac - 0.5) <= 2.0**-30
    del frac, over
    # The digit words of the reader's layout (see _token_values):
    # 0 d0 f1..f6, f7..f14 and f15..f18 0 0 0 0, eight digits a word in
    # the reverse of its multiply-shift-mask rounds.
    words = np.empty((v.size, 3), dtype=np.uint64)
    words[:, 2] = N % 10**4 * 10**4
    N //= 10**4
    words[:, 1] = N % 10**8
    N //= 10**8
    words[:, 0] = N
    del N
    q = np.empty_like(words)
    for factor, shift, mask, divisor, bits in _ITOA_ROUNDS:
        np.multiply(words, factor, out=q)
        q >>= shift
        q &= mask
        words -= q * divisor
        words <<= bits
        words |= q
    w0 = words[:, 0]
    w0[:] = (w0 & ~np.uint64(0xFFFF)) | (w0 >> 8 & 0xFF)  # d0 0 f1..f6
    words[:, 2] |= _EXPONENT_BYTES[E + 99]
    words ^= _ZERO_WORDS[:3]
    out = words.view(np.uint8)
    if tie.any():
        out[tie] = np.frombuffer(_percent_line(v[tie]), dtype=np.uint8
                                 ).reshape(-1, _WIDTH)[:, :-1]
    return out


def _scaled(v: np.ndarray, E: np.ndarray) -> tuple[np.ndarray, ...]:
    """N = v 10^k rounded to an integer (uint64), for k = 18 - E, the
    fraction of v 10^k within 2^-36, and a mask of the values with
    v 10^k >= 2^64, whose N is meaningless. -81 <= k <= 117 and
    v 10^k < 10^20.

    v 10^k = p + lo as a double-double, from _scale. The arrays are
    updated in place, so that few are alive at once."""
    p, lo = _scale(v, (_Q0 + 18) - E)
    over = p >= 2.0**64
    p[over] = 0.0
    whole = np.floor(lo)
    frac = lo
    frac -= whole
    N = p.astype(np.uint64)
    N += whole.astype(np.int64).view(np.uint64)
    N += frac > 0.5
    return N, frac, over


def _scale(v: np.ndarray, i) -> tuple[np.ndarray, np.ndarray]:
    """v 10^k, k = i - _Q0, as the double-double p + lo of the module
    docstring: p = fl(v H_k), lo its exact rounding error plus fl(v L_k)."""
    H = _POW10_HI[i]  # a fresh array: d takes it over below
    small = v * _POW10_LO[i]
    p = v * H
    # v = a + b and H = c + d, each half of 26 bits: a c - p + a d + b c
    # + b d, summed in that order, is the exact error of p = fl(v H).
    a = v * _SPLITTER
    a -= a - v
    b = v - a
    c = H * _SPLITTER
    c -= c - H
    d = H
    d -= c
    lo = a * c
    lo -= p
    lo += a * d
    lo += b * c
    b *= d
    lo += b
    del a, b, c, d
    lo += small
    return p, lo


def _features(raw) -> np.ndarray:
    """Features as a float64 array of one row per object: DimensionMismatch
    unless 2-D, TooSmall without a row, NonFiniteEntry with a NaN or an
    infinity."""
    F = np.asarray(raw, dtype=float)
    if F.ndim != 2:
        raise DimensionMismatch(f"features are an n x d array, got {F.shape}")
    if F.shape[0] == 0:
        raise TooSmall("features need at least one row")
    if not np.isfinite(F).all():
        raise NonFiniteEntry("features must be finite (no NaN or inf)")
    return F


def load_features_csv(path) -> np.ndarray:
    """Feature-matrix CSV: one row per object (at least one), d columns,
    all finite."""
    _require_rows(path, "feature CSV")
    return _features(np.loadtxt(path, delimiter=",", ndmin=2))
