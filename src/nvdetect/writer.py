"""The one CSV writer: columns of floats, ints and text become rows of bytes, byte-equal to
``%.17g`` and ``%d``. The float kernel is printf from tables (Adams, "Ryu revisited", OOPSLA
2019) with Dekker's exact split (1971) in place of 128-bit tables; a chunk that holds few floats,
such as the rows of an optimal-time search or the cycle times of a turn-on transcript, has them
made by ``%`` itself. An int or bool column in [0, 9999] takes its cells from one table of
right-aligned ``%d`` words, other ints come from 4-digit groups. Every chunk is laid out in fixed
slots: each cell NUL-padded to its column's width, then a comma, and the NULs dropped once per
chunk. This rests on one contract: no cell holds a NUL byte. Numbers never do, nor does any text
column the package writes (B/D clicks and majorities, x/y orientations)."""
from __future__ import annotations

import itertools
import math
from pathlib import Path

import numpy as np

from .errors import NumericalInvariantError

#: Rows formatted and written at once: bounds the text held on large grids.
_BLOCK_ROWS = 4096
#: Floats in a chunk (of its columns before they broadcast) up to which ``%`` formats them, one at
#: a time; more go through the float kernel. The kernels cost about 120 numpy operations per chunk
#: of up to _FLOAT_BATCH floats: right after an optimal-time search (caches cold), % took 81-103 us
#: for 5 values and 283-345 us for 255, the kernels 252-299 and 302-378 us; they cross near 290
#: values (2-vCPU Xeon).
_SMALL_CELLS = 256
#: Floats per kernel call, so that its arrays stay in a core's cache.
_FLOAT_BATCH = 2048
#: A scaled value whose fraction lies closer than this to 1/2 goes to ``%``: the product in
#: :func:`_float_cells` is good to 5.3e-7 there.
_TIE_MARGIN = 2e-6

#: "0000" .. "9999" as uint32 words, and each group's count of trailing zeros (4 for 0).
_GROUPS = np.indices((10,) * 4, np.uint8).reshape(4, -1)
_DIGITS = np.ascontiguousarray((_GROUPS + ord("0")).T).view(np.uint32).ravel()
_ZEROS = np.cumprod(_GROUPS[::-1] == 0, axis=0).sum(0).astype(np.int8)
#: Row i is ``b"%d" % i`` for i = 0 .. 9999, right-aligned in 4 bytes after NULs.
_SMALL_INTS = _DIGITS.view(np.uint8).reshape(-1, 4) * (np.arange(10000)[:, None] >= [1000, 100, 10, 0])
#: The tables below run over k = floor(log10 |x|) = -100 .. 99, indexed by k + 100: |x| in
#: [1e-99, 1e99) has k in [-99, 98], or one off where log10 rounds.
_K = np.arange(-100, 100)
#: The words of a cell's 28-byte source row: the digit groups, the %g exponent per k (its
#: sign and two digits, NUL-padded: "+05", so byte 27 is NUL for k > -100), and last "-0.e".
_WORDS = np.concatenate([_DIGITS, np.frombuffer(b"".join(
    (("-" if k < 0 else "+") + str(abs(k)).zfill(2)).encode().ljust(4, b"\0") for k in _K.tolist()
) + b"-0.e", np.uint32)])
#: 10, 100, .., 10^19: the count of these at most |i| is the digit count of i less one.
_TENS = 10 ** np.arange(1, 20, dtype=np.uint64)


def _power_table() -> np.ndarray:
    """Per k, A = the leading 26 bits of 10^(16 - k), so a 26-bit number times A is exact, and
    B = the double nearest the rest (A + B to 2^-79), from v = floor(10^s / 2^e) of 120 bits."""
    rows = []
    for s in (16 - _K).tolist():
        e = math.ceil(s * math.log2(10.0)) - 120
        v = 10**s >> e if e >= 0 else (10**max(s, 0) << -e) // 10**max(-s, 0)
        head = v >> (v.bit_length() - 26) << (v.bit_length() - 26)
        rows.append((math.ldexp(head, e), math.ldexp(v - head, e)))
    return np.array(rows).T.copy()


def _templates():
    """The %g templates: uint8 byte offsets into a cell's source row, one per sign, layout
    (fixed for k = -4 .. 16, e-style per digit count) and digit count, cut at that count's
    length; past it they point at byte 27, NUL in every source row whose cell the kernel keeps.
    And per sign, k and digit count, the index of its template."""
    digits = list(range(7, 24))  # digit i of the 17 at byte 7 + i
    rows = [digits[:x + 1] + [2] + digits[x + 1:] if x >= 0 else [1, 2] + [1] * (-x - 1) + digits
            for x in range(-4, 17)]
    rows += [digits[:1] + ([2] + digits[1:nd] if nd > 1 else []) + [3, 24, 25, 26] for nd in range(1, 18)]
    lengths = [1 - x + nd if x < 0 else nd + 1 if nd > x + 1 else x + 1
               for x in range(-4, 17) for nd in range(18)]
    lengths = np.array(lengths + [len(row) for row in rows[21:] for _ in range(18)]).reshape(-1, 18)
    fixed = ((_K >= -4) & (_K <= 16))[:, None]
    layouts = np.where(fixed, _K[:, None] + 4, 20 + np.arange(18)) * 18 + np.arange(18)
    offsets = np.array([(sign + row + [0] * 24)[:24] for sign in ([], [0]) for row in rows], np.uint8)
    cut = np.arange(24) < np.concatenate([lengths, lengths + 1])[..., None]
    return (np.where(cut, offsets[:, None], 27).reshape(-1, 24),
            np.concatenate([layouts, layouts + lengths.size]).ravel().astype(np.int16))


_POWERS = _power_table()
_TEMPLATES, _LAYOUTS = _templates()


def _float_cells(x: np.ndarray):
    """``b"%.17g" % v`` for each v of the float64 array ``x``: (n, 24) uint8 cells, left-aligned
    and NUL-padded, and a mask of those made without ``%`` (a cell made by ``%`` is zeroed first).

    With k = floor(log10 |v|), |v| 10^(16 - k) is formed to 5.3e-7 and rounded half-even to a
    17-digit N; its digits come from 4-digit groups, and byte offsets per layout put them where
    %g does. ``%`` makes an element that is nonfinite, subnormal or past the power table, one
    whose N is not inside (10^16, 10^17) (log10 one off, or a power of ten), and one whose
    fraction lies within _TIE_MARGIN of a tie."""
    n = x.size
    a = np.abs(x)
    ok = (a >= 1e-99) & (a < 1e99)
    sub = np.where(ok, a, 1.0)  # 1.0 stands in for the rest, with k = 0
    i = (np.log10(sub) + 100.0).astype(np.intp)  # k + 100
    big, rest = _POWERS.take(i, axis=1)
    c = sub * 134217729.0  # Veltkamp split: head has 26 bits, and so has sub - head
    head = c - (c - sub)
    tail = (sub - head) * big + sub * rest  # |v| 10^(16-k) - head * big, to 5.3e-7
    head *= big  # exact, an integer where N stays on this path
    whole = np.floor(tail)
    tail -= whole
    digits = (head.astype(np.int64) + whole.astype(np.int64) + (tail > 0.5)) * ok  # 0 for +-0
    fast = ((digits - (10**16 + 1)).view(np.uint64) < 9 * 10**16 - 1) & (np.abs(tail - 0.5) > _TIE_MARGIN)
    fast |= a == 0
    # the words of each source row: "-0.e", the first digit and four groups of four (the 17
    # digits from byte 7 on), and the exponent
    words = np.empty((7, n), np.intp)
    words[0] = _WORDS.size - 1
    top, low = np.divmod(digits, 10**8)
    np.divmod(top, 10**8, out=(words[1], top))
    np.divmod(top, 10**4, out=(words[2], words[3]))
    np.divmod(low, 10**4, out=(words[4], words[5]))
    np.add(i, _DIGITS.size, out=words[6])
    z1, z2, z3, z4 = _ZEROS.take(words[2:6])
    nd = 17 - (z4 + (z4 == 4) * (z3 + (z3 == 4) * (z2 + (z2 == 4) * z1)))  # significant digits
    key = i * 18 + nd + np.signbit(x) * (_LAYOUTS.size // 2)
    # each cell's template plus its source row's start: the sum is intp, out of the uint8 range
    offsets = _TEMPLATES.take(_LAYOUTS.take(key), axis=0) + np.arange(0, 28 * n, 28)[:, None]
    cells = _WORDS.take(words.T).view(np.uint8).ravel().take(offsets, mode="clip")
    for j in () if fast.all() else (~fast).nonzero()[0].tolist():
        cells[j] = np.frombuffer((b"%.17g" % x[j]).ljust(24, b"\0"), np.uint8)
    return cells, fast


def _cells(column: np.ndarray):
    """The NUL-padded cells of a non-float column: ints as ``%d``, right-aligned, their leading
    zeros NUL (those past int64 one at a time, left-aligned), bytes as they are. An int or bool
    column whose values lie in [0, 9999] is one ``take`` of ``_SMALL_INTS``, cut to its widest
    value; other ints go through the digit-group kernel."""
    if column.dtype.kind in "biu":
        top = int(column.max()) if column.size else 0
        if top <= 9999 and (not column.size or column.min() >= 0):
            return _SMALL_INTS.take(column.ravel(), axis=0)[:, 4 - len(b"%d" % top):]
    if column.dtype.kind in "biu" and np.can_cast(column.dtype, np.int64):
        v = column.astype(np.int64).ravel()
        u = np.abs(v).view(np.uint64)  # 2^63 for the most negative int64 too
        length = np.searchsorted(_TENS, u, side="right") + 1 + (v < 0)
        w = 4 * -(-int(length.max()) // 4)
        words = np.empty((v.size, w // 4), np.uint32)  # right-aligned digits after "0"s
        for j in range(w // 4):
            words[:, w // 4 - 1 - j] = _DIGITS[u // 10 ** (4 * j) % 10000]
        cells = words.view(np.uint8)
        cells[np.arange(w) < w - length[:, None]] = 0  # the leading "0"s become NULs
        cells[v < 0, w - length[v < 0]] = ord("-")
        return cells
    if column.dtype.kind != "S":
        column = np.array([b"%d" % i for i in column.ravel().tolist()])
    return column.view(np.uint8).reshape(column.size, column.itemsize)


def _chunk_bytes(columns, shape, verify: bool):
    """The text of a nonempty chunk of 2-d columns that broadcast to ``shape`` (rows in C order),
    and whether a float cell is still to be checked against ``%`` (``verify``).

    The chunk goes into one zero-filled ``(*shape, width)`` array: each column's NUL-padded cells
    are broadcast into a fixed slot (for floats, as wide as the chunk's widest), then a comma; the
    last comma becomes LF, and the nonzero bytes are the text. Its floats go through the float
    kernel, unless they number at most ``_SMALL_CELLS`` before broadcasting: then ``%`` makes
    them, and the check is left to a later chunk."""
    floats = [c.ravel() for c in columns if c.dtype.kind == "f"]
    x = np.concatenate(floats) if floats else np.empty(0)
    if x.size <= _SMALL_CELLS:  # few floats, such as a transcript's cycle times: % is cheaper
        cells = np.array([b"%.17g" % v for v in x.tolist()], "S")
        cells = cells.view(np.uint8).reshape(x.size, cells.itemsize)
    else:
        parts = [_float_cells(x[lo:lo + _FLOAT_BATCH]) for lo in range(0, x.size, _FLOAT_BATCH)]
        cells, fast = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
        i = int(np.argmax(fast & (x != 0))) if verify else 0  # a nonzero cell made without %
        if verify and fast[i] and x[i]:
            cell = cells[i].tobytes().rstrip(b"\0")
            if cell != b"%.17g" % x[i]:
                raise NumericalInvariantError(f"the CSV float formatter wrote {cell!r} for {x[i]!r}")
            verify = False
        cells = cells[:, :np.bitwise_or.reduce(cells.view(np.uint64)).view(np.uint8).nonzero()[0][-1] + 1]
    cuts = list(itertools.accumulate(f.size for f in floats))
    formatted = (cells[lo:hi] for lo, hi in zip([0] + cuts, cuts))
    slots = [next(formatted) if c.dtype.kind == "f" else _cells(c) for c in columns]
    text = np.zeros((*shape, sum(cells.shape[1] + 1 for cells in slots)), np.uint8)
    end = 0
    for column, cells in zip(columns, slots):  # each column's slot, broadcast to the chunk's rows
        text[..., end:end + cells.shape[1]] = cells.reshape(*column.shape, -1)
        end += cells.shape[1] + 1
        text[..., end - 1] = ord(",")
    text[..., -1] = ord("\n")
    return text[text != 0], verify


def _pieces(blocks):
    """Each block's columns as 2-d arrays and its shape, in pieces of at most ``_BLOCK_ROWS`` rows;
    a block of no rows (either axis 0) gives none."""
    for block in blocks:
        columns = [np.asarray(c.encode() if isinstance(c, str) else c) for c in block]
        columns = [c if c.ndim == 2 else c.reshape(1, -1) for c in columns]
        a, b = np.broadcast_shapes(*(c.shape for c in columns))
        if not a * b:
            continue
        if a * b <= _BLOCK_ROWS:
            yield columns, (a, b)
            continue
        step = max(1, _BLOCK_ROWS // b)
        for lo, blo in itertools.product(range(0, a, step), range(0, b, _BLOCK_ROWS)):
            cut = slice(lo, lo + step), slice(blo, blo + _BLOCK_ROWS)  # not along a broadcast axis
            yield ([c[tuple(s if d > 1 else slice(None) for s, d in zip(cut, c.shape))] for c in columns],
                   (min(step, a - lo), min(_BLOCK_ROWS, b - blo)))


def _write_csv(path: Path, header: str, blocks) -> Path:
    """Write the ``header`` line, then the rows of ``blocks``.

    A block is columns that broadcast to one shape of at most two axes, its elements in C order
    the rows: float, int or fixed-width bytes (``S``) arrays, or float, int or text scalars; a
    value repeated along a broadcast axis is formatted once. Each block is cut into chunks of at
    most ``_BLOCK_ROWS`` rows (a block of no rows writes nothing), each laid out in slots and
    written as it is; blocks are never joined, so a producer that wants large chunks yields large
    blocks. Cells are byte-equal to ``%.17g`` (``format(float(x), ".17g")``) and ``%d``, lines end
    in LF, as ``csv.writer`` would write them (no text cell needs quoting, and none may hold a NUL
    byte: the slots drop them). Once per file a float cell made by the float kernel is also made
    by ``%``; a mismatch is a :class:`NumericalInvariantError`. The directory is created on the
    first write; if a block raises, the partial file and each directory created here that is then
    empty are removed before the error propagates."""
    created = list(itertools.takewhile(lambda d: not d.exists(), path.parents))
    if created:
        path.parent.mkdir(parents=True, exist_ok=True)
    try:
        with open(path, "wb") as fh:
            fh.write(header.encode() + b"\n")
            verify = True
            for columns, shape in _pieces(blocks):
                text, verify = _chunk_bytes(columns, shape, verify)
                fh.write(text)
    except BaseException:
        path.unlink(missing_ok=True)
        for directory in created:  # innermost first
            if any(directory.iterdir()):
                break
            directory.rmdir()
        raise
    return path
