"""Texts and files of dump_trace's own lines, read with numpy a span at a time.

A dumped line is ASCII: a head letter (one of LSEF), then a matrix letter
(one of ABC) or, on an F line, a number, then two numbers; one space parts
each token from the next, and an LF ends the line. A number is an optional
'-' and 1 to 18 digits. memsim.parse_trace reads such lines here and every
other text through its grammar regex, which names the line it rejects.

memsim imports this module on use only: every command compiles memsim.py,
whose size sets part of each command's peak memory, and only a parse needs
the code here.
"""

from __future__ import annotations

import numpy as np

from . import model
from .model import MATRICES, OP_EVICT, OP_FMA, OP_LOAD, OP_STORE

# bytes read at a time; the span reader's temporaries take about 17 bytes
# per byte of a span
_READ_SPAN = 1 << 15
# the opcode of each byte that heads a line, and -1 for the rest
_OPCODES = np.full(256, -1, dtype=np.int8)
_OPCODES[list(b"LSEF")] = (OP_LOAD, OP_STORE, OP_EVICT, OP_FMA)


def text_codes(text: str) -> np.ndarray | None:
    """The code rows of a text of dumped lines, read into one array, or
    None for any other text."""
    if not text.endswith("\n") or not text.isascii():
        return None
    codes = np.empty((text.count("\n"), 4), dtype=np.int64)
    row = 0
    for data in _line_spans(lambda at, count: text[at:at + count].encode("ascii")):
        lines = data is not None and _read_span(data, codes[row:].reshape(-1))
        if not lines:
            return None
        row += lines
    return codes


def file_rows(handle) -> "_DumpedFile | None":
    """The rows of a binary file from where it stands, if they are all
    dumped lines, checked a span at a time, and at least one; else None,
    with the file back where it stood. A file that cannot seek, such as a
    pipe, is None unread."""
    if not handle.seekable():
        return None
    offset = handle.tell()
    length = 0
    for data in _line_spans(lambda at, count: handle.read(count)):
        lines = data is not None and _read_span(data)
        if not lines:
            length = 0
            break
        length += lines
    handle.seek(offset)
    return _DumpedFile(handle, offset, length) if length else None


class _DumpedFile:
    """The code rows of a file of ``length`` dumped lines from ``offset``
    on, which file_rows() has checked: the codes of a literal run. Each
    walk reads the file anew, ``model._CHUNK`` rows at a time into one
    buffer, and only reads the numbers; the file must stay unchanged."""

    def __init__(self, handle, offset: int, length: int):
        self.handle, self.offset, self.length = handle, offset, length

    def __len__(self) -> int:
        return self.length

    def chunks(self):
        def read(at, count):
            # each read seeks first, so that walks of one file may interleave
            self.handle.seek(self.offset + at)
            return self.handle.read(count)

        size = model._CHUNK
        # a span holds at most a line per 8 bytes, the length of "L A 0 0\n"
        buffer = np.empty((size + _READ_SPAN // 8, 4), dtype=np.int64)
        fill = rows = 0
        for data in _line_spans(read):
            if data is None:
                break
            lines = _read_span(data, buffer[fill:].reshape(-1), checked=True)
            rows += lines
            fill += lines
            full = fill - fill % size
            if full:
                for start in range(0, full, size):
                    yield model._frozen(buffer[start:start + size])
                buffer[:fill - full] = buffer[full:fill]
                fill -= full
        if rows != self.length:
            raise ValueError("the trace file changed while it was read")
        if fill:
            yield model._frozen(buffer[:fill])


def _line_spans(read):
    """The bytes that ``read(at, count)`` gives, up to count bytes from byte
    at, as uint8 arrays of whole lines, at most ``_READ_SPAN`` bytes each;
    then None for a span that holds no LF, or for bytes after the last."""
    span = _READ_SPAN
    at = 0
    tail = b""
    while block := read(at, span - len(tail)):
        at += len(block)
        data = tail + block
        end = data.rfind(b"\n") + 1
        if not end:
            tail = data
            break
        yield np.frombuffer(data, np.uint8, end)
        tail = data[end:]
    if tail:
        yield None


def _read_span(data: np.ndarray, out: np.ndarray | None = None, checked: bool = False) -> int | None:
    """Read the bytes of whole lines, if each is a dumped line, into the
    first four values of ``out`` per line and return how many lines they
    are; else None. With ``out`` None, only check and count the lines; with
    ``checked``, take bytes that passed that check and only read them.

    A token is what lies between two separators, spaces and LFs, and a line
    is four tokens, an LF ending the fourth. A line's first token is one of
    LSEF; the second is one of ABC, except on an F line; every other token
    is a number: an optional '-' and 1 to 18 digits. Tokens are checked one
    by one, but bytes only by count: all digits belong to numbers, so the
    number tokens hold nothing else when the digits fill them.
    """
    seps = np.flatnonzero(data <= ord(" "))
    lines = len(seps) // 4
    if not checked:
        if len(seps) % 4:
            return None
        sep_bytes = data.take(seps)
        if (sep_bytes[3::4] != ord("\n")).any() or np.count_nonzero(sep_bytes == ord(" ")) != 3 * lines:
            return None
    starts = np.empty_like(seps)
    starts[0] = 0
    np.add(seps[:-1], 1, out=starts[1:])
    digits = seps - starts
    first = data.take(starts)
    del starts
    negative = first == ord("-")
    digits -= negative
    ops = _OPCODES.take(first[0::4])
    fma = ops == OP_FMA
    matrices = first[1::4] - ord("A")
    values = data - ord("0")
    is_digit = values < 10
    if not checked:
        named = matrices < len(MATRICES)
        if (ops < 0).any() or (digits[0::4] != 1).any() or (named == fma).any():
            return None
        if ((digits[1::4] != 1) & named).any() or ((digits - 1).view(np.uint64) >= 18).any():
            return None
        # a line's head and matrix letter each count as one digit
        if np.count_nonzero(is_digit) != digits.sum() - 2 * lines + np.count_nonzero(fma):
            return None
        if out is None:
            return lines
    values *= is_digit
    out = out[:4 * lines]
    # each token's value, digit by digit from its last: one place past a
    # token's first digit lies a separator or '-', which adds 0, but further
    # on may lie the digits of the token before, which are masked
    index = seps
    index -= 1
    out[:] = values.take(index)
    step = np.empty_like(out)
    for place in range(1, int(digits.max())):
        index -= 1
        np.multiply(values.take(index), 10 ** place, out=step, dtype=np.int64)
        if place > 1:
            step *= digits > place
        out += step
    np.negative(out, out=out, where=negative)
    out[0::4] = ops
    out[1::4] = np.where(fma, out[1::4], matrices)
    return lines
