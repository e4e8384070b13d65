"""The trace's wire format: the writer, the grammar, one reader of dumped
lines, decode and line lookup.

A dumped line is ASCII: a head letter (one of LSEF), then a matrix letter
(one of ABC) or, on an F line, a number, then two numbers; one space parts
each token from the next, and an LF ends the line. A number is an optional
'-' and 1 to 18 digits. dump_trace writes such lines. parse_trace reads a
string, a file or a pipe of them alone through one reader, with numpy a
span at a time, and every other text through the grammar regex, which
names the line it rejects.

The simulator (``iomma.memsim``) needs none of this: a command that runs
schedules it builds itself never loads this module.
"""

from __future__ import annotations

import io
import itertools
import re

import numpy as np

from . import model
from .model import MATRICES, OP_EVICT, OP_FMA, OP_LOAD, OP_STORE, ProblemDims, Schedule

# the head word of a load, store or evict line, one per (opcode, matrix) pair
_HEADS = tuple(f"{letter} {matrix.value} " for letter in "LSE" for matrix in MATRICES)
# the %-format pattern of a line, by opcode; a load's, store's or evict's %c
# takes its matrix code + ord("A"), the code point of its letter
_PATTERNS = np.array([f"{letter} %c %d %d\n" for letter in "LSE"] + ["F %d %d %d\n"], dtype=object)
# every character str.splitlines() ends a line at; "\r\n" is one break
_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_BREAK = f"(?:\r\n|[{_BREAKS}])"
_LINE_BREAK = re.compile(_BREAK)
_COMMENT = f"#[^{_BREAKS}]*"
_INT = "-?[0-9]{1,18}"  # a coordinate, short enough for int64
# one line exactly as dump_trace writes it
_DUMPED = f"(?:[LSE] [ABC]|F {_INT}) {_INT} {_INT}\n"
# any line: an optional event with spaces or tabs around its fields, an
# optional comment and any line break
_ANY = (
    f"[ \t]*(?:(?:[LSE][ \t]+[ABC]|F[ \t]+{_INT})[ \t]+{_INT}[ \t]+{_INT}[ \t]*)?"
    f"(?:{_COMMENT})?{_BREAK}"
)
# the trace grammar. Runs of dumped lines repeat in a loop of their own,
# which is as fast as matching dumped lines alone. Once comments are gone, a
# text of such lines reads as numbers when each letter becomes its code.
_LINES = re.compile(f"(?:{_DUMPED})*(?:{_ANY}(?:{_DUMPED})*)*")
_SPAN = 1 << 14  # characters matched per call; re keeps state per repetition
# each letter becomes its code, and each break a space: numpy's whitespace
# lacks \x1c-\x1e, \x85, \u2028 and \u2029
_LETTER_CODES = str.maketrans("LSEFABC" + _BREAKS, "0123012" + " " * len(_BREAKS))

# bytes the dumped-line reader reads at a time; its temporaries take about
# 17 bytes per byte of a span
_READ_SPAN = 1 << 15
# the opcode of each byte that heads a line, and -1 for the rest
_OPCODES = np.full(256, -1, dtype=np.int8)
_OPCODES[list(b"LSEF")] = (OP_LOAD, OP_STORE, OP_EVICT, OP_FMA)


def dump_trace(schedule: Schedule) -> str:
    """Render a schedule in the line-per-event wire format.

    Lines are ``L A i j`` / ``S C i j`` / ``E X i j`` / ``F i j p`` with a
    trailing newline; all-ASCII, LF line endings.
    """
    return "".join(_chunk_texts(schedule))


def write_trace(schedule: Schedule, handle) -> None:
    """Write dump_trace()'s text to an open text file a chunk at a time."""
    for text in _chunk_texts(schedule):
        handle.write(text)


def _chunk_texts(schedule: Schedule):
    """The lines of each chunk of the schedule, as one string per chunk."""
    # When each value of the codes serves at least two lines, a line is
    # three words of one table over the values: a head ("L A " ... "E C ",
    # or "F i " for an fma), a coordinate and a space, and a coordinate and
    # a newline, each row numbered by value - lo. A table word used about
    # once costs more than formatting the line, so other traces fill each
    # line's pattern. The span covers opcodes and matrix codes too, which
    # the schedule's runs give without a pass over the rows, and zero, so
    # table ids cannot overflow.
    lo, hi = schedule._value_range()
    span = hi - lo + 1
    table = 2 * span <= len(schedule)
    if table:
        values = range(lo, hi + 1)
        words = np.array(
            _HEADS
            + tuple(f"F {value} " for value in values)
            + tuple(f"{value} " for value in values)
            + tuple(f"{value}\n" for value in values),
            dtype=object,
        )
        # the id of value v in a block is that block's offset + v
        offsets = np.arange(len(_HEADS), len(words), span) - lo
    for chunk in schedule.chunks():
        ops = chunk[:, 0]
        if table:
            ids = chunk[:, 1:] + offsets
            # a load, store or evict prints its head in place of its matrix code
            ids[:, 0] = np.where(ops == OP_FMA, ids[:, 0], ops * len(MATRICES) + chunk[:, 1])
            yield "".join(words[ids.ravel()].tolist())
        else:
            # a load, store or evict prints its matrix code as a letter; one
            # %-format of the chunk's patterns is about twice as fast as an
            # f-string per line
            fields = chunk[:, 1:].copy()
            fields[ops != OP_FMA, 0] += ord("A")
            yield "".join(_PATTERNS[ops].tolist()) % tuple(fields.ravel().tolist())


def parse_trace(text, dims: ProblemDims) -> Schedule:
    """Inverse of dump_trace. Raises ValueError, naming the first line that
    is not in the trace grammar.

    ``text`` may also be a file open for binary reading, taken as
    decode_trace() of its bytes from where it stands; one that cannot seek,
    such as a pipe, is held as bytes first (see ``seekable``).

    A ``#`` starts a comment that runs to the end of the line; blank and
    comment-only lines are skipped. Fields are separated by spaces or tabs,
    lines by any break str.splitlines() knows, and a final line without its
    break reads as if it had one.

    A string, file or pipe of dump_trace's lines alone is read one way: a
    first pass checks and counts them a span at a time (``file_rows``), and
    the schedule then reads its rows from the bytes on each walk, a span at
    a time into one buffer, so event i is on line i + 1. A file must stay
    open and unchanged while the schedule is in use. Any other text, and
    every rejection, goes through one regex of the grammar, a span of whole
    lines per call, then comment stripping and ``np.fromstring``.
    """
    if not isinstance(text, str):
        handle = seekable(text)
        rows = file_rows(handle)
        if rows is None:
            # CRLF and CR ends decode to LF, which may leave dumped lines
            return parse_trace(decode_trace(handle.read()), dims)
        return Schedule._wrap(rows, dims)
    rows = file_rows(io.BytesIO(text.encode("ascii"))) if text.isascii() else None
    if rows is not None:
        return Schedule._wrap(rows, dims)
    if text[-1:] not in _BREAKS:
        text += "\n"
    stop = _grammatical_end(text)
    if stop < len(text):
        raise ValueError(_rejection(text, stop))
    if "#" in text:
        text = re.sub(_COMMENT, "", text)
    if not any(letter in text for letter in "LSEF"):
        # numpy reads a text of whitespace alone as [0]
        return Schedule._wrap(np.empty((0, 4), dtype=np.int64), dims)
    codes = np.fromstring(text.translate(_LETTER_CODES), dtype=np.int64, sep=" ")
    return Schedule._wrap(codes.reshape(-1, 4), dims)


def _grammatical_end(text: str) -> int:
    """Where the run of grammatical lines at the start of the text ends,
    matched a span of whole lines at a time so the regex engine's memory
    stays small."""
    start = 0
    while start < len(text):
        cut = _LINE_BREAK.search(text, start + _SPAN)
        end = cut.end() if cut else len(text)
        stop = _LINES.match(text, start, end).end()
        if stop < end:
            return stop
        start = end
    return start


def _rejection(text: str, stop: int) -> str:
    """Why the line that starts at ``stop`` is not in the trace grammar,
    prefixed with its 1-based line number."""
    lineno = 1 + sum(1 for _ in _LINE_BREAK.finditer(text, 0, stop))
    line = text[stop:_LINE_BREAK.search(text, stop).start()]
    fields = [field for field in line.partition("#")[0].replace("\t", " ").split(" ") if field]
    kind = fields[0]
    if kind not in ("L", "S", "E", "F"):
        reason = f"unknown event letter {kind!r}"
    elif len(fields) != 4:
        reason = "expected 'F i j p'" if kind == "F" else f"expected '{kind} X row col'"
    elif kind != "F" and fields[1] not in ("A", "B", "C"):
        reason = f"unknown matrix letter {fields[1]!r}"
    else:
        # a line with the right letters and field count fails the grammar
        # only on a coordinate
        coordinates = fields[1:] if kind == "F" else fields[2:]
        bad = [token for token in coordinates if not re.fullmatch(_INT, token)]
        reason = f"coordinate {bad[0]!r} is not an integer of 1 to 18 decimal digits"
    return f"trace line {lineno}: {reason}"


def decode_trace(data: bytes) -> str:
    """The text of a trace file's bytes, read as UTF-8 with CRLF and CR
    made LF, as text-mode open() makes them, so that a dumped trace saved
    with either end is still read as one. Raises ValueError, naming the line
    of the first byte that does not decode."""
    try:
        return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        lineno = 1 + len(_LINE_BREAK.findall(data[:exc.start].decode("utf-8")))
        reason = f"byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})"
        raise ValueError(f"trace line {lineno}: {reason}") from None


def trace_line(text: str, index: int) -> int:
    """1-based line of the trace text that parse_trace() read event ``index`` from:
    an event's line starts with L, S, E or F after spaces and tabs. Raises
    IndexError if the text holds no such event. A text of dumped lines alone
    needs no search: its event i is on line i + 1."""
    if index >= 0:
        lines = enumerate(_LINE_BREAK.split(text), start=1)
        events = (n for n, line in lines if line.lstrip(" \t").startswith(("L", "S", "E", "F")))
        for lineno in itertools.islice(events, index, None):
            return lineno
    raise IndexError(f"trace has no event {index}")


def seekable(handle):
    """A binary file that can seek: ``handle`` itself, or, for one that
    cannot, such as a pipe, an io.BytesIO of the bytes it has left. This is
    the one place a pipe is read; it is then read as a file is."""
    return handle if handle.seekable() else io.BytesIO(handle.read())


def file_rows(handle) -> "_DumpedFile | None":
    """The rows of a binary file that can seek, from where it stands, if
    they are all dumped lines, checked a span at a time, and at least one;
    else None. The file is left where it stood."""
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
            lines = _read_span(data, buffer[fill:].reshape(-1))
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


def _read_span(data: np.ndarray, out: np.ndarray | None = None) -> int | None:
    """With ``out`` None, check the bytes of whole lines: how many lines
    they are if each is a dumped line, else None. Given ``out``, read bytes
    that passed that check into its first four values per line and return
    how many lines they are.

    A token is what lies between two separators, spaces and LFs, and a line
    is four tokens, an LF ending the fourth. A line's first token is one of
    LSEF; the second is one of ABC, except on an F line; every other token
    is a number: an optional '-' and 1 to 18 digits. Tokens are checked one
    by one, but bytes only by count: all digits belong to numbers, so the
    number tokens hold nothing else when the digits fill them.
    """
    seps = np.flatnonzero(data <= ord(" "))
    lines = len(seps) // 4
    if out is None:
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
    if out is None:
        named = matrices < len(MATRICES)
        if (ops < 0).any() or (digits[0::4] != 1).any() or (named == fma).any():
            return None
        if ((digits[1::4] != 1) & named).any() or ((digits - 1).view(np.uint64) >= 18).any():
            return None
        # a line's head and matrix letter each count as one digit
        if np.count_nonzero(is_digit) != digits.sum() - 2 * lines + np.count_nonzero(fma):
            return None
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
