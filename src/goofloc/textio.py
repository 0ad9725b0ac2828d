"""The one codec of every persisted artifact.

An artifact starts with UTF-8 text: a ``<MAGIC> <version>`` line, then
single-token ``key=value`` header lines. A text artifact that goofloc
reads is its header alone: a config or a report. A numeric artifact (a
snapshot dataset, a fingerprint store, a forest, a set of prediction
matrices) continues after an ``end-header`` line with fixed little-endian
arrays whose shapes its header gives, written by :func:`write_arrays` and
read by :func:`read_header` and :func:`read_arrays`. Only the fusion
result, which no stage reads, follows its header with record lines.
Floats in text are written with ``repr`` so that round-trips are
lossless and byte-identical across runs. A malformed header raises
:class:`FormatError` naming the line at fault, a malformed payload one
carrying its byte offset.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import FormatError

_REQUIRED = object()
_END_HEADER = b"\nend-header\n"


def fmt_value(v) -> str:
    if v is None:
        return "none"
    if isinstance(v, float):
        return repr(float(v))
    if isinstance(v, (list, tuple)):
        return ",".join(fmt_value(x) for x in v)
    return str(v)


def comma_list(to, count: int | None = None):
    """Converter of ``a,b,c`` into a list of ``to``-converted items,
    exactly ``count`` of them if ``count`` is given."""

    def check(text: str) -> list:
        items = [to(item) for item in text.split(",")]
        if count is not None and len(items) != count:
            raise ValueError(f"need {count} items, got {len(items)}")
        return items

    return check


def one_of(*choices):
    def check(text: str) -> str:
        if text not in choices:
            raise ValueError(f"not one of {', '.join(choices)}")
        return text

    return check


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError("must be >= 1")
    return value


class Fields:
    """The ``key=value`` pairs of a header, each with its line."""

    def __init__(self, line: int):
        self.line = line
        self.values: dict[str, tuple[str, int]] = {}

    def get(self, key: str, to=str, default=_REQUIRED):
        """Field ``key`` converted by ``to``; ``default`` (as is) if absent.
        A failed conversion is a FormatError naming the key and its line."""
        if key not in self.values:
            if default is _REQUIRED:
                raise FormatError(f"line {self.line}: missing field {key!r}")
            return default
        text, line = self.values[key]
        try:
            return to(text)
        except (ValueError, OverflowError) as exc:
            raise FormatError(f"line {line}: bad {key} {text!r} ({exc})") from None


def write_document(magic: str, version: int, header: dict, records=()) -> str:
    lines = [f"{magic} {version}", *(f"{key}={fmt_value(v)}" for key, v in header.items())]
    return "\n".join([*lines, *records]) + "\n"


def read_document(raw, magic: str, version: int) -> Fields:
    """Decode ``raw`` (bytes or str), skip blank lines, check the magic
    line and read every other line as one ``key=value`` header field."""
    if isinstance(raw, bytes):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{magic} document is not valid UTF-8", exc.start) from None
    lines = [(n, text.strip()) for n, text in enumerate(raw.splitlines(), 1) if text.strip()]
    if not lines:
        raise FormatError(f"empty {magic} document", 0)
    doc = Fields(lines[0][0])
    if lines[0][1].split() != [magic, str(version)]:
        raise FormatError(f"line {doc.line}: expected '{magic} {version}', got {lines[0][1]!r}")
    for n, text in lines[1:]:
        key, sep, value = text.partition("=")
        if not sep or not key or len(text.split()) != 1:
            raise FormatError(f"line {n}: expected key=value, got {text!r}")
        if key in doc.values:
            raise FormatError(f"line {n}: duplicate field {key!r}")
        doc.values[key] = (value, n)
    return doc


def write_arrays(magic: str, version: int, header: dict, arrays) -> bytes:
    """A numeric artifact: the header, an ``end-header`` line, then the
    bytes of each ``(dtype, array)`` of ``arrays`` in C order."""
    text = write_document(magic, version, header, ["end-header"]).encode("utf-8")
    return b"".join([text, *(np.asarray(array, dtype).tobytes() for dtype, array in arrays)])


def read_header(raw: bytes, magic: str, version: int) -> tuple[Fields, int]:
    """Header of a numeric artifact and the offset of its payload."""
    end = raw.find(_END_HEADER)
    if end < 0:
        read_document(raw.split(b"\n", 1)[0], magic, version)  # a wrong magic is named first
        raise FormatError("truncated header (no end-header line)", len(raw))
    return read_document(raw[:end], magic, version), end + len(_END_HEADER)


def read_arrays(raw: bytes, offset: int, layout) -> list:
    """The read-only arrays of ``layout``, ``(dtype, shape)`` pairs laid
    end to end from ``offset``, which must fill ``raw`` exactly."""
    sizes = [np.dtype(dtype).itemsize * math.prod(shape) for dtype, shape in layout]
    expected = offset + sum(sizes)
    if len(raw) < expected:
        raise FormatError(
            f"truncated payload: expected {expected} bytes, file has {len(raw)}", len(raw)
        )
    if len(raw) > expected:
        raise FormatError("trailing bytes after the payload", expected)
    arrays = []
    for (dtype, shape), size in zip(layout, sizes):
        arrays.append(np.frombuffer(raw, dtype, math.prod(shape), offset).reshape(shape))
        offset += size
    return arrays


def read_artifact(path) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror or exc}") from None
