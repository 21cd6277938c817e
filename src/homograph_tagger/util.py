"""Shared helpers: the one percentage rounding, the collector pause, the line reader,
the package's directory, the one unchanged-file test and the all-or-nothing writer.

All percentages in reports are rounded once, by `pct_of`, to one
decimal place with half-up rounding, which round() does not give. The
package's sources and data files are read by path under `PACKAGE`.
"""

import gc
import os
from contextlib import contextmanager, suppress
from io import BufferedReader, RawIOBase, TextIOWrapper
from operator import attrgetter
from pathlib import Path
from typing import Iterator, TextIO

from .errors import TaggerDataError

# the directory of the package's sources and its data/ files
PACKAGE = Path(__file__).parent
# the stat fields that tell one file, unchanged, from another
_FILE_STATE = attrgetter("st_dev", "st_ino", "st_size", "st_mtime_ns", "st_ctime_ns")


def pct_of(numerator: int, denominator: int) -> float | None:
    """Percentage numerator/denominator, one decimal place, half-up.

    None when the denominator is 0: the percentage is undefined.
    """
    if not denominator:
        return None
    # 1000 * numerator / denominator tenths, rounded half-up in integers
    return (2000 * numerator + denominator) // (2 * denominator) / 10


def fmt_pct(pct: float | None) -> str:
    """Render a percentage from `pct_of` as text, 'n/a' when undefined."""
    return "n/a" if pct is None else f"{pct}%"


def same_file(before: os.stat_result, after: os.stat_result) -> bool:
    """Whether two stats of a path are of one file with no write to it between them.

    Every write changes a file's size or its modification and
    status-change times, and no caller can set the latter back.
    """
    return _FILE_STATE(before) == _FILE_STATE(after)


@contextmanager
def replacing(path: str, shown: str) -> Iterator[TextIO]:
    """A UTF-8 text stream with LF line ends whose text replaces the file at path, all or nothing.

    It writes a temporary file beside path, moved onto path (a symbolic link
    there included) when the block ends and removed when it raises anything.
    A temporary file that cannot be made raises an OSError naming shown.
    """
    directory, name = os.path.split(path)
    temporary = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
    try:
        # O_EXCL never clobbers another file; mode 0o666 lets the umask apply as for open()
        descriptor = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, shown) from None
    try:
        with open(descriptor, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(temporary, path)
    except BaseException:
        # the temporary file may be gone already
        with suppress(OSError):
            os.unlink(temporary)
        raise


@contextmanager
def collector_paused() -> Iterator[None]:
    """Keep the cyclic garbage collector off for the block, then put it back as it was.

    Work that makes no reference cycles, such as loading a lexicon or
    running a command, loses nothing by this: reference counting frees
    all that it drops, and a collection would only rescan what it holds.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@contextmanager
def numbered_lines(path: str | Path) -> Iterator[Iterator[tuple[int, str]]]:
    r"""The lines of a UTF-8 text file as (line number, line) pairs, from 1.

    A leading byte order mark is skipped. A line ends at \n, \r\n or \r
    only, not at U+2028, U+0085 or a form feed. Bytes that are not UTF-8
    are escaped, not raised: a reader passes each line it parses to
    `check_utf8` before any other check of it, so that the first bad
    line in reading order is the one reported, whatever is wrong with it.
    """
    with open(path, "rb", buffering=0) as raw, decoded_lines(raw) as lines:
        yield lines


@contextmanager
def decoded_lines(raw: RawIOBase, first: int = 1) -> Iterator[Iterator[tuple[int, str]]]:
    """`numbered_lines` of raw, an unbuffered binary stream, numbered from first; closes raw.

    Only line 1 starts a file, so only there is a byte order mark skipped:
    a U+FEFF at the start of a later line is data.
    """
    encoding = "utf-8-sig" if first == 1 else "utf-8"
    with TextIOWrapper(BufferedReader(raw), encoding=encoding, errors="surrogateescape") as fh:
        yield enumerate(fh, start=first)


def check_utf8(
    line: str, source: str, lineno: int, error_type: type[TaggerDataError]
) -> None:
    """Raise error_type as `SOURCE:LINE: not valid UTF-8` if line held bytes that are not UTF-8.

    `numbered_lines` escapes each such byte as a lone surrogate, which
    no valid UTF-8 decodes to, so such a line alone fails to encode
    again. An ASCII line is passed without encoding it.
    """
    if not line.isascii():
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            raise error_type(f"{source}:{lineno}: not valid UTF-8") from None
