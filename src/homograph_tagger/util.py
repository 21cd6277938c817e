"""Shared helpers: the one percentage rounding, the collector pause and the line reader.

All percentages in reports are rounded once, by `pct_of`, to one
decimal place with half-up rounding, which is what
decimal.ROUND_HALF_UP gives and what round() does not.
"""

import gc
from contextlib import contextmanager
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Iterator

from .errors import TaggerDataError

_TENTH = Decimal("0.1")


def pct_of(numerator: int, denominator: int) -> float | None:
    """Percentage numerator/denominator, one decimal place, half-up.

    None when the denominator is 0: the percentage is undefined.
    """
    if not denominator:
        return None
    value = Decimal(100 * numerator) / Decimal(denominator)
    return float(value.quantize(_TENTH, rounding=ROUND_HALF_UP))


def fmt_pct(pct: float | None) -> str:
    """Render a percentage from `pct_of` as text, 'n/a' when undefined."""
    return "n/a" if pct is None else f"{pct}%"


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
def numbered_lines(
    path: str | Path, error_type: type[TaggerDataError]
) -> Iterator[Iterator[tuple[int, str]]]:
    r"""The lines of a UTF-8 text file as (line number, line) pairs, from 1.

    A leading byte order mark is skipped. A line ends at \n, \r\n or \r
    only, not at U+2028, U+0085 or a form feed. Bytes that are not UTF-8
    raise error_type as `PATH:LINE: not valid UTF-8` when reached.
    """
    with open(path, encoding="utf-8-sig") as fh:
        try:
            yield enumerate(fh, start=1)
        except UnicodeDecodeError:
            raise undecodable(path, error_type) from None


def undecodable(path: str | Path, error_type: type[TaggerDataError]) -> TaggerDataError:
    """The data error for a file that is not valid UTF-8, naming its first bad line.

    Called only after decoding has failed: the file is read again with
    undecodable bytes escaped, and lines are numbered as `numbered_lines`
    numbers them.
    """
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                return error_type(f"{path}:{lineno}: not valid UTF-8")
    return error_type(f"{path}: not valid UTF-8")
