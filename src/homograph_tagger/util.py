"""Shared percentage arithmetic and rendering helpers, and the one line reader.

All percentages in reports are rounded to one decimal place with
half-up rounding, which is what decimal.ROUND_HALF_UP gives and what
round() does not.
"""

from contextlib import contextmanager
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Iterator

from .errors import TaggerDataError

_TENTH = Decimal("0.1")


def pct_of(numerator: int, denominator: int) -> float:
    """Percentage numerator/denominator, one decimal place, half-up."""
    value = Decimal(100 * numerator) / Decimal(denominator)
    return float(value.quantize(_TENTH, rounding=ROUND_HALF_UP))


def fmt_pct(fraction: float | None) -> str:
    """Render a 0..1 fraction as a percentage string, 'n/a' when undefined."""
    if fraction is None:
        return "n/a"
    value = Decimal(str(fraction)) * 100
    return f"{value.quantize(_TENTH, rounding=ROUND_HALF_UP)}%"


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
