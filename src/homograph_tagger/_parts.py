"""A corpus tagged in parts, one worker process per part: the split runs of `tag` and `eval`.

Only a run whose corpus is large enough to split imports this module
(see `cli._corpus_parts`), so a run that reads its corpus whole compiles
and runs none of it.

A part starts just after a blank line that follows a token line
(`part_starts`), where a reader is in the state it starts in. A worker
is forked for each part after the first once the lexicon and tag map
are loaded. It reads its part of the one open corpus file, with its
lines numbered as in the whole file (`line_ends`), its own line table
and its own current document, and it tallies the part's documents with
`pipeline._tally_documents`: on a rendering run (`tag`) it spools their
output lines to an anonymous temporary file. It sends back, as JSON over
a pipe, where each document starts, its tally and number of documents,
and the error that ended the part, if any. The parent tags the first
part itself, then takes each worker's result in file order (`_results`),
so a split run gives what a run that reads the corpus whole gives. A
worker never writes to stdout or stderr and always ends with os._exit;
the parent reaps every worker however the run ends, killing first those
still running.
"""

from __future__ import annotations

import json
import os
import re
import signal
import tempfile
import threading
from contextlib import contextmanager
from functools import partial
from io import BufferedReader, RawIOBase, TextIOWrapper
from typing import IO, Any, Callable, Iterable, Iterator

from .errors import CorpusError, TaggerDataError
from .lexicon import Lexicon
from .pipeline import Document, _documents, _new_id, _Namer, _tagging_rule, _tally_documents
from .tagmap import TagMapping
from .util import decoded_lines, same_file


@contextmanager
def corpus_parts(
    lexicon: Lexicon,
    mapping: TagMapping,
    corpus_path: str,
    before: os.stat_result,
    parts: int,
    least: int,
    **options,
) -> Iterator[tuple[Iterator[Document], Callable[..., Iterator[Any]]] | None]:
    """The corpus at corpus_path split among up to parts processes, or None where it is not split.

    before is the corpus's stat, a regular file, and no part is smaller
    than least bytes. Yields (documents, results): documents is the first
    part's, which this process tags with `tag_corpus`'s options, and
    results(write) yields each worker's tally and document count in order
    (see `_results`). Yields None, having started no worker, where this
    process runs other threads (a forked child holds only the calling
    thread, and any lock another held), where the kernel reaps its
    children (an ended worker's pid may then be reused), where the file
    opened is not the one stat-ed or has changed, where no document ends
    where a part should start, or where a worker cannot be started.
    However the block ends, every worker still running is killed and
    every one is reaped.
    """
    if threading.active_count() > 1 or signal.getsignal(signal.SIGCHLD) == signal.SIG_IGN:
        yield None
        return
    try:
        fd = os.open(corpus_path, os.O_RDONLY)
    except OSError:
        yield None
        return
    workers: list[_Worker] = []
    try:
        opened = os.fstat(fd)
        starts = [0]
        if same_file(before, opened):
            starts = part_starts(fd, opened.st_size, parts, least)
        part = partial(tag_part, lexicon, mapping, corpus_path, fd, **options)
        if len(starts) > 1 and _started(workers, part, starts, options["render"]):
            seen: set[str] = set()
            # the first part holds a token line, so the corpus is never empty
            yield (
                part(0, starts[1], partial(_new_id, seen, corpus_path)),
                partial(_results, workers, seen, corpus_path),
            )
        else:
            yield None
    finally:
        _end(workers)
        os.close(fd)


def _started(workers: list[_Worker], part: Callable, starts: list[int], render: bool) -> bool:
    """Whether a worker started on each part after the first; where one did not, none is left."""
    try:
        for start, end in zip(starts[1:], [*starts[2:], None]):
            _start(workers, partial(_run_part, partial(part, start, end), render))
    except OSError:
        # nothing is read or written yet, so the corpus can still be read whole
        _end(workers)
        workers.clear()
        return False
    return True


class _Worker:
    """A forked process working on one part of a corpus.

    pid is None once it is reaped; pipe is the read end of the pipe that
    brings its result, None once closed; spool is the anonymous file it
    writes its text to.
    """

    pid: int | None = None
    pipe: int | None = None
    spool: IO[bytes] | None = None


def _start(workers: list[_Worker], run: Callable[[IO[bytes], int], None]) -> None:
    """Fork a worker that calls run(spool, write end of its pipe) and ends; add it to workers.

    The worker ends with os._exit, 0 once run returns, so it never runs
    its parent's code after the fork. SIGINT is held off from before the
    worker's files are made until it is recorded, so an interrupt finds
    it in workers, to be ended; the worker keeps SIGINT held off and
    leaves an interrupt to its parent.
    """
    worker = _Worker()
    workers.append(worker)
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        worker.spool = tempfile.TemporaryFile()
        worker.pipe, sink = os.pipe()
        try:
            worker.pid = os.fork()
            if not worker.pid:
                code = 1
                try:
                    run(worker.spool, sink)
                    code = 0
                finally:
                    os._exit(code)
        finally:
            os.close(sink)
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _run_part(documents_of: Callable, render: bool, spool: IO[bytes], sink: int) -> None:
    """A worker's work: tally its part, spool its output lines if render, send the result to sink.

    The result is JSON: where each document starts (line, declared id or
    None, and the spool's offset, its tell), the part's `_tally_documents`
    result (its tally, whose keys are strings, and its number of
    documents), and the data or I/O error that ended the part, as
    (whether a data error, message), or None.
    """
    starts: list[tuple[int, str | None, int]] = []
    with open(spool.fileno(), "wb", closefd=False) as out:

        def name(declared: str | None, lineno: int) -> str:
            # the documents before this one are written by now; the parent
            # names the document, after those of the parts before this one
            starts.append((lineno, declared, out.tell()))
            return declared or ""

        result = error = None
        write = (lambda text: out.write(text.encode("utf-8"))) if render else None
        try:
            result = _tally_documents(documents_of(name), write)
        except TaggerDataError as exc:
            error = (True, str(exc))
        except OSError as exc:
            error = (False, str(exc))
    with open(sink, "wb") as pipe:
        pipe.write(json.dumps([starts, result, error]).encode("utf-8"))


def _results(
    workers: list[_Worker], seen: set[str], source: str, write: Callable[[str], Any] | None = None
) -> Iterator[Any]:
    """Each worker's tally and number of documents, in file order, as a run read whole has them.

    Before a worker's result, each of its documents is named after the
    documents before it, and its output lines are copied through write,
    which is None on a run that does not render, where none are spooled.
    The first failure in reading order is raised once write has had all
    the text before it: a duplicate document id, the worker's own error,
    or a worker that ended without a result.
    """
    for worker in workers:
        with open(worker.pipe, "rb") as pipe:
            worker.pipe = None
            message = pipe.read()
        os.waitpid(worker.pid, 0)
        worker.pid = None
        try:
            starts, result, error = json.loads(message)
        except ValueError:
            raise ChildProcessError(f"{source}: a worker process ended without a result") from None
        for lineno, declared, offset in starts:
            try:
                _new_id(seen, source, declared, lineno)
            except CorpusError:
                _copy(worker.spool, offset, write)
                raise
        _copy(worker.spool, None, write)
        if error is not None:
            data_error, text = error
            raise (TaggerDataError if data_error else OSError)(text)
        yield result


def _copy(spool: IO[bytes], end: int | None, write: Callable[[str], Any] | None) -> None:
    """Write the text of spool's first end bytes, or all of it, through write, 64 KiB at a time."""
    raw = FileRange(spool.fileno(), 0, end)
    with TextIOWrapper(BufferedReader(raw), encoding="utf-8", newline="") as text:
        while chunk := text.read(1 << 16):
            write(chunk)


def _end(workers: Iterable[_Worker]) -> None:
    """Kill the workers not reaped yet, then reap them and close what each holds."""
    for worker in workers:
        if worker.pid:
            os.kill(worker.pid, signal.SIGKILL)
    for worker in workers:
        if worker.pid:
            os.waitpid(worker.pid, 0)
            worker.pid = None
        if worker.pipe is not None:
            os.close(worker.pipe)
        if worker.spool is not None:
            worker.spool.close()


# ---------------------------------------------------------------------------
# reading one part

class FileRange(RawIOBase):
    """Bytes start..end of the open file descriptor fd, or start to its end when end is None.

    Reads with `os.pread`, which moves no file offset, so processes that
    share fd after a fork each read their own range. Closing the range
    leaves fd open.
    """

    def __init__(self, fd: int, start: int, end: int | None = None):
        self._fd, self._at, self._end = fd, start, end

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        size = len(buffer) if self._end is None else min(len(buffer), self._end - self._at)
        if size <= 0:
            return 0
        data = os.pread(self._fd, size, self._at)
        buffer[:len(data)] = data
        self._at += len(data)
        return len(data)


def line_ends(fd: int, end: int) -> int:
    r"""The line ends in the first end bytes of fd: \n, \r\n and \r count once each.

    Counts as `numbered_lines` numbers, reading 64 KiB at a time.
    """
    count = 0
    carriage_return = False
    with FileRange(fd, 0, end) as raw:
        while chunk := raw.read(1 << 16):
            count += chunk.count(b"\n") + chunk.count(b"\r") - chunk.count(b"\r\n")
            # a \r\n split between two chunks was counted once in each
            if carriage_return and chunk[0] == 0x0A:
                count -= 1
            carriage_return = chunk[-1] == 0x0D
    return count


# the line end before a blank line, at \n\n, \n\r\n, \r\n\n or \r\n\r\n
_BLANK_LINE = re.compile(rb"\n\r?\n")
# bytes of the corpus searched at a time for the end of a document
_SCAN_BYTES = 1 << 16


def part_starts(fd: int, size: int, parts: int, least: int) -> list[int]:
    """Where each part of the corpus open as fd starts: at most parts, each of least bytes or more.

    Part k starts just after the first blank line at or after size * k /
    parts that follows a token line, not a blank line, a comment or a
    document header: a reader is there in the state it starts in, with no
    document open, as a declared document still empty is not. The first
    part starts at 0; where no such line is left, there are fewer parts.
    """
    starts = [0]
    for k in range(1, parts):
        start = _document_end(fd, max(size * k // parts, starts[-1] + least))
        if start is None or size - start < least:
            break
        starts.append(start)
    return starts


def _document_end(fd: int, at: int) -> int | None:
    """Just past the first blank line after byte at that follows a token line; None if none does."""
    while window := os.pread(fd, _SCAN_BYTES, at):
        for match in _BLANK_LINE.finditer(window):
            end = match.start()
            if window[end - 1:end] == b"\r":
                end -= 1
            start = max(window.rfind(b"\n", 0, end), window.rfind(b"\r", 0, end)) + 1
            # a line with no line end before it in the window may begin before it
            if start:
                line = window[start:end].decode("utf-8", "surrogateescape")
                # as `_documents` tells a token line from the others
                if line and not line.isspace() and (line[0] != "#" or line[1:2] == "\t"):
                    return at + match.end()
        # search on from the line end before the window's last line, which a match may
        # span; where that is where the window starts, from its last byte, which may
        # be the line end before the next line
        last = len(window.rstrip(b"\r\n"))
        last = max(window.rfind(b"\n", 0, last), window.rfind(b"\r", 0, last))
        at += last if last > 0 else max(len(window) - 1, 1)
    return None


def tag_part(
    lexicon: Lexicon,
    mapping: TagMapping,
    source: str,
    fd: int,
    start: int,
    end: int | None,
    name: _Namer,
    *,
    strict: bool,
    skip_proper: bool,
    render: bool,
) -> Iterator[Document]:
    """`tag_corpus` of bytes start..end of the corpus open as fd, a part from `part_starts`.

    end None reads to the end of the file. The part's lines are numbered
    as in the whole file. Its documents are those of the whole corpus,
    each named by name(declared id or None, line) where it starts, since
    the running ids depend on the parts before it; an empty part is no
    error.
    """
    lines = decoded_lines(FileRange(fd, start, end), 1 + line_ends(fd, start))
    rule = _tagging_rule(lexicon, mapping, strict, skip_proper, render)
    yield from _documents(lines, source, rule, name)
