"""The lexicon cache: a hit rebuilds what the full load built, and no cache
failure changes a result, an error line or an exit code."""

import json
import os
import shutil
import subprocess
import sys
import threading

import pytest
from click.testing import CliRunner

from homograph_tagger import LexiconError, load_lexicon
from homograph_tagger.cli import main
from homograph_tagger.lexicon import _code_stamp, _entry_reader, _read_lexicon
from support import cache_files, identity_partition, refuse_full_load, tag_tables

SUMMARY = "tagged 209 tokens in 5 documents: 107 matched, 3 fallback, 7 unknown, 92 closed-class\n"


@pytest.fixture()
def lexicon_path(fixtures_dir, tmp_path):
    """A private copy of the fixture lexicon, which a test may change."""
    path = tmp_path / "lex.jsonl"
    shutil.copyfile(fixtures_dir / "pipeline_lexicon.jsonl", path)
    return path


@pytest.fixture()
def full_loads(monkeypatch):
    """A list that gains one item per full load, which makes one entry reader."""
    made = []

    def counted(*args):
        made.append(args)
        return _entry_reader(*args)

    monkeypatch.setattr("homograph_tagger.lexicon._entry_reader", counted)
    return made


def one_word_lexicon(path, word="run"):
    """Write a lexicon of one word type, one homograph tagged n, to path."""
    path.write_text(
        f'{{"word":"{word}","homographs":[{{"pos":["n"],"senses":[{{"def":"d"}}]}}]}}\n', "utf-8"
    )
    return path


def age(directory):
    """Move each cache file's time 10 s back, so that the next one written is newest even on a coarse clock."""
    for name in cache_files(directory):
        stamp = (directory / name).stat().st_mtime_ns - 10**10
        os.utime(directory / name, ns=(stamp, stamp))


def tag_run(fixtures_dir, lexicon, *options):
    return CliRunner().invoke(
        main,
        ["tag", "--lexicon", str(lexicon), "--corpus", str(fixtures_dir / "news_corpus.tsv"), *options],
    )


def test_a_second_load_is_a_cache_hit_equal_to_the_full_load(cold_cache, lexicon_path, monkeypatch):
    cold = load_lexicon(lexicon_path)
    assert len(cache_files(cold_cache)) == 1
    monkeypatch.setattr("homograph_tagger.lexicon._entry_reader", refuse_full_load)
    warm = load_lexicon(lexicon_path)
    assert warm == cold and warm.vocabulary == cold.vocabulary
    assert warm._index == cold._index and tag_tables(warm) == tag_tables(cold)


def test_a_hit_shares_values_exactly_as_the_full_load_does(
    cold_cache, lexicon_path, tmp_path, monkeypatch
):
    # the fixture lexicon, each record repeated under two other words, so that sequences repeat
    records = list(map(json.loads, lexicon_path.read_text("utf-8").splitlines()))
    path = tmp_path / "repeated.jsonl"
    lines = [
        json.dumps({**record, "word": f"{record['word']}{copy}"}) + "\n"
        for copy in ("", "-a", "-b")
        for record in records
    ]
    path.write_text("".join(lines), "utf-8")
    cold = load_lexicon(path)
    monkeypatch.setattr("homograph_tagger.lexicon._entry_reader", refuse_full_load)
    warm = load_lexicon(path)
    assert warm == cold and warm._index == cold._index
    shared = identity_partition([entry.homographs for entry in cold])
    assert identity_partition([entry.homographs for entry in warm]) == shared
    assert identity_partition(tag_tables(warm).values()) == shared
    assert len(shared) < len(cold)


def test_the_same_bytes_under_another_path_hit(cold_cache, lexicon_path, tmp_path, monkeypatch):
    cold = load_lexicon(lexicon_path)
    elsewhere = tmp_path / "elsewhere.jsonl"
    shutil.copyfile(lexicon_path, elsewhere)
    monkeypatch.setattr("homograph_tagger.lexicon._entry_reader", refuse_full_load)
    assert load_lexicon(elsewhere) == cold


def _set(form, part, index, value):
    form[part][index] = value
    return form


# each damages the cached form of the fixture lexicon, whose first homograph is (["n"], 2)
CORRUPTIONS = {
    "truncated": lambda text: text[: len(text) // 2],
    "not-json": lambda text: "not json",
    "not-ascii": lambda text: text.replace('"bank"', '"bänk"').encode().decode("latin-1"),
    "nested-too-deeply": lambda text: "[" * 100_000,
    "wrong-shape": lambda text: json.dumps([json.loads(text)]),
    "missing-part": lambda text: json.dumps({**json.loads(text), "keys": None}),
    "index-out-of-range": lambda text: json.dumps(
        _set(json.loads(text), "sequence_of", 0, len(json.loads(text)["sequences"]))
    ),
    "negative-index": lambda text: json.dumps(_set(json.loads(text), "sequences", 0, [-1])),
    "tag-not-in-the-vocabulary": lambda text: json.dumps(
        _set(json.loads(text), "homographs", 0, [["nope"], 2])
    ),
    "no-senses": lambda text: json.dumps(_set(json.loads(text), "homographs", 0, [["n"], 0])),
    "duplicate-key": lambda text: json.dumps(
        _set(json.loads(text), "keys", 1, json.loads(text)["keys"][0])
    ),
    "key-not-normalized": lambda text: json.dumps(_set(json.loads(text), "keys", 0, "Bank")),
    "no-entries": lambda text: json.dumps({**json.loads(text), "keys": [], "sequence_of": []}),
}


@pytest.mark.parametrize("corrupt", CORRUPTIONS.values(), ids=CORRUPTIONS)
def test_a_damaged_cache_file_is_ignored_and_rewritten(
    cold_cache, lexicon_path, full_loads, corrupt
):
    cold = load_lexicon(lexicon_path)
    (name,) = cache_files(cold_cache)
    cached = cold_cache / name
    written = cached.read_bytes()
    cached.write_bytes(corrupt(written.decode("ascii")).encode("latin-1"))
    assert cached.read_bytes() != written
    again = load_lexicon(lexicon_path)
    assert again == cold
    assert again._index == cold._index and tag_tables(again) == tag_tables(cold)
    assert len(full_loads) == 2
    assert cache_files(cold_cache) == [name]
    assert cached.read_bytes() == written


def test_a_link_planted_under_a_cache_name_is_replaced_not_written_through(
    cold_cache, lexicon_path, tmp_path, full_loads
):
    cold = load_lexicon(lexicon_path)
    (name,) = cache_files(cold_cache)
    cached = cold_cache / name
    written = cached.read_bytes()
    outside = tmp_path / "outside.json"
    outside.write_bytes(b"not a cache form")
    cached.unlink()
    cached.symlink_to(outside)
    # the link's target is garbage, so the load misses and writes the form again
    assert load_lexicon(lexicon_path) == cold
    assert len(full_loads) == 2
    assert outside.read_bytes() == b"not a cache form"
    assert not cached.is_symlink() and cached.is_file()
    assert cached.read_bytes() == written


def test_changing_one_byte_of_the_lexicon_is_a_miss(cold_cache, lexicon_path, full_loads):
    cold = load_lexicon(lexicon_path)
    # one letter of a definition, which the loaded lexicon does not keep
    data = lexicon_path.read_bytes()
    lexicon_path.write_bytes(data.replace(b"sense 1 of bank", b"sense 1 of bonk", 1))
    assert load_lexicon(lexicon_path) == cold
    assert len(full_loads) == 2
    assert len(cache_files(cold_cache)) == 2


def test_another_vocabulary_is_a_miss(cold_cache, tmp_path, full_loads):
    path = one_word_lexicon(tmp_path / "lex.jsonl")
    load_lexicon(path)
    load_lexicon(path, ["n", "v"])
    assert len(full_loads) == 2
    assert len(cache_files(cold_cache)) == 2


def test_an_invalid_lexicon_writes_no_cache(cold_cache, tmp_path):
    for text in ('{"word": "x"}\n', "", '{"word":"w","homographs":[{"pos":["n"],"senses":[]}]}\n'):
        path = tmp_path / "bad.jsonl"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(LexiconError):
            load_lexicon(path)
    assert cache_files(cold_cache) == []


def test_a_warm_cache_does_not_pass_a_lexicon_under_another_vocabulary(cold_cache, tmp_path):
    # valid under the default vocabulary, but its tag 'n' is not in this one
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("noun\nverb\n", encoding="utf-8")
    lexicon = one_word_lexicon(tmp_path / "lex.jsonl")
    runner = CliRunner()
    for _ in range(2):
        assert runner.invoke(main, ["validate", "--lexicon", str(lexicon)]).exit_code == 0
    assert len(cache_files(cold_cache)) == 1
    result = runner.invoke(main, ["validate", "--lexicon", str(lexicon), "--vocab", str(vocab)])
    assert result.exit_code == 1
    assert result.stderr == f"error: {lexicon}:1: 'run': homograph 1: unknown coarse tag 'n'\n"


@pytest.mark.parametrize("cache", ["cold", "warm"])
@pytest.mark.parametrize(
    "make, exit_code, message",
    [
        (lambda path: None, 2, "[Errno 2] No such file or directory: '{path}'"),
        (lambda path: path.mkdir(), 2, "[Errno 21] Is a directory: '{path}'"),
        (lambda path: path.write_bytes(b'{"word": "caf\xe9"}\n'), 1, "{path}:1: not valid UTF-8"),
    ],
    ids=["missing", "directory", "undecodable"],
)
def test_a_lexicon_that_cannot_be_read_fails_as_without_a_cache(
    cold_cache, fixtures_dir, tmp_path, cache, make, exit_code, message
):
    if cache == "warm":
        load_lexicon(fixtures_dir / "pipeline_lexicon.jsonl")
    path = tmp_path / "lex.jsonl"
    make(path)
    result = tag_run(fixtures_dir, path)
    assert result.exit_code == exit_code
    assert result.stdout == ""
    assert result.stderr == f"error: {message.format(path=path)}\n"


def refuse_cache_work(*args):
    raise AssertionError("a load that cannot write the cache hashed its file, or read or wrote a cache file")


@pytest.mark.parametrize(
    "blocked", ["read-only-directory", "file-in-its-place", "cache-home-is-a-file"]
)
def test_an_unwritable_cache_changes_no_result(
    cold_cache, fixtures_dir, lexicon_path, tmp_path, monkeypatch, blocked
):
    if blocked == "read-only-directory":
        cold_cache.mkdir(parents=True)
        cold_cache.chmod(0o555)
    elif blocked == "file-in-its-place":
        cold_cache.parent.mkdir(parents=True, exist_ok=True)
        cold_cache.write_bytes(b"")
    else:
        monkeypatch.setenv("XDG_CACHE_HOME", str(lexicon_path))
    # root may write into a read-only directory; a file in the way stops everyone
    if blocked != "read-only-directory" or os.geteuid() != 0:
        for work in ("_cache_name", "_read_form", "_write_form"):
            monkeypatch.setattr(f"homograph_tagger.lexicon.{work}", refuse_cache_work)
    golden = (fixtures_dir / "news_corpus_tagged.golden").read_bytes()
    try:
        for run in range(2):
            out = tmp_path / f"out{run}.tsv"
            result = tag_run(fixtures_dir, lexicon_path, "--out", str(out))
            assert result.exit_code == 0
            assert result.stderr == SUMMARY
            assert out.read_bytes() == golden
    finally:
        if cold_cache.is_dir():
            cold_cache.chmod(0o755)
    if blocked == "file-in-its-place":
        assert cold_cache.read_bytes() == b""
    elif os.geteuid() != 0:
        assert cache_files(cold_cache) == []


@pytest.mark.parametrize("change", ["appended-to", "replaced", "removed"])
def test_a_file_changed_during_its_load_is_not_cached(
    cold_cache, lexicon_path, monkeypatch, change
):
    extra = b'{"word":"zzz","homographs":[{"pos":["n"],"senses":[{"def":"d"}]}]}\n'
    original = lexicon_path.read_bytes()

    def changed_then_read(raw, path, vocab):
        # after the lookup hashed the file; another size or file, whatever the clock's grain
        if change == "appended-to":
            with open(path, "ab") as fh:
                fh.write(extra)
        elif change == "replaced":
            lexicon_path.with_suffix(".new").write_bytes(original)
            os.replace(lexicon_path.with_suffix(".new"), path)
        else:
            os.unlink(path)
        return _read_lexicon(raw, path, vocab)

    monkeypatch.setattr("homograph_tagger.lexicon._read_lexicon", changed_then_read)
    assert ("zzz" in load_lexicon(lexicon_path)._index) == (change == "appended-to")
    assert cache_files(cold_cache) == []


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd to name a pipe")
def test_a_lexicon_read_from_a_pipe_loads_and_writes_nothing(cold_cache, lexicon_path):
    data = lexicon_path.read_bytes()
    read_end, write_end = os.pipe()

    def feed():
        with open(write_end, "wb") as fh:
            fh.write(data)

    feeder = threading.Thread(target=feed)
    feeder.start()
    try:
        piped = load_lexicon(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)
        feeder.join(timeout=10)
    assert not feeder.is_alive()
    assert cache_files(cold_cache) == []
    assert piped == load_lexicon(lexicon_path)


def test_the_cache_keeps_at_most_its_file_cap(cold_cache, tmp_path, monkeypatch):
    monkeypatch.setattr("homograph_tagger.lexicon.CACHE_FILES", 3)
    # a temporary file that a killed writer left counts, and ages out as the oldest
    cold_cache.mkdir(parents=True)
    (cold_cache / ".left.0000.tmp").write_bytes(b"{")
    age(cold_cache)
    paths = [one_word_lexicon(tmp_path / f"lex{n}.jsonl", f"w{n}") for n in range(5)]
    for n, path in enumerate(paths):
        load_lexicon(path)
        age(cold_cache)
        assert len(cache_files(cold_cache)) == min(n + 2, 3)
    assert all(name.endswith(".json") for name in cache_files(cold_cache))
    # the three most recently written stay
    monkeypatch.setattr("homograph_tagger.lexicon._entry_reader", refuse_full_load)
    for path in paths[2:]:
        load_lexicon(path)


def test_a_package_without_its_sources_caches_nothing(cold_cache, lexicon_path, tmp_path):
    # the cache name covers the package's .py sources, so without them there is no name to give
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("homograph_tagger.lexicon.PACKAGE", tmp_path / "no-sources")
        _code_stamp.cache_clear()
        try:
            without_sources = load_lexicon(lexicon_path)
        finally:
            _code_stamp.cache_clear()
    assert cache_files(cold_cache) == []
    assert without_sources == load_lexicon(lexicon_path)
    assert len(cache_files(cold_cache)) == 1


def test_concurrent_cold_runs_agree_and_leave_one_cache_file(cold_cache, fixtures_dir, tmp_path):
    golden = (fixtures_dir / "news_corpus_tagged.golden").read_bytes()
    outputs = [tmp_path / f"out{n}.tsv" for n in range(4)]
    args = [
        sys.executable, "-m", "homograph_tagger", "tag",
        "--lexicon", str(fixtures_dir / "pipeline_lexicon.jsonl"),
        "--corpus", str(fixtures_dir / "news_corpus.tsv"),
    ]
    runs = [
        subprocess.Popen([*args, "--out", str(out)], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        for out in outputs
    ]
    try:
        results = [(run.communicate(timeout=60), run.returncode) for run in runs]
    finally:
        for run in runs:
            run.kill()
            run.wait()
    for (stdout, stderr), code in results:
        assert (code, stdout, stderr) == (0, b"", SUMMARY.encode())
    assert all(out.read_bytes() == golden for out in outputs)
    (name,) = cache_files(cold_cache)
    assert name.endswith(".json") and not name.startswith(".")
