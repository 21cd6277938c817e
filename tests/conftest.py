import json
from pathlib import Path

import pytest

from homograph_tagger import default_tagmap, load_lexicon

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session", autouse=True)
def private_lexicon_cache(tmp_path_factory):
    """A lexicon cache of the test run's own, so that no test, CLI children included, uses the user's."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        yield


@pytest.fixture()
def cold_cache(tmp_path_factory, monkeypatch):
    """An empty lexicon cache for one test, so that its first load of each lexicon is a full load.

    The value is the cache directory, which the first load that writes creates.
    """
    base = tmp_path_factory.mktemp("cold-cache")
    monkeypatch.setenv("XDG_CACHE_HOME", str(base))
    return base / "homograph-tagger"


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


@pytest.fixture(scope="session")
def news_lexicon():
    return load_lexicon(FIXTURES / "pipeline_lexicon.jsonl")


@pytest.fixture(scope="session")
def penn():
    return default_tagmap()


@pytest.fixture(scope="session")
def news_counts():
    return json.loads((FIXTURES / "news_corpus_counts.json").read_text("utf-8"))
