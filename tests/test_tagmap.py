import pytest

from homograph_tagger import TagMapError, load_tagmap


def write_map(tmp_path, text):
    path = tmp_path / "map.tsv"
    path.write_text(text, encoding="utf-8")
    return path


def test_default_tagmap_covers_the_penn_treebank_tagset(penn):
    assert len(penn) == 48
    assert penn.open_class == frozenset({"n", "v", "adj", "adv"})
    assert penn.proper_tags == frozenset({"NNP", "NNPS"})


@pytest.mark.parametrize(
    "fine, coarse",
    [
        ("NN", "n"), ("NNS", "n"), ("NNP", "n"),
        ("VB", "v"), ("VBZ", "v"), ("VBN", "v"),
        ("JJ", "adj"), ("JJR", "adj"),
        ("RB", "adv"), ("WRB", "adv"),
        ("MD", "aux"), ("TO", "inf"), ("POS", "poss"),
        ("EX", "pron"), ("WP$", "pron"), ("PDT", "predet"),
        ("IN", "prep"), ("CC", "conj"), ("CD", "num"),
        ("UH", "interj"), ("RP", "part"), ("FW", "x"),
        ("#", "punct"), ("$", "punct"), (",", "punct"), ("``", "punct"),
    ],
)
def test_default_mappings(penn, fine, coarse):
    assert penn.entries[fine] == coarse


def test_open_class_membership(penn):
    assert "n" in penn.open_class
    assert "adv" in penn.open_class
    assert "prep" not in penn.open_class
    assert None not in penn.open_class


def test_load_tagmap_with_headers(tmp_path):
    path = write_map(tmp_path, (
        "# fine to coarse\n"
        "!open: n v\n"
        "!proper: NP\n"
        "NN\tn\n"
        "NP\tn\n"
        "VB\tv\n"
        "DT\tdet\n"
    ))
    mapping = load_tagmap(path)
    assert len(mapping) == 4
    assert mapping.open_class == frozenset({"n", "v"})
    assert mapping.proper_tags == frozenset({"NP"})
    assert mapping.entries["DT"] == "det"


def test_load_tagmap_defaults_the_open_class_when_no_header(tmp_path):
    mapping = load_tagmap(write_map(tmp_path, "NN\tn\nVB\tv\n"))
    assert mapping.open_class == frozenset({"n", "v", "adj", "adv"})
    assert mapping.proper_tags == frozenset()


def test_hash_initial_line_is_data_when_followed_by_a_tab(tmp_path):
    mapping = load_tagmap(write_map(tmp_path, "#\tpunct\n# real comment\nNN\tn\n"))
    assert mapping.entries["#"] == "punct"
    assert len(mapping) == 2


@pytest.mark.parametrize(
    "text, message",
    [
        ("NN\tn\nNN\tn\n", "duplicate fine tag"),
        ("NN\tnoun\n", "unknown coarse tag"),
        ("NN\tn\textra\n", "expected FINE<TAB>COARSE"),
        ("NNonly\n", "expected FINE<TAB>COARSE"),
        ("!open: n bogus\nNN\tn\n", "bogus"),
        ("!open: n\n!open: v\nNN\tn\n", "duplicate"),
        ("!open:\nNN\tn\n", r"map\.tsv:1: !open names no coarse tag"),
        ("NN\tn\n!open: \t \n", r"map\.tsv:2: !open names no coarse tag"),
        ("!shiny: n\nNN\tn\n", "unknown header"),
        ("!open n v\nNN\tn\n", r"map\.tsv:1: malformed header '!open n v'"),
        ("!proper: NNP\n!proper: NNP\nNNP\tn\n", r"map\.tsv:2: duplicate !proper header"),
        ("!proper: ZZZ\nNN\tn\n", "ZZZ"),
        ("# only a comment\n", "empty"),
    ],
)
def test_load_tagmap_rejects_malformed_files(tmp_path, text, message):
    with pytest.raises(TagMapError, match=message):
        load_tagmap(write_map(tmp_path, text))


@pytest.mark.parametrize("separator", ["\u2028", "\x85"], ids=["U+2028", "U+0085"])
def test_a_tag_map_line_ends_only_at_a_line_break(tmp_path, separator):
    # str.splitlines would end lines at the separator and so map NN, JJ and RB
    mapping = load_tagmap(write_map(tmp_path, f"# comment{separator}NN\tn\nVB\tv\n"))
    assert mapping.entries == {"VB": "v"}
    with pytest.raises(TagMapError, match="map.tsv:2: expected FINE<TAB>COARSE"):
        load_tagmap(write_map(tmp_path, f"VB\tv\nJJ\tadj{separator}RB\tadv\n"))


def test_load_tagmap_validates_against_a_custom_vocabulary(tmp_path):
    path = write_map(tmp_path, "!open: noun\nNN\tnoun\n")
    mapping = load_tagmap(path, vocabulary=["noun"])
    assert mapping.entries["NN"] == "noun"
    with pytest.raises(TagMapError):
        load_tagmap(path)


def test_default_open_class_must_exist_in_a_custom_vocabulary(tmp_path):
    # no !open header, so the default open set is checked against the vocabulary
    path = write_map(tmp_path, "NN\tnoun\n")
    with pytest.raises(TagMapError, match="open"):
        load_tagmap(path, vocabulary=["noun"])
