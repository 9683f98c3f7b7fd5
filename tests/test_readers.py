"""The chunked edge-list reader and the one-pass label-file reader
against the former one-line-at-a-time readers in ``oracles``: equal
graphs and tables, or the same error message, for every source kind, at
the default chunk size and at chunks of a few characters."""

import io
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from dieout import graphs
from dieout.cli import main
from dieout.config import (ConfigError, _count_value, _modulation_value,
                           _read_label_values, load_config, load_graph,
                           load_modulation)
from dieout.graphs import EdgeListError, load_edge_list, load_edge_list_file

#: field separators inside a line: str.split() whitespace, some of it a
#: line boundary to str.splitlines() but not to a text file
SEPARATORS = [" ", "\t", "  ", "\f", "\v", "\x1c", "\x1f", "\x85", "\xa0",
              "\u2028", "\u3000"]
#: line ends: a text file splits at \n, \r\n and \r only
TERMINATORS = ["\n", "\r\n", "\r", "\f", "\x1c", "\u2028", "\x85"]
LABELS = ["a", "b", "c", "n10", "\xe9", "\u3001", "\U0001F600"]
WEIGHTS = ["1", "0", "-0", "0.0", "2.5", "1_0", "+3", "1e400", "nan", "inf",
           "-1", "x", "1__0"]


def _line(fields, seps, comment):
    text = "".join(f + s for f, s in zip(fields, seps))
    return text + ("# c" + seps[-1] + "d" if comment else "")


@st.composite
def edge_lines(draw):
    """Raw lines: mostly ``src dst weight``, with comments, blank lines,
    2- and 4-field lines, duplicates and self-loops among them."""
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(
            ["edge"] * 6 + ["blank", "comment", "short", "long"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t", "\x1f"])))
            continue
        if kind == "comment":
            lines.append(draw(st.sampled_from(["#", "# header", " #x y 1"])))
            continue
        width = {"edge": 3, "short": 2, "long": 4}[kind]
        src, dst = draw(st.sampled_from(LABELS)), draw(st.sampled_from(LABELS))
        fields = [src, dst, draw(st.sampled_from(WEIGHTS)), "7"][:width]
        seps = [draw(st.sampled_from(SEPARATORS)) for _ in fields]
        lines.append(draw(st.sampled_from(["", " "])) +
                     _line(fields, seps, draw(st.booleans())))
    return lines


@st.composite
def edge_texts(draw):
    lines = draw(edge_lines())
    ends = [draw(st.sampled_from(TERMINATORS)) for _ in lines]
    return "".join(ln + end for ln, end in zip(lines, ends)) + draw(
        st.sampled_from(["", "a b 1"]))


#: chunk sizes the properties run at besides graphs.CHUNK_CHARS: a few
#: characters, so every drawn input spans several chunks
SMALL_CHUNKS = st.integers(1, 12)


def _chunks_of(chars: int):
    return mock.patch.object(graphs, "CHUNK_CHARS", chars)


def _outcome(load, source):
    """(labels, CSR arrays) or the error message."""
    try:
        g = load(source)
    except EdgeListError as exc:
        return str(exc)
    w = g.weights
    return g.labels, [(a.dtype.str, a.tobytes())
                      for a in (w.data, w.indices, w.indptr)]


def _file_outcome(path):
    def oracle_file(p):
        with open(p, "r", encoding="utf-8") as fh:
            try:
                return oracles.load_edge_list(fh)
            except EdgeListError as exc:
                raise EdgeListError(f"{p}: {exc}") from None
    return _outcome(load_edge_list_file, path), _outcome(oracle_file, path)


@pytest.fixture(scope="module")
def shared_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("readers")


def _oracle_outcome(text):
    """The per-line reader fed the lines of a file holding ``text``."""
    return _outcome(oracles.load_edge_list,
                    list(io.StringIO(text, newline=None)))


@settings(max_examples=300, deadline=None)
@given(edge_texts(), SMALL_CHUNKS)
@example("a b 1\nb a 1", 1)
@example("a\fb 1\nb a 1\n", 1)       # \f separates fields, as in a file
@example("a b 1\nb\u2028c 1\nc a 1\n", 1)
@example("a b 1 # x\fy z\n", 1)      # the comment ends at \n
@example("a a 0\na a 0", 1)
@example("a b -0\nb a 1_0\n", 1)
@example("\u2028 \n", 1)
@example("a b 1\r\nb a x\r\n", 1)
@example("a b 1\rb a 1\r", 1)
def test_str_stream_and_file_sources_match_the_per_line_reader(
        shared_dir, text, chunk):
    """A string, a stream that keeps its \\r characters, and a file of the
    same bytes load alike, as the per-line reader loads the file."""
    path = shared_dir / "g.edges"
    path.write_text(text, encoding="utf-8", newline="")
    want = _oracle_outcome(text)
    for chars in (graphs.CHUNK_CHARS, chunk):
        with _chunks_of(chars):
            assert _outcome(load_edge_list, text) == want
            assert _outcome(load_edge_list,
                            io.StringIO(text, newline="")) == want
            assert _outcome(load_edge_list_file, path) == (
                f"{path}: {want}" if isinstance(want, str) else want)


VALUES = ["1", "0", "-1", "2.5", "1_0", "nan", "inf", "x", "3", "07"]


@st.composite
def label_texts(draw):
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        width = draw(st.sampled_from([1, 2, 2, 2, 3, 0]))
        fields = [draw(st.sampled_from(LABELS + ["zz"])),
                  draw(st.sampled_from(VALUES)), "9"][:width]
        seps = [draw(st.sampled_from(SEPARATORS)) for _ in fields] or [""]
        lines.append(_line(fields, seps, draw(st.booleans())))
    ends = [draw(st.sampled_from(TERMINATORS)) for _ in lines]
    return "".join(ln + end for ln, end in zip(lines, ends))


def _table_outcome(read, path, convert, labels):
    try:
        return list(read(path, convert, labels).items())
    except ConfigError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(label_texts(), st.sampled_from([None, _modulation_value, _count_value]),
       st.sampled_from([None, frozenset(LABELS)]), SMALL_CHUNKS)
@example("a 1\nb 2\n", _count_value, None, 1)
@example("a 1\na 2\n", _count_value, None, 1)
@example("a\fb\n", None, None, 1)
@example("a 1\nzz x\n", _modulation_value, frozenset(LABELS), 1)
def test_label_file_matches_the_per_line_reader(shared_dir, text, convert,
                                                labels, chunk):
    path = shared_dir / "labels.txt"
    path.write_text(text, encoding="utf-8", newline="")
    want = _table_outcome(oracles.read_label_values, path, convert, labels)
    for chars in (graphs.CHUNK_CHARS, chunk):
        with _chunks_of(chars):
            assert (_table_outcome(_read_label_values, path, convert, labels)
                    == want)


def test_valid_inputs_never_take_the_per_line_pass(tmp_path, monkeypatch):
    """A 6,000-edge file loads through the bulk path alone, beside a
    modulation file: the per-line fallback is never called."""
    calls = []

    def spy(module):
        real = module._raise_first_bad_line

        def wrapped(*args):
            calls.append(module.__name__)
            real(*args)
        monkeypatch.setattr(module, "_raise_first_bad_line", wrapped)

    spy(graphs)
    n = 2000
    rng = np.random.default_rng(20)
    lines = ["# ring plus chords\n"]
    for i in range(n):
        lines.append(f"v{i} v{(i + 1) % n} {1 + i % 5}\n")
        lines.append(f"v{(i + 1) % n}\tv{i} 0.5  # back edge\n")
        lines.append(f"v{i} v{(i + 7) % n} {rng.uniform(0, 2)!r}\n")
    (tmp_path / "g.edges").write_text("".join(lines) + "\n")
    (tmp_path / "g.mod").write_text(
        "".join(f"v{i} {0.5 + i / n!r}\n" for i in range(n)))
    (tmp_path / "g.ini").write_text(
        "[graph]\npath = g.edges\n\n[modulation]\nfile = g.mod\n")
    cfg = load_config(tmp_path / "g.ini")
    g = load_graph(cfg)
    mod = load_modulation(cfg, g)
    assert g.weights.nnz == 3 * n
    assert mod.values[1] == 0.5 + 1 / n
    assert calls == []
    # the spy does see the fallback when a line is bad
    (tmp_path / "g.edges").write_text("".join(lines) + "v1 v2 x\n")
    with pytest.raises(EdgeListError, match=f"line {3 * n + 2}: weight 'x'"):
        load_graph(cfg)
    assert calls == ["dieout.graphs"]


@pytest.mark.parametrize("text", [
    # at 6 characters a chunk ends between a file's \r and \n bytes
    "a b 1\r\nb c 2\r\nc a 3\r\n",
    "a b 1\r\nb a 2\r\nb a 3\r\n",
    # comments that run up to a chunk's end, or across where it would be
    "a b 1 # to the end\nb a 2\n# whole line\nc a 1 #\n",
    "# x\n#\na b 1 #a b c\nb a 0x\n",
])
def test_every_chunk_size_gives_the_per_line_result(tmp_path, text):
    path = tmp_path / "g.edges"
    path.write_text(text, encoding="utf-8", newline="")
    _, want = _file_outcome(path)
    for chars in range(1, len(text) + 2):
        with _chunks_of(chars):
            assert _file_outcome(path)[0] == want
            assert _outcome(load_edge_list, text) == _oracle_outcome(text)


def test_a_fault_in_the_third_chunk_names_its_file_line(tmp_path):
    edges = "".join(f"n{i} n{i + 1} 1\n" for i in range(9)) + "n9 n0 x\n"
    labels = "".join(f"n{i} {i + 1}\n" for i in range(9)) + "n2 7\n"
    (tmp_path / "g.edges").write_text(edges)
    (tmp_path / "g.mod").write_text(labels)
    with _chunks_of(len("n0 n1 1\n") * 4):  # four edge lines a chunk
        assert "n9 n0 x" in list(graphs.line_chunks(edges))[2]
        with pytest.raises(EdgeListError) as info:
            load_edge_list_file(tmp_path / "g.edges")
        assert str(info.value) == (f"{tmp_path / 'g.edges'}: line 10: "
                                   "weight 'x' is not a number")
    with _chunks_of(len("n0 1\n") * 4):
        assert "n2 7" in list(graphs.line_chunks(labels))[2]
        with pytest.raises(ConfigError) as info:
            _read_label_values(tmp_path / "g.mod", _modulation_value)
        assert str(info.value) == (f"{tmp_path / 'g.mod'}:10: "
                                   "duplicate label 'n2'")


def test_a_label_first_seen_in_a_later_chunk_keeps_its_order(tmp_path):
    text = "b c 1\nc b 1\na b 2\nd a 1\nc d 1\n"
    (tmp_path / "sub.txt").write_text("c\nb\n\nd\na\n")
    with _chunks_of(1):  # one line a chunk
        assert len(list(graphs.line_chunks(text))) == 5
        g = load_edge_list(text)
        subset = _read_label_values(tmp_path / "sub.txt")
    assert g.labels == ("b", "c", "a", "d")
    assert g.weights.toarray().tolist() == [[0, 1, 0, 0], [1, 0, 0, 1],
                                            [2, 0, 0, 0], [0, 0, 1, 0]]
    assert list(subset) == ["c", "b", "d", "a"]


def test_bytes_that_are_not_utf8_name_the_file_and_line(tmp_path, capsys):
    """The first undecodable line is named, counting \\r, \\r\\n and \\n
    as line ends as a text file does; the position counts bytes."""
    graph = tmp_path / "g.edges"
    graph.write_bytes(b"a b 1\r\nb a 1\rcaf\xe9 a 2\nb caf\xe9 1\n")
    graph_error = (f"{graph}: line 3: byte 0xe9 at position 4 is not "
                   "UTF-8 (invalid continuation byte)")
    with pytest.raises(EdgeListError) as info:
        load_edge_list_file(graph)
    assert str(info.value) == graph_error
    mod = tmp_path / "g.mod"
    mod.write_bytes(b"\xc3\xa9 1\nb\xff 2\n")
    with pytest.raises(ConfigError) as info:
        _read_label_values(mod, _modulation_value)
    assert str(info.value) == (f"{mod}:2: byte 0xff at position 2 is not "
                               "UTF-8 (invalid start byte)")
    cfg = tmp_path / "g.ini"
    cfg.write_text(f"[graph]\npath = {graph}\n")
    assert main(["classify", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {graph_error}\n"


def test_profile_tables_and_configs_not_utf8_name_the_file_and_line(
        tmp_path, capsys):
    """A table profile file and the experiment file itself name the
    line of their first byte that is not UTF-8, like the other readers;
    they used to fail with the bare codec error."""
    table = tmp_path / "g.table"
    table.write_bytes(b"1 0.5\r\n2 0.\xe9\ntail=0\n")
    cfg = tmp_path / "g.ini"
    cfg.write_text("[dynamics]\ndelta = 1\n\n[hitting]\ngamma = table:g.table"
                   "\nn_max = 5\n")
    assert main(["hitting", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        f"error: {table}:2: byte 0xe9 at position 5 is not UTF-8 "
        "(unexpected end of data)\n")
    cfg.write_bytes(b"[dynamics]\r\n# d\xe9lta\ndelta = 1\n")
    assert main(["hitting", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        f"error: {cfg}:2: byte 0xe9 at position 4 is not UTF-8 (invalid "
        "continuation byte)\n")
    # configparser's own messages still name the file
    cfg.write_text("[dynamics]\ndelta = 1\ndelta = 2\n")
    with pytest.raises(ConfigError, match=f"cannot parse {cfg}: .*"
                                          f"'{cfg}' \\[line  3\\]"):
        load_config(cfg)


def test_edge_list_file_parse_peaks_below_six_times_the_file(tmp_path):
    """The traced peak of loading a seeded 20,000-node, 140k-edge list
    stays below 6 times the file's size: only one chunk's field strings
    are alive at a time.  Parsed in one piece, the peak was 14.5 times
    the size."""
    n = 20_000
    rng = np.random.default_rng(23)
    nodes = np.arange(n)
    # a two-way ring plus 5 random in-edges a node, without self-loops
    # or repeated pairs
    src = np.concatenate([nodes, (nodes + 1) % n, np.repeat(nodes, 5)])
    dst = np.concatenate([(nodes + 1) % n, nodes, rng.integers(0, n, 5 * n)])
    _, first = np.unique(src * n + dst, return_index=True)
    keep = np.sort(first[src[first] != dst[first]])
    weights = np.maximum(1, np.round(rng.lognormal(1.0, 0.5, keep.size)))
    path = tmp_path / "big.edges"
    path.write_text("".join(
        f"v{s:05d} v{d:05d} {w:.0f}\n"
        for s, d, w in zip(src[keep].tolist(), dst[keep].tolist(),
                           weights.tolist())))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        g = load_edge_list_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.node_count == n and g.weights.nnz == keep.size > 135_000
    assert peak < 6 * size, f"peak {peak / size:.1f} x the file's size"
