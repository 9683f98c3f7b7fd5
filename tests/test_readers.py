"""The bulk edge-list and label-file readers against the former
one-line-at-a-time readers in ``oracles``: equal graphs and tables, or
the same error message, for every source kind."""

import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from dieout import config, graphs
from dieout.config import (ConfigError, _count_value, _modulation_value,
                           _read_label_values, load_config, load_graph,
                           load_modulation)
from dieout.graphs import EdgeListError, load_edge_list, load_edge_list_file

#: field separators inside a line: str.split() whitespace, some of it a
#: line boundary to str.splitlines() but not to file iteration
SEPARATORS = [" ", "\t", "  ", "\f", "\v", "\x1c", "\x1f", "\x85", "\xa0",
              "\u2028", "\u3000"]
#: line ends: file iteration splits at \n, \r\n and \r only
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


@settings(max_examples=300, deadline=None)
@given(edge_texts())
@example("a b 1\nb a 1")
@example("a\fb 1\nb a 1\n")          # one file line of 3 fields, two str lines
@example("a b 1 # x\fy z\n")         # the comment ends at \n in a file only
@example("a a 0\na a 0")
@example("a b -0\nb a 1_0\n")
@example("\u2028 \n")
def test_str_and_list_sources_match_the_per_line_reader(text):
    assert _outcome(load_edge_list, text) == _outcome(oracles.load_edge_list,
                                                      text)
    for lines in (text.splitlines(), text.splitlines(keepends=True),
                  list(io.StringIO(text, newline=None))):
        assert (_outcome(load_edge_list, lines)
                == _outcome(oracles.load_edge_list, lines))
        assert (_outcome(load_edge_list, iter(lines))
                == _outcome(oracles.load_edge_list, iter(lines)))


@settings(max_examples=100, deadline=None)
@given(edge_lines())
@example(["a b\n1", "b a 1"])        # a newline inside a list item
@example(["a b 1 # x\ny", "b a 1"])
def test_list_items_are_lines_even_with_newlines_inside(lines):
    assert (_outcome(load_edge_list, lines)
            == _outcome(oracles.load_edge_list, lines))


@settings(max_examples=150, deadline=None)
@given(edge_texts())
@example("a\fb 1\nb a 1\n")
@example("a b 1\r\nb a x\r\n")
@example("a b 1\rb a 1\r")
def test_file_source_matches_the_per_line_reader(shared_dir, text):
    path = shared_dir / "g.edges"
    path.write_text(text, encoding="utf-8", newline="")
    new, old = _file_outcome(path)
    assert new == old
    with open(path, "r", encoding="utf-8") as fh:
        stream = _outcome(load_edge_list, fh)
    with open(path, "r", encoding="utf-8") as fh:
        assert stream == _outcome(oracles.load_edge_list, fh)


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
       st.sampled_from([None, frozenset(LABELS)]))
@example("a 1\nb 2\n", _count_value, None)
@example("a 1\na 2\n", _count_value, None)
@example("a\fb\n", None, None)
@example("a 1\nzz x\n", _modulation_value, frozenset(LABELS))
def test_label_file_matches_the_per_line_reader(shared_dir, text, convert,
                                                labels):
    path = shared_dir / "labels.txt"
    path.write_text(text, encoding="utf-8", newline="")
    assert (_table_outcome(_read_label_values, path, convert, labels)
            == _table_outcome(oracles.read_label_values, path, convert,
                              labels))


def test_valid_inputs_never_take_the_per_line_pass(tmp_path, monkeypatch):
    """A 6,000-edge file and a modulation file load through the bulk
    path alone: the per-line fallback is never called."""
    calls = []

    def spy(module):
        real = module._raise_first_bad_line

        def wrapped(*args):
            calls.append(module.__name__)
            real(*args)
        monkeypatch.setattr(module, "_raise_first_bad_line", wrapped)

    spy(graphs)
    spy(config)
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
