"""Hypothesis fuzz of the input boundary.

Two functions turn outside text into program values: ``cli.parse_size``
(``--memory``, ``--block-size``) and ``graph.io_formats.read_edge_text``
(edge lists, and the labels file ``verify`` reads).  For arbitrary input
each returns a value or raises :class:`InputFormatError`; no other
exception type escapes, so ``main`` can always print one line and exit 2.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main, parse_size
from repro.exceptions import InputFormatError
from repro.graph.io_formats import read_edge_text

SETTINGS = settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

# Alphabets biased toward each grammar (digits, signs, dots, exponents,
# the K/M/G suffixes, separators, comments) so the fuzz gets past the
# first character, mixed with unrestricted text and bytes.
size_text = st.one_of(st.text(), st.text(alphabet="0123456789+-.eEkKmMgG_ \tinfa"))
edge_line = st.one_of(st.text(alphabet="0123456789 -+#x_\t\r", max_size=12),
                      st.text(max_size=12))
edge_file_bytes = st.one_of(
    st.binary(max_size=200),
    st.lists(edge_line, max_size=8).map(lambda ls: "\n".join(ls).encode("utf-8")),
)


class TestParseSize:
    @SETTINGS
    @given(text=size_text)
    def test_returns_int_or_raises_input_format_error(self, text):
        try:
            value = parse_size(text)
        except InputFormatError:
            return
        assert isinstance(value, int)


class TestReadEdgeText:
    @SETTINGS
    @given(data=edge_file_bytes)
    def test_yields_pairs_or_raises_input_format_error(self, tmp_path, data):
        path = tmp_path / "edges.txt"
        path.write_bytes(data)
        try:
            edges = list(read_edge_text(path))
        except InputFormatError as exc:
            assert str(exc).startswith(f"{path}:")
            return
        for u, v in edges:
            assert isinstance(u, int) and isinstance(v, int)

    def test_non_ascii_token_names_file_and_line(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_bytes(b"0 1\n1 \xc3\xa9\n")
        with pytest.raises(InputFormatError, match=r"edges\.txt:2: node id"):
            list(read_edge_text(path))


@pytest.mark.parametrize("data", [b"0 1\n1 x\n", b"0 1\n\xff\xfe 2\n", b"7\n"],
                         ids=["token", "non-ascii", "arity"])
def test_cli_prints_one_line_and_exits_2(tmp_path, capsys, data):
    path = tmp_path / "edges.txt"
    path.write_bytes(data)
    assert main(["scc", str(path), "-m", "16K"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: {path}:")
