import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sbmfit import Graph, Labeling, ParameterError, SbmParams
from sbmfit.io import (
    read_edge_list,
    read_labeling,
    read_params,
    read_rates,
    resolve_rho,
    write_edge_list,
    write_labeling,
)

from conftest import random_graph, random_labeling, write_params
from reference_io import reference_read_edge_list, reference_read_labeling


class TestEdgeList:
    def test_round_trip(self, rng, tmp_path):
        g = random_graph(rng, 17, p=0.3)
        path = tmp_path / "g.txt"
        write_edge_list(path, g, k=3)
        g2, k = read_edge_list(path)
        assert k == 3
        assert g2.n == g.n
        assert g2.edges() == g.edges()

    def test_one_based_in_files(self, tmp_path):
        path = tmp_path / "g.txt"
        write_edge_list(path, Graph.from_edges(3, [(0, 2)]), k=1)
        text = path.read_text().splitlines()
        assert text[0] == "3 1"
        assert text[1] == "1 3"

    def test_headerless(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1 2\n2 3\n")
        g, k = read_edge_list(path, header=False)
        assert g.n == 3 and k is None
        assert g.edges() == [(0, 1), (1, 2)]

    def test_auto_header_detection(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("5 2\n1 2\n4 5\n")
        g, k = read_edge_list(path)
        assert g.n == 5 and k == 2
        assert g.edge_count == 2

    def test_empty_graph_with_header(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("4 2\n")
        g, k = read_edge_list(path)
        assert g.n == 4 and g.edge_count == 0

    def test_duplicates_merged_with_one_warning(self, tmp_path):
        path = tmp_path / "dups.txt"
        path.write_text("1 2\n2 1\n1 2\n")
        with pytest.warns(UserWarning, match="merged 2 duplicate edges") as record:
            g, k = read_edge_list(path)
        assert len(record) == 1 and "dups.txt" in str(record[0].message)
        assert g.n == 2 and g.edge_count == 1 and k is None

    def test_rejects_self_loop_and_node_zero(self, tmp_path):
        path = tmp_path / "g.txt"
        for text in ("3 0\n1 2\n2 2\n", "3 0\n0 1\n"):
            path.write_text(text)
            with pytest.raises(ParameterError):
                read_edge_list(path)

    def test_malformed(self, tmp_path):
        path = tmp_path / "g.txt"
        for text in ("1 2 3\n", "1 b\n", "1.5 2\n", "# only a comment\n"):
            path.write_text(text)
            with pytest.raises(ParameterError):
                read_edge_list(path)


class TestLabelingFile:
    def test_round_trip(self, rng, tmp_path):
        z = random_labeling(rng, 12, 3)
        path = tmp_path / "z.txt"
        write_labeling(path, z)
        z2 = read_labeling(path, k=3)
        assert np.array_equal(z.labels, z2.labels)

    def test_one_based(self, tmp_path):
        path = tmp_path / "z.txt"
        write_labeling(path, Labeling([0, 2, 1], 3))
        assert path.read_text().split() == ["1", "3", "2"]
        z = read_labeling(path)
        assert z.k == 3

    @pytest.mark.parametrize("text", ["", "1\nx\n", "1\n0\n"])
    def test_bad_file(self, tmp_path, text):
        path = tmp_path / "z.txt"
        path.write_text(text)
        with pytest.raises(ParameterError):
            read_labeling(path)


# Files of ASCII decimal fields that fit in int64: an optional header,
# whitespace around and between fields, blank and comment lines, repeated
# lines, and now and then a malformed line or an id out of range.
_SEP = st.sampled_from([" ", "\t", "  ", " \t "])
_PAD = st.sampled_from(["", " ", "\t"])
# Ids 1-29, and now and then a sign or leading zeros.
_ID = st.integers(1, 31).map(lambda i: {30: "+3", 31: "007"}.get(i, str(i)))
_JUNK = st.one_of(
    st.lists(st.one_of(_ID, st.sampled_from(["0", "-1", "-0", "x", "1.5", "1e1", "#", "0x1"])),
             min_size=1, max_size=3).map(" ".join),
    st.sampled_from(["1 2 # x", "3 4 5"]),
)
_BLANK = st.sampled_from(["", "   ", "\t", "# comment", "  # indented", "#1 2"])


def _line(fields):
    return st.builds(lambda lead, sep, ids, trail: lead + sep.join(ids) + trail,
                     _PAD, _SEP, st.lists(_ID, min_size=fields, max_size=fields), _PAD)


def _text(fields, headers=("",)):
    line = st.integers(0, 9).flatmap(lambda r: (_JUNK, _BLANK)[r] if r < 2 else _line(fields))
    return st.builds(lambda head, lines: head + "".join(x + "\n" for x in lines + lines[:3]),
                     st.sampled_from(headers), st.lists(line, max_size=8))


def _outcome(read):
    """What read() returns, or its exception type, plus its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = read()
        except Exception as exc:  # the exception type is the outcome
            value = type(exc)
    return value, [str(w.message) for w in caught]


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("readers") / "input.txt"


class TestReadersAgainstReference:
    """np.loadtxt readers against the per-line int() parsers they replaced."""

    @settings(max_examples=300, deadline=None)
    @given(text=_text(2, ("", "", "30 2\n", "30 0\n", "# n k\n31 3\n")),
           header=st.sampled_from(["auto", "auto", True, False]))
    def test_edge_list(self, scratch_file, text, header):
        scratch_file.write_text(text)

        def graph(reader):
            g, k = reader(scratch_file, header)
            return type(g.n), g.n, g.edges(), type(k), k

        assert (_outcome(lambda: graph(read_edge_list))
                == _outcome(lambda: graph(reference_read_edge_list)))

    @settings(max_examples=200, deadline=None)
    @given(text=_text(1), k=st.one_of(st.none(), st.integers(1, 40)))
    def test_labeling(self, scratch_file, text, k):
        scratch_file.write_text(text)

        def labeling(reader):
            z = reader(scratch_file, k)
            return z.labels.tolist(), type(z.k), z.k

        assert (_outcome(lambda: labeling(read_labeling))
                == _outcome(lambda: labeling(reference_read_labeling)))


class TestParamsFile:
    def test_round_trip(self, tmp_path):
        params = SbmParams(
            k=2, pi=np.array([0.4, 0.6]), s=np.array([[5.0, 1.0], [1.0, 5.0]]), rho=0.02
        )
        path = tmp_path / "p.txt"
        write_params(path, params)
        back = read_params(path)
        assert back.k == 2
        assert np.array_equal(back.pi, params.pi)
        assert np.array_equal(back.s, params.s)
        assert back.rho == params.rho

    def test_rho_modes(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("k = 2\npi = 0.5, 0.5\nS = 4, 1\nS = 1, 4\nrho_mode = log_n_over_n\n")
        params = read_params(path, n=100)
        assert params.rho == pytest.approx(math.log(100) / 100)
        path.write_text("k = 2\npi = 0.5, 0.5\nS = 4, 1\nS = 1, 4\nrho_mode = one_over_n\nc = 2\n")
        assert read_params(path, n=100).rho == pytest.approx(0.02)

    def test_mode_requires_n(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("k = 2\nS = 4, 1\nS = 1, 4\nrho_mode = log_n_over_n\n")
        with pytest.raises(ParameterError):
            read_params(path)

    def test_default_balanced_pi(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("k = 2\nS = 4, 1\nS = 1, 4\nrho = 0.05\n")
        params = read_params(path)
        assert np.allclose(params.pi, [0.5, 0.5])

    def test_read_rates_ignores_rho(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("k = 2\nS = 9, 1\nS = 1, 9\n")
        k, pi, s, _ = read_rates(path)
        assert k == 2 and s[0, 0] == 9.0

    @pytest.mark.parametrize("text", [
        "k = 2\nS = 4, one\nS = 1, 4\n",
        "k = 2.5\nS = 4, 1\nS = 1, 4\n",
        "k = 0\nS = 4\n",
        "k = 2\npi = 0.2, 0.3, 0.5\nS = 4, 1\nS = 1, 4\n",
        "k = 2\nS = 4, 1\nS = 1\n",
        "k = 2\nS = 4, 1\n",
        "k = 2\nS = 4, 1\nS = 1, 4\nrho = high\n",
    ])
    def test_malformed_values(self, tmp_path, text):
        path = tmp_path / "p.txt"
        path.write_text(text)
        with pytest.raises(ParameterError):
            read_params(path)

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("pi = 0.5, 0.5\n")
        with pytest.raises(ParameterError):
            read_params(path)


def test_resolve_rho_errors():
    with pytest.raises(ParameterError):
        resolve_rho("const", 10)
    with pytest.raises(ParameterError):
        resolve_rho("bogus", 10)
    assert resolve_rho("const", 10, rho=0.1) == 0.1
