import math

import numpy as np
import pytest

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
