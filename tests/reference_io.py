"""Reference readers and writer: the per-line int() parsers and the
list-join edge-list writer that sbmfit.io replaced.

Each content line is split and parsed with int(), one at a time. On
files whose fields are ASCII decimal integers that fit in int64, or
that hold a malformed line, a correct read_edge_list and read_labeling
return the same values, or raise the same exception type, as these.
Outside that set the two differ by design: int() also accepts
underscores and non-ASCII digits, and ends in OverflowError on a value
beyond int64. The writer's bytes are write_edge_list's for every graph.
"""

import warnings

import numpy as np

from sbmfit.errors import ParameterError
from sbmfit.graphs import Graph, Labeling
from sbmfit.io import _content_lines


def reference_read_edge_list(path, header=True):
    rows = []
    for line in _content_lines(path):
        try:
            i, j = map(int, line.split())
        except ValueError:
            raise ParameterError(f"malformed line in {path!r}: {line!r}") from None
        rows.append((i, j))
    if not rows:
        raise ParameterError(f"empty edge list file {path!r}")

    if header:
        n, k = rows[0]
        edge_rows = rows[1:]
        if not 0 <= k <= n or any(max(i, j) > n for i, j in edge_rows):
            raise ParameterError(f"{path!r} does not start with a header for its edges")
    else:
        n = max(max(i, j) for i, j in rows)
        k = 0
        edge_rows = rows
    try:
        g = Graph.from_edges(n, np.asarray(edge_rows, dtype=np.int64) - 1)
    except ValueError as exc:
        raise ParameterError(f"invalid graph in {path!r}: {exc}") from exc
    duplicates = len(edge_rows) - g.edge_count
    if duplicates:
        warnings.warn(f"{path!r}: merged {duplicates} duplicate edges", stacklevel=2)
    return g, (k if k > 0 else None)


def reference_read_labeling(path, k=None):
    labels = []
    for line in _content_lines(path):
        try:
            labels.append(int(line) - 1)
        except ValueError:
            raise ParameterError(f"malformed line in {path!r}: {line!r}") from None
    if not labels:
        raise ParameterError(f"empty labeling file {path!r}")
    arr = np.asarray(labels, dtype=np.int64)
    if k is None:
        k = int(arr.max()) + 1
    try:
        return Labeling(arr, k)
    except ValueError as exc:
        raise ParameterError(f"invalid labeling in {path!r}: {exc}") from exc


def reference_write_edge_list(path, g, k=0):
    lines = [f"{g.n} {k}"]
    for i, j in g.edges():
        lines.append(f"{i + 1} {j + 1}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
