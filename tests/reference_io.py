"""Reference readers: the per-line int() parsers that sbmfit.io replaced.

Each content line is split and parsed with int(), one at a time. On
files whose fields are ASCII decimal integers that fit in int64, or
that hold a malformed line, a correct read_edge_list and read_labeling
return the same values, or raise the same exception type, as these.
Outside that set the two differ by design: int() also accepts
underscores and non-ASCII digits, and ends in OverflowError on a value
beyond int64.
"""

import warnings

import numpy as np

from sbmfit.errors import ParameterError
from sbmfit.graphs import Graph, Labeling
from sbmfit.io import _content_lines


def reference_read_edge_list(path, header="auto"):
    rows = []
    for line in _content_lines(path):
        try:
            i, j = map(int, line.split())
        except ValueError:
            raise ParameterError(f"malformed line in {path!r}: {line!r}") from None
        rows.append((i, j))
    if not rows:
        raise ParameterError(f"empty edge list file {path!r}")

    if header == "auto":
        first = rows[0]
        rest_max = max((max(i, j) for i, j in rows[1:]), default=0)
        header = first[0] == first[1] or (first[0] >= rest_max and first[1] <= first[0])
    if header:
        n, k = rows[0]
        edge_rows = rows[1:]
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
