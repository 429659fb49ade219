"""Text file formats: edge lists, labeling files and model parameter files.

Edge list: optional header line ``n k``, then one ``i j`` pair per line,
whitespace separated and 1-based. Labeling file: one 1-based integer label
per line. Parameter file: flat ``key = value`` lines (see read_params).
"""

import math
import warnings

import numpy as np

from .errors import ParameterError
from .graphs import Graph, Labeling

RHO_MODES = ("const", "log_n_over_n", "one_over_n")


def write_edge_list(path, g, k=0, header=True):
    """Write a graph as a 1-based edge list, one edge per line, sorted.

    When the community count is unknown, k=0 is written in the header.
    """
    lines = []
    if header:
        lines.append(f"{g.n} {k}")
    for i, j in g.edges():
        lines.append(f"{i + 1} {j + 1}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_edge_list(path, header="auto"):
    """Read an edge list, returning (Graph, k or None).

    header may be True, False or "auto". In auto mode the first line is
    treated as a header when reading it as an edge is impossible (a
    self-loop) or when its first field is an upper bound for every node
    index in the file. Ambiguous files should pass header explicitly.

    A pair listed more than once, in either orientation, is kept as one
    edge, and one UserWarning reports how many duplicates were merged.
    """
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
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


def write_labeling(path, z):
    """Write one 1-based label per line."""
    with open(path, "w") as fh:
        fh.write("\n".join(str(int(lab) + 1) for lab in z.labels) + "\n")


def read_labeling(path, k=None):
    """Read a labeling file; k defaults to the largest label seen."""
    labels = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
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


def resolve_rho(mode, n, c=1.0, rho=None):
    """Turn a sparsity mode into a numeric rho for a given network size.

    Modes: const (rho given directly), log_n_over_n (c*log(n)/n),
    one_over_n (c/n). The constant c defaults to 1.
    """
    if mode == "const":
        if rho is None:
            raise ParameterError("rho_mode=const requires an explicit rho value")
        return float(rho)
    if mode == "log_n_over_n":
        return c * math.log(n) / n
    if mode == "one_over_n":
        return c / n
    raise ParameterError(f"unknown rho mode {mode!r}; expected one of {RHO_MODES}")


def _number(convert, key, text):
    try:
        return convert(text)
    except ValueError:
        raise ParameterError(f"parameter {key} must be a number, got {text!r}") from None


def _numbers(key, text):
    return [_number(float, key, v) for v in text.replace(",", " ").split()]


def read_rates(path):
    """Read just (k, pi, S) from a parameter file, ignoring sparsity keys."""
    entries = {}
    s_rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParameterError(f"malformed parameter line: {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key == "S":
                s_rows.append(_numbers("S", value))
            else:
                entries[key] = value

    if "k" not in entries:
        raise ParameterError("parameter file must set k")
    k = _number(int, "k", entries["k"])
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if "pi" in entries:
        pi = np.array(_numbers("pi", entries["pi"]))
        if pi.size != k:
            raise ParameterError(f"pi must have k={k} entries, got {pi.size}")
    else:
        pi = np.full(k, 1.0 / k)
    if not s_rows:
        raise ParameterError("parameter file must contain k rows of S")
    if len(s_rows) != k or any(len(row) != k for row in s_rows):
        shape = [len(row) for row in s_rows]
        raise ParameterError(f"expected {k} rows of S with {k} entries, got row lengths {shape}")
    s = np.array(s_rows, dtype=float)
    return k, pi, s, entries


def read_params(path, n=None):
    """Read a flat key=value parameter file and build SbmParams.

    Recognized keys: k, pi (comma list), S (repeated key, one row per line),
    rho, rho_mode, c. When rho_mode is not "const" the network size n must
    be supplied to resolve rho.
    """
    from .sampling import SbmParams

    k, pi, s, entries = read_rates(path)
    mode = entries.get("rho_mode", "const")
    c = _number(float, "c", entries.get("c", "1.0"))
    rho = _number(float, "rho", entries["rho"]) if "rho" in entries else None
    if mode != "const" and n is None:
        raise ParameterError(f"rho_mode={mode} requires a network size to resolve rho")
    rho_value = resolve_rho(mode, n, c=c, rho=rho)
    return SbmParams(k=k, pi=pi, s=s, rho=rho_value)


def write_params(path, params):
    """Write SbmParams in the flat key=value format."""
    lines = [f"k = {params.k}", "pi = " + ", ".join(repr(float(x)) for x in params.pi)]
    for row in params.s:
        lines.append("S = " + ", ".join(repr(float(x)) for x in row))
    lines.append(f"rho = {params.rho!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
