"""Text file formats: edge lists, labeling files and model parameter files.

Edge list: a header line ``n k``, then one ``i j`` pair per line,
whitespace separated and 1-based; a file without the header is read with
header=False (``fit --no-header``). Labeling file: one 1-based integer label
per line. Ids and labels are decimal integers that fit in int64. Parameter
file: flat ``key = value`` lines (see read_params), read by the same reader
as the CLI's --config files.
"""

import itertools
import math
import warnings

import numpy as np

from .errors import ParameterError
from .graphs import Graph, Labeling, _entry_rows

RHO_MODES = ("const", "log_n_over_n", "one_over_n")
PARAM_KEYS = ("k", "pi", "S", "rho", "rho_mode", "c")


def _content_lines(path):
    """The stripped lines of a text file, without blank and '#' comment lines."""
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                yield line


def _read_int_rows(path, columns, what):
    """The content lines of a file as an int64 array of shape (lines, columns).

    ParameterError when the file has no content line, when a field is not
    a decimal integer that fits in int64, or when a line has another
    number of fields. The lines reach np.loadtxt as a stream, so no list of
    them is kept.
    """
    lines = _content_lines(path)
    try:
        first = next(lines, None)
        if first is None:
            raise ParameterError(f"empty {what} file {path!r}")
        try:
            rows = np.loadtxt(itertools.chain((first,), lines), dtype=np.int64, comments=None,
                              ndmin=2)
        except (ValueError, OverflowError) as exc:
            raise ParameterError(f"malformed {what} file {path!r}: {exc}") from None
    finally:
        lines.close()
    if rows.shape[1] != columns:
        raise ParameterError(f"malformed {what} file {path!r}: "
                             f"{rows.shape[1]} fields per line, expected {columns}")
    return rows


def write_edge_list(path, g, k=0):
    """Write a graph as a header line ``n k``, then one sorted 1-based edge per line.

    When the community count is unknown, k=0 is written in the header. The
    edges are read off the CSR arrays 2^14 stored entries at a time, so no
    Python object per edge outlives its chunk.
    """
    with open(path, "w") as fh:
        fh.write(f"{g.n} {k}\n")
        for lo, hi, rows in _entry_rows(g.indptr, g.indices.size):
            src, dst = rows + 1, g.indices[lo:hi] + 1
            upper = src < dst
            fh.write("".join([f"{i} {j}\n" for i, j in zip(src[upper].tolist(),
                                                            dst[upper].tolist())]))


def read_edge_list(path, header=True):
    """Read an edge list, returning (Graph, k or None).

    With header=True, the format write_edge_list writes, the first line is
    the header ``n k``; ParameterError unless 0 <= k <= n and no id exceeds
    n. A file without a header must be read with header=False, which takes
    n to be the largest id. A header's k = 0 reads as None.

    A pair listed more than once, in either orientation, is kept as one
    edge, and one UserWarning reports how many duplicates were merged.
    """
    rows = _read_int_rows(path, 2, "edge list")
    if header:
        n, k = rows[0].tolist()
        edge_rows = rows[1:]
        top = int(edge_rows.max()) if len(edge_rows) else 0
        if not 0 <= k <= n or top > n:
            raise ParameterError(
                f"{path!r} does not start with a header 'n k' for its edges: n={n}, k={k}, "
                f"largest id {top}; read a file without one with --no-header (header=False)")
    else:
        n = int(rows.max())
        k = 0
        edge_rows = rows
    edge_rows -= 1  # 0-based, in place: n, k and the largest id are already read
    try:
        g = Graph.from_edges(n, edge_rows)
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
    arr = _read_int_rows(path, 1, "labeling")[:, 0] - 1
    if k is None:
        k = int(arr.max()) + 1
    try:
        return Labeling(arr, k)
    except ValueError as exc:
        raise ParameterError(f"invalid labeling in {path!r}: {exc}") from exc


def resolve_rho(mode, n, c=1.0, rho=None):
    """Turn a sparsity mode into a numeric rho for a given network size.

    Modes: const (rho given directly), log_n_over_n (c*log(n)/n),
    one_over_n (c/n). The constant c defaults to 1. ParameterError for
    n < 1 in the modes that divide by n.
    """
    if mode == "const":
        if rho is None:
            raise ParameterError("rho_mode=const requires an explicit rho value")
        return float(rho)
    if mode in RHO_MODES and n < 1:
        raise ParameterError(f"rho_mode={mode} needs n >= 1, got n={n}")
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


def _key_values(path, keys, what):
    """The ``key = value`` lines of a file, as a dict from key name to value.

    keys maps each accepted spelling of a key to its name; what names a
    key in messages. ParameterError for a line without '=', for a key
    outside keys, and for a name given twice: only S, one row of the rate
    matrix per line, may repeat, and its value is the list of its rows.
    """
    entries = {}
    for line in _content_lines(path):
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq:
            raise ParameterError(f"line {line!r} is not 'key = value'")
        if key not in keys:
            raise ParameterError(f"unknown {what} {key!r}")
        name = keys[key]
        if name == "S":
            entries.setdefault(name, []).append(value)
        elif name in entries:
            raise ParameterError(f"{what} {key!r} is set twice")
        else:
            entries[name] = value
    return entries


def read_rates(path):
    """Read just (k, pi, S) from a parameter file, ignoring sparsity keys.

    ParameterError for a key outside PARAM_KEYS, a key other than S given
    twice, and the rates that SbmParams refuses.
    """
    from .sampling import _check_rates

    entries = _key_values(path, {key: key for key in PARAM_KEYS}, "parameter key")
    if "k" not in entries:
        raise ParameterError("parameter file must set k")
    k = _number(int, "k", entries["k"])
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    pi = _numbers("pi", entries["pi"]) if "pi" in entries else np.full(k, 1.0 / k)
    s_rows = [_numbers("S", row) for row in entries.get("S", [])]
    if len(s_rows) != k or any(len(row) != k for row in s_rows):
        shape = [len(row) for row in s_rows]
        raise ParameterError(f"expected {k} rows of S with {k} entries, got row lengths {shape}")
    return (k, *_check_rates(k, pi, s_rows), entries)


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
