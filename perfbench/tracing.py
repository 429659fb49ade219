"""In-memory span tracing around the public functions of the sbmfit modules.

Spans are recorded by wrapping each public module-level function of the
traced modules at every module binding that callers look up at call time
(``sbmfit.experiments.greedy_argmax``, ``sbmfit.search.block_counters``, ...).
Nothing in the package itself changes. Spans live in flat arrays and are
written once, when the traced process ends.
"""

import array
import inspect
import json
import os
import resource
import sys
import time

# numpy is imported inside the functions that need it, so that a traced CLI
# child pays for it inside its own timed import of sbmfit.cli.

TRACED_MODULES = (
    "sampling", "graphs", "modularity", "search", "metrics",
    "experiments", "theory", "io", "cli", "plotting",
)


def rss_mb():
    """High-water resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _graph_bytes(g):
    # Bytes a per-call int64 pass over the graph's arrays touches; for the
    # dense representation this is 8 * n^2.
    return 8 * sum(v.size for v in vars(g).values() if hasattr(v, "dtype"))


def _record_greedy(tracer, args, kwargs, result):
    tracer.count("search.greedy_argmax.sweeps_used", result.sweeps_used)
    tracer.count("search.greedy_argmax.peak_rss_mb", rss_mb())


def _record_block_counters(tracer, args, kwargs, result):
    tracer.count("graphs.block_counters.bytes_computed", _graph_bytes(args[0]))


def _record_sample(tracer, args, kwargs, result):
    tracer.count("sampling.sample.peak_rss_mb", rss_mb())


def _record_read_edge_list(tracer, args, kwargs, result):
    tracer.count("io.read_edge_list.bytes", os.path.getsize(args[0]))


EXIT_HOOKS = {
    "search.greedy_argmax": _record_greedy,
    "graphs.block_counters": _record_block_counters,
    "sampling.sample": _record_sample,
    "io.read_edge_list": _record_read_edge_list,
}


class Tracer:
    """Span recorder: name, start, end, parent span and operation id."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.ops = []
        self._op_ids = {}
        self.name_idx = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.op_idx = array.array("i")
        self.counters = {}
        self.enabled = False
        self.on_enter = {}
        self._stack = []
        self._op = -1

    def set_op(self, op):
        """Tag the spans that follow with the operation id ``op``."""
        op = str(op)
        if op not in self._op_ids:
            self._op_ids[op] = len(self.ops)
            self.ops.append(op)
        self._op = self._op_ids[op]

    def count(self, key, value):
        self.counters.setdefault(key, []).append(value)

    def _intern(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span_begin(self, name):
        idx = len(self.start)
        self.name_idx.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_idx.append(self._op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def span_end(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        hook = EXIT_HOOKS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            enter = tracer.on_enter.get(name)
            if enter is not None:
                enter(tracer, args, kwargs)
            idx = tracer.span_begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.span_end(idx)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every public function of TRACED_MODULES at every sbmfit binding."""
        import importlib

        targets = {f"sbmfit.{m}": m for m in TRACED_MODULES}
        for mod_name in targets:
            importlib.import_module(mod_name)
        wrapped = {}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "sbmfit" or mod_name.startswith("sbmfit.")):
                continue
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                short = targets.get(value.__module__)
                if short is None:
                    continue
                if value not in wrapped:
                    wrapped[value] = self.wrap(f"{short}.{value.__name__}", value)
                setattr(mod, attr, wrapped[value])

    def arrays(self):
        """The recorded spans as numpy arrays plus name and op tables."""
        import numpy as np

        return {
            "name_idx": np.frombuffer(self.name_idx, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op_idx": np.frombuffer(self.op_idx, dtype=np.int32).copy(),
            "names": list(self.names),
            "ops": list(self.ops),
            "counters": {k: list(v) for k, v in self.counters.items()},
        }


def save_spans(path, spans):
    """Write a span record once, as a compressed npz file."""
    import numpy as np

    np.savez_compressed(
        path,
        name_idx=spans["name_idx"], start=spans["start"], end=spans["end"],
        parent=spans["parent"], op_idx=spans["op_idx"],
        meta=np.array(json.dumps({
            "names": spans["names"], "ops": spans["ops"], "counters": spans["counters"],
        })),
    )


def load_spans(path):
    import numpy as np

    with np.load(path) as data:
        meta = json.loads(str(data["meta"]))
        out = {key: data[key] for key in ("name_idx", "start", "end", "parent", "op_idx")}
    out.update(meta)
    return out


def merge_spans(parts):
    """Concatenate span records of several processes, remapping indices."""
    import numpy as np

    counters = {}
    name_ids, op_ids = {}, {}
    cols = {key: [] for key in ("name_idx", "start", "end", "parent", "op_idx")}
    offset = 0
    for part in parts:
        nmap = np.array([name_ids.setdefault(n, len(name_ids)) for n in part["names"]] or [0],
                        dtype=np.int32)
        omap = np.array([op_ids.setdefault(o, len(op_ids)) for o in part["ops"]] or [0],
                        dtype=np.int32)
        parent = np.asarray(part["parent"], dtype=np.int32)
        op_idx = np.asarray(part["op_idx"], dtype=np.int32)
        cols["name_idx"].append(nmap[np.asarray(part["name_idx"], dtype=np.int32)])
        cols["start"].append(np.asarray(part["start"], dtype=np.float64))
        cols["end"].append(np.asarray(part["end"], dtype=np.float64))
        cols["parent"].append(np.where(parent >= 0, parent + offset, -1).astype(np.int32))
        cols["op_idx"].append(np.where(op_idx >= 0, omap[np.maximum(op_idx, 0)], -1)
                              .astype(np.int32))
        for key, values in part["counters"].items():
            counters.setdefault(key, []).extend(values)
        offset += len(parent)
    names = sorted(name_ids, key=name_ids.get)
    ops = sorted(op_ids, key=op_ids.get)
    out = {key: (np.concatenate(v) if v else np.zeros(0)) for key, v in cols.items()}
    out.update(names=names, ops=ops, counters=counters)
    return out


def self_times(start, end, parent):
    """Per-span self time: duration minus the durations of direct children.

    Spans of one process nest strictly (one thread, wrappers are
    call-scoped), so the children of a span never overlap and their summed
    durations equal the time they cover.
    """
    import numpy as np

    dur = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    has = parent >= 0
    covered = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
    return dur - covered


def unattributed(windows, start, end, parent):
    """Time inside operation windows not covered by any top-level span."""
    import numpy as np

    dur = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
    roots = float(dur[np.asarray(parent) < 0].sum())
    return float(sum(b - a for a, b in windows)) - roots


def layer_totals(spans):
    """Calls, total self time and per-call durations for each span name."""
    import numpy as np

    st = self_times(spans["start"], spans["end"], spans["parent"])
    dur = np.asarray(spans["end"]) - np.asarray(spans["start"])
    idx = np.asarray(spans["name_idx"], dtype=np.int64)
    out = {}
    for i, name in enumerate(spans["names"]):
        mask = idx == i
        out[name] = {
            "calls": int(mask.sum()),
            "self_s": float(st[mask].sum()),
            "durations": dur[mask],
        }
    return out, float(st.sum())
