"""Checks of the benchmark's span arithmetic.

    python3 -m pytest perfbench/test_tracing.py
"""

import numpy as np
import pytest

import tracing


def _tree():
    # A [0, 10] holds B [1, 4] (which holds C [2, 3]) and D [5, 9];
    # E [12, 15] is a second root.
    names = ["A", "B", "C", "D", "E"]
    start = [0.0, 1.0, 2.0, 5.0, 12.0]
    end = [10.0, 4.0, 3.0, 9.0, 15.0]
    parent = [-1, 0, 1, 0, -1]
    return {
        "name_idx": np.arange(5, dtype=np.int32), "start": np.array(start),
        "end": np.array(end), "parent": np.array(parent, dtype=np.int32),
        "op_idx": np.zeros(5, dtype=np.int32), "names": names, "ops": ["op"], "counters": {},
    }


def test_self_times_of_synthetic_tree():
    spans = _tree()
    st = tracing.self_times(spans["start"], spans["end"], spans["parent"])
    assert st.tolist() == [3.0, 2.0, 1.0, 4.0, 3.0]


def test_self_times_and_unattributed_add_up_to_wall():
    spans = _tree()
    windows = [(0.0, 11.0), (11.5, 16.0)]
    totals, self_sum = tracing.layer_totals(spans)
    assert self_sum == 13.0
    assert sum(t["self_s"] for t in totals.values()) == 13.0
    rest = tracing.unattributed(windows, spans["start"], spans["end"], spans["parent"])
    assert rest == 2.5
    assert self_sum + rest == sum(b - a for a, b in windows)


def test_merge_keeps_each_process_tree():
    one, two = _tree(), _tree()
    two["names"] = ["E", "D", "C", "B", "A"]
    two["ops"] = ["other"]
    merged = tracing.merge_spans([one, two])
    assert merged["parent"].tolist() == [-1, 0, 1, 0, -1, -1, 5, 6, 5, -1]
    assert [merged["names"][i] for i in merged["name_idx"]] == list("ABCDE") + list("EDCBA")
    assert [merged["ops"][i] for i in merged["op_idx"]] == ["op"] * 5 + ["other"] * 5
    st = tracing.self_times(merged["start"], merged["end"], merged["parent"])
    assert st.sum() == 26.0


def test_wrapped_calls_nest_and_account_for_their_time():
    tracer = tracing.Tracer()

    def inner(x):
        return sum(range(x))

    traced_inner = tracer.wrap("m.inner", inner)

    def outer(x):
        return traced_inner(x) + traced_inner(x)

    traced_outer = tracer.wrap("m.outer", outer)
    tracer.set_op("op1")
    assert traced_outer(1000) == 2 * sum(range(1000))  # disabled: no spans
    assert len(tracer.start) == 0
    tracer.enabled = True
    traced_outer(1000)
    spans = tracer.arrays()
    assert [spans["names"][i] for i in spans["name_idx"]] == ["m.outer", "m.inner", "m.inner"]
    assert spans["parent"].tolist() == [-1, 0, 0]
    totals, self_sum = tracing.layer_totals(spans)
    assert totals["m.inner"]["calls"] == 2
    root = spans["end"][0] - spans["start"][0]
    assert self_sum == pytest.approx(root, rel=1e-12, abs=1e-15)
    assert all(t["self_s"] >= 0 for t in totals.values())
