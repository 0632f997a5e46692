"""Tests of the benchmark's own code: generator, span arithmetic, metric names.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import io
import json
import re
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import lobgen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def benchmark() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_generator_is_deterministic_per_seed(tmp_path):
    a = lobgen.make_day(3, 1, "2024-01-03", 500)
    b = lobgen.make_day(3, 1, "2024-01-03", 500)
    c = lobgen.make_day(4, 1, "2024-01-03", 500)
    for field in ("timestamps", "book", "messages", "keep"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    assert not np.array_equal(a.book, c.book)
    for sub, day in (("a", a), ("b", b)):
        (tmp_path / sub).mkdir()
        lobgen.write_day(tmp_path / sub, "SYN", day)
    for name in ("SYN_2024-01-03_orderbook_10.csv", "SYN_2024-01-03_message_10.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_generator_drops_the_stated_share():
    day = lobgen.make_day(0, 0, "2024-01-02", 1000)
    assert lobgen.drop_counts(1000) == {"before_window": 40, "after_window": 40,
                                        "crossed": 10, "zero_best": 10}
    assert day.keep.sum() == 900
    book = day.book
    crossed = book[:, 0] <= book[:, 2]
    zero_best = (book[:, 1] == 0) | (book[:, 3] == 0)
    assert crossed.sum() == 10 and zero_best.sum() == 10
    assert not np.any(day.keep & (crossed | zero_best))
    assert np.all(np.diff(day.timestamps) >= 0)


def test_oracle_matches_program_cleaning(tmp_path):
    from hloblab import lob
    day = lobgen.make_day(5, 2, "2024-01-04", 400)
    lobgen.write_day(tmp_path, "SYN", day)
    parsed = lob.parse_lobster_pair(
        (tmp_path / "SYN_2024-01-04_orderbook_10.csv").read_text().splitlines(),
        (tmp_path / "SYN_2024-01-04_message_10.csv").read_text().splitlines(),
        lob.StockMeta("SYN"), day="2024-01-04")
    cleaned = lob.clean_session(parsed)
    cleaned.validate()
    assert np.array_equal(cleaned.book, day.book[day.keep])
    assert np.array_equal(cleaned.timestamps, day.timestamps[day.keep])


def test_self_times_subtract_direct_children():
    S = tracing.Span
    spans = [S("root", 0.0, 10.0, -1, "r"), S("a", 1.0, 4.0, 0, "r"),
             S("b", 5.0, 9.0, 0, "r"), S("a", 6.0, 7.0, 2, "r")]
    assert tracing.self_times(spans) == [3.0, 3.0, 3.0, 1.0]
    agg = tracing.totals(spans)
    assert agg["a"] == {"calls": 2, "total": 4.0, "self": 4.0}
    assert agg["root"]["self"] == 3.0
    assert tracing.overlap(spans, {"a"}, [(0.0, 2.0), (6.5, 20.0)]) == 1.5


def test_backward_closures_belong_to_the_outermost_op():
    from hloblab import engine
    originals = (engine.dense, engine.Tensor.backward, engine.Tensor.__init__)
    tracer = tracing.Tracer("t")
    instr = tracing.Instrumentation(tracer)
    instr.install()
    try:
        x = engine.Tensor(np.ones((2, 3)))
        w = engine.Tensor(np.ones((4, 3)), requires_grad=True)
        b = engine.Tensor(np.zeros(4), requires_grad=True)
        loss = engine.softmax_cross_entropy(engine.dense(x, w, b), np.array([0, 1]))
        loss.backward()
    finally:
        instr.uninstall()
    assert (engine.dense, engine.Tensor.backward, engine.Tensor.__init__) == originals
    names = {s.name for s in tracer.spans}
    assert {"engine.dense.fwd", "engine.dense.bwd", "engine.backward",
            "engine.softmax_cross_entropy.bwd"} <= names
    assert not any(n.startswith(("engine.matmul", "engine.add", "engine.transpose"))
                   for n in names)
    # loss, add, matmul, transpose and the leaves x, w, b
    assert tracer.samples["engine.tape_nodes"] == [7]
    for s in tracer.spans:
        if s.name.endswith(".bwd"):
            assert tracer.spans[s.parent].name == "engine.backward"


def test_metric_names_and_units_are_well_formed():
    bench = benchmark()
    groups = (bench["end_to_end"], bench["per_layer"], bench["workloads"])
    names = [m["name"] for group in groups for m in group]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m


def test_reported_metrics_match_the_declared_ones():
    bench = benchmark()
    tracer = tracing.Tracer("t")
    layers = tracing.layer_metrics(tracer, tracing.Instrumentation(tracer), 1)
    layers.update({"train.val_loss": (1.0, "nats"), "trace.overhead_ratio": (1.0, "ratio")})
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert {k: u for k, (_, u) in layers.items()} == declared

    class Args:
        workload, seed, seconds, trace = "desk-data", 1, 1.0, 0
    setup = {"setup_times": [1.0, 2.0, 3.0], "attempted": 0, "failed": 0}
    measure = {"pass_times": [2.0], "items_per_pass": 10, "item": "events",
               "peak_rss_mb": 5.0, "attempted": 3, "failed": 0, "problems": [],
               "val_loss": 0.0, "env": {"python": "", "numpy": "", "blas": {},
                                        "blas_threads": "1", "nproc": 1}}
    out = io.StringIO()
    with redirect_stdout(out):
        run.report(Args, setup, measure)
    result = json.loads(out.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert result["metrics"]["setup_s"]["value"] == 2.0
    assert result["metrics"]["items_per_s"]["value"] == 5.0


def test_workloads_are_declared():
    assert [w["name"] for w in benchmark()["workloads"]] == list(workloads.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
