"""The benchmark's own tests: statistics, span arithmetic and checks.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing.connection
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import engine_bench  # noqa: E402
import host  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import serve_bench  # noqa: E402
from spans import Patches, SpanLog, layer_table, union_length  # noqa: E402
from stats import beyond, percentile, tail_rule, timing  # noqa: E402


# ----------------------------------------------------------------------
# the percentile rule
# ----------------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([4, 1, 3, 2], 50) == 2
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize(
    "n, expected",
    [
        (19, None),     # even the median has only 9 samples beyond it
        (20, 50.0),
        (99, 50.0),     # p90 leaves 9
        (100, 90.0),
        (999, 90.0),    # p99 leaves 9
        (1000, 99.0),   # p99 leaves exactly 10
        (9999, 99.0),
        (10000, 99.9),
        (100000, 99.99),
    ],
)
def test_tail_rule_needs_ten_samples_beyond(n, expected):
    assert tail_rule(n) == expected
    if expected is not None:
        assert beyond(n, expected) >= 10


def test_timing_reports_p99_validity_and_count():
    short = timing([0.001] * 999, 1000.0)
    assert short["n"] == 999 and short["p90_valid"] and not short["p99_valid"]
    assert not timing([0.001] * 99)["p90_valid"]
    assert short["tail_p"] == 90.0
    full = timing([i / 1000 for i in range(1000)], 1000.0)
    assert full["p99_valid"] and full["tail_p"] == 99.0
    assert full["p50"] == pytest.approx(499.0)
    assert full["p99"] == pytest.approx(989.0)
    assert full["tail_beyond"] == 10


# ----------------------------------------------------------------------
# self time on nested and overlapping spans
# ----------------------------------------------------------------------


def test_union_length_merges_and_clips():
    assert union_length([], 0, 10) == 0
    assert union_length([(1, 3), (2, 5)], 0, 10) == pytest.approx(4)
    assert union_length([(1, 2), (4, 5)], 0, 10) == pytest.approx(2)
    assert union_length([(-5, 2), (8, 15)], 0, 10) == pytest.approx(4)
    assert union_length([(11, 12)], 0, 10) == 0
    assert union_length([(1, 9), (2, 3), (4, 5)], 0, 10) == pytest.approx(8)


def test_self_time_of_nested_spans():
    log = SpanLog("test")
    root = log.record("root", 0.0, 10.0)
    child = log.record("child", 2.0, 5.0, root)
    log.record("leaf", 3.0, 4.0, child)
    table = layer_table(log)
    assert table["root"]["self_s"] == pytest.approx(7.0)
    assert table["child"]["self_s"] == pytest.approx(2.0)
    assert table["leaf"]["self_s"] == pytest.approx(1.0)
    assert table["root"]["busy_s"] == pytest.approx(10.0)


def test_self_time_of_overlapping_and_overhanging_children():
    log = SpanLog("test")
    request = log.record("request", 0.0, 10.0)
    # Two concurrent children overlap on [4, 6]: covered is 7, not 9.
    log.record("io", 1.0, 6.0, request)
    log.record("io", 4.0, 8.0, request)
    # A child outliving its parent only covers the parent's part.
    other = log.record("request", 20.0, 30.0)
    log.record("io", 28.0, 35.0, other)
    table = layer_table(log)
    assert table["request"]["calls"] == 2
    assert table["request"]["self_s"] == pytest.approx(3.0 + 8.0)
    assert table["io"]["busy_s"] == pytest.approx(5.0 + 4.0 + 7.0)


def test_wrapped_calls_nest_and_count():
    log = SpanLog("test")
    inner = log.wrap("inner", lambda x: x + 1)
    counted = log.counter("calls", lambda: None, within="outer")

    def body(x):
        counted()
        return inner(x) * 2

    outer = log.wrap("outer", body, root=True)
    assert outer(1) == 4 and outer(2) == 6
    counted()  # outside "outer": not counted
    assert log.names == ["outer", "inner", "outer", "inner"]
    assert list(log.parents) == [-1, 0, -1, 2]
    assert log.rids == [0, 0, 1, 1]
    assert log.counts["calls"] == 2
    table = layer_table(log)
    assert 0.0 <= table["outer"]["self_s"] <= table["outer"]["busy_s"]


def test_tallied_calls_are_leaf_rows_without_spans():
    log = SpanLog("test")
    seen: set = set()
    leaf = log.tally("leaf", lambda x, scale=1: x * scale, seen=seen)

    def body():
        return sum(leaf(x, scale=2) for x in (1, 2, 2))

    outer = log.wrap("outer", body, root=True)
    assert outer() == 10
    assert log.names == ["outer"]  # no span per tallied call
    assert seen == {1, 2}
    table = layer_table(log)
    assert table["leaf"]["calls"] == 3
    assert table["leaf"]["self_s"] == table["leaf"]["busy_s"] >= 0.0
    # The tallied time stays inside the caller's self time.
    assert table["outer"]["self_s"] == pytest.approx(table["outer"]["busy_s"])


def test_host_speed_scales_to_the_reference_chunk():
    reference = host.REFERENCE_CHUNK_S
    assert host.HostSpeed().factor() == 1.0
    slow = host.HostSpeed([2 * reference, 2 * reference])
    assert slow.factor() == pytest.approx(0.5)
    assert timing([0.010], slow.factor())["p50"] == pytest.approx(0.005)
    # Set-up times are scaled one by one, by the sample after each.
    each = host.HostSpeed([reference, 2 * reference, reference / 2])
    assert each.scale_each([0.010, 0.010, 0.010]) == pytest.approx([0.010, 0.005, 0.020])
    with pytest.raises(ValueError):
        each.scale_each([0.010])
    sampled = host.HostSpeed()
    sampled.sample()
    assert len(sampled.chunks) == 1
    assert sampled.spent_s >= sampled.chunks[0] > 0.0


def test_patches_undo_every_kind_of_owner():
    class Thing:
        def method(self):
            return "class"

    thing = Thing()
    module = type(sys)("fake_module")
    module.function = lambda: "module"
    with Patches() as patches:
        patches.wrap(Thing, "method", lambda fn: lambda self: "patched " + fn(self))
        patches.wrap(thing, "method", lambda fn: lambda: "instance " + fn())
        patches.wrap(module, "function", lambda fn: lambda: "patched " + fn())
        assert thing.method() == "instance patched class"
        assert Thing().method() == "patched class"
        assert module.function() == "patched module"
    assert thing.method() == "class" and "method" not in vars(thing)
    assert module.function() == "module"


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------


def _summary():
    from repro.simulation.engine import RunSummary

    return RunSummary(
        steps=192, first_ts=100.0, last_ts=200.0, measurements=31360,
        flows=104242, peak_demand_gbps={"eu": 4200.0},
        unique_ips={"Apple": 120}, offload_share=0.25, overflow_share=0.01,
    )


def test_perturbed_summary_fails_the_digest_check():
    summary = _summary()
    pinned = engine_bench.summary_digest(summary)
    window = engine_bench.Window(digest=engine_bench.summary_digest(replace(summary)))
    assert engine_bench._window_ok(window, pinned)
    for perturbed in (
        replace(summary, flows=summary.flows + 1),
        replace(summary, offload_share=summary.offload_share + 1e-5),
        replace(summary, unique_ips={"Apple": 121}),
    ):
        window.digest = engine_bench.summary_digest(perturbed)
        assert not engine_bench._window_ok(window, pinned)
    # A window that raised, or a workload with nothing pinned, fails too.
    assert not engine_bench._window_ok(
        engine_bench.Window(digest=pinned, error="boom"), pinned
    )
    assert not engine_bench._window_ok(window, None)


def test_every_engine_workload_has_a_pinned_digest():
    pinned = json.loads(engine_bench.DIGESTS.read_text())
    assert set(pinned) == set(engine_bench.WORKLOADS)
    assert all(len(digest) == 64 for digest in pinned.values())


class _FakeDns:
    """A stub resolver: A records, a dead-end chain, or a refusal."""

    def __init__(self, outcome: str) -> None:
        self.outcome = outcome
        self.queries_sent = self.timeouts = self.tcp_fallbacks = 0
        self.hedged_queries = 0

    async def resolve(self, name, client):
        from repro.dns.records import ARecord, CnameRecord
        from repro.net.ipv4 import IPv4Address
        from repro.serve import DnsClientError, WireResolution

        self.queries_sent += 1
        if self.outcome == "refused":
            raise DnsClientError(f"{name!r} answered REFUSED")
        step = (
            (ARecord(name, IPv4Address.parse("17.253.1.1"), 15),)
            if self.outcome == "a" else (CnameRecord(name, "x.example", 15),)
        )
        return WireResolution(question_name=name, steps=(step,))


class _FakeHttp:
    def __init__(self, status: int, length: int) -> None:
        self.status, self.length = status, length

    async def get(self, path, host, vip, client, range_bytes=None):
        return self.status, {}, self.length


def _generator(dns_outcome: str, status: int = 206, length: int = 65536):
    generator = object.__new__(serve_bench._Generator)
    from repro.serve import ClientDirectory

    generator.directory = ClientDirectory.from_adoption()
    generator.salt, generator.seed = "test", 0
    generator.entry = "appldnld.apple.com"
    generator.next_seq, generator.log = 0, None
    generator.bench_gone = lambda: False
    generator.auth = generator.public = _FakeDns(dns_outcome)
    generator.http = _FakeHttp(status, length)
    return generator


@pytest.mark.parametrize(
    "dns_outcome, status, length, failed",
    [
        ("a", 206, 65536, 0),
        ("refused", 206, 65536, 12),   # refused resolution
        ("cname", 206, 65536, 12),     # chain without A records
        ("a", 503, 0, 12),             # refused download
        ("a", 200, 65536, 12),         # range ignored
        ("a", 206, 65535, 12),         # short body
    ],
)
def test_failed_or_refused_requests_count_against_error_rate(
    dns_outcome, status, length, failed
):
    generator = _generator(dns_outcome, status, length)
    load = asyncio.run(generator.phase(0.0, False, 12))
    assert load["attempted"] == 12
    assert load["failed"] == failed
    assert len(load["req_s"]) == 12 - failed
    result = {
        "workload": "serve-mixed", "trace": 0, "attempted": load["attempted"],
        "failed": load["failed"], "metrics": {},
    }
    result["correct"] = result["failed"] == 0
    line = json.loads(run.contract_line([result]))
    assert line["failed"] == failed and line["correct"] is (failed == 0)


def test_helper_processes_and_resource_tracker_end_with_the_run():
    processes = serve_bench._Processes()
    # The child waits until the bench closes its end of the pipe.
    processes.start(multiprocessing.connection.Connection.poll, None)
    (child, _), = processes.started
    tracker = serve_bench.resource_tracker._resource_tracker._pid
    assert tracker is not None
    processes.close()
    assert child.exitcode == 0
    assert serve_bench.resource_tracker._resource_tracker._pid is None
    assert not Path(f"/proc/{tracker}").exists()


# ----------------------------------------------------------------------
# the contract line
# ----------------------------------------------------------------------


def test_contract_line_has_exactly_the_listed_metrics():
    result = {"workload": "engine-release", "trace": 0, "attempted": 3,
              "failed": 0, "correct": True, "metrics": {"setup_s": 0.5}}
    line = json.loads(run.contract_line([result]))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == list(metrics.END_TO_END)
    assert line["metrics"]["setup_s"] == {"value": 0.5, "unit": "s"}
