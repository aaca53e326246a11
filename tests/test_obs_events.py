"""Live telemetry bus: event schema, heartbeats, stall/retry, robustness.

Covers the ``repro.obs.events`` v1 contract (schema validity, per-emitter
``seq`` monotonicity, the golden event-stream pin for a serial sweep), the
sweep engine's straggler machinery (``REPRO_POINT_HANG`` → ``stall`` →
``retry`` → completion, timeout exhaustion → errored-not-lost), worker
heartbeat liveness under ``jobs=2``, crashed-worker replacement, and the
``obs tail`` / ``obs events-check`` CLI surface.

Golden re-pin after an intentional event-shape change::

    REPRO_BLESS=1 PYTHONPATH=src python -m pytest tests/test_obs_events.py
"""

import json
import multiprocessing
import os
import pathlib
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro import obs
from repro.cli import main
from repro.explore.engine import (
    POINT_HANG_ENV,
    _point_hangs,
    _run_parallel,
    _SweepMonitor,
    parallel_map,
    run_sweep,
)
from repro.explore.io import sweep_to_json_obj
from repro.explore.spec import SweepPoint, SweepSpec

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden" / "obs"

_SPEC = SweepSpec(designs=("x2",), methods=("fa_aot", "wallace"))


def _pool_works() -> bool:
    """True when this platform can actually spawn worker processes."""
    try:
        with ProcessPoolExecutor(max_workers=1) as pool:
            return pool.submit(abs, -1).result(timeout=60) == 1
    except Exception:
        return False


needs_pool = pytest.mark.skipif(
    not _pool_works(), reason="platform cannot run process pools"
)


def _evented_sweep(**kwargs):
    """Run the tiny fixed sweep under an in-memory bus; return (sweep, events)."""
    bus = obs.EventBus()
    events = []
    bus.subscribe(events.append)
    with obs.eventing(bus):
        sweep = run_sweep(_SPEC, **kwargs)
    return sweep, events


class TestEventSchema:
    def test_emitted_event_is_valid(self):
        bus = obs.EventBus()
        event = bus.emit("heartbeat", elapsed_s=1.5, point="x2/fa_aot/cla")
        assert obs.validate_event_obj(event) == []
        assert event["schema"] == obs.EVENT_SCHEMA
        assert event["schema_version"] == obs.EVENT_SCHEMA_VERSION
        assert event["pid"] == os.getpid()

    def test_every_kind_validates(self):
        bus = obs.EventBus()
        for kind in obs.EVENT_KINDS:
            assert obs.validate_event_obj(bus.emit(kind)) == []

    def test_broken_events_are_flagged(self):
        assert obs.validate_event_obj([]) != []
        assert any(
            "kind" in p for p in obs.validate_event_obj(
                {"schema": obs.EVENT_SCHEMA, "schema_version": 1, "ts": 1.0,
                 "run_id": "abc", "pid": 1, "seq": 0, "kind": "nope",
                 "attrs": {}}
            )
        )
        assert any("seq" in p for p in obs.validate_event_obj(
            {"schema": obs.EVENT_SCHEMA, "schema_version": 1, "ts": 1.0,
             "run_id": "abc", "pid": 1, "seq": -4, "kind": "heartbeat",
             "attrs": {}}
        ))

    def test_seq_is_monotone_per_emitter(self):
        bus = obs.EventBus()
        events = [bus.emit("heartbeat") for _ in range(5)]
        assert [e["seq"] for e in events] == list(range(5))
        assert obs.check_event_stream(events) == []

    def test_stream_check_catches_seq_regression(self):
        bus = obs.EventBus()
        events = [bus.emit("heartbeat"), bus.emit("heartbeat")]
        events.append(dict(events[0]))  # replayed seq 0
        problems = obs.check_event_stream(events)
        assert any("monotone" in p for p in problems)

    def test_stream_check_catches_seq_gap(self):
        bus = obs.EventBus()
        events = [bus.emit("heartbeat") for _ in range(4)]
        del events[2]  # a lost write: seq advanced but nothing recorded
        problems = obs.check_event_stream(events)
        assert any("gap" in p and "lost 1 event" in p for p in problems)

    def test_stream_check_requires_kinds(self):
        bus = obs.EventBus()
        events = [bus.emit("heartbeat")]
        problems = obs.check_event_stream(events, require=["stall", "retry"])
        assert len(problems) == 2
        assert obs.check_event_stream(events, require=["heartbeat"]) == []

    def test_nonscalar_attrs_are_coerced(self):
        bus = obs.EventBus()
        event = bus.emit("run_start", benches=("a", "b"), obj=object())
        assert event["attrs"]["benches"] == ["a", "b"]
        assert isinstance(event["attrs"]["obj"], str)
        json.dumps(event)  # must be serializable


class TestEventBus:
    def test_file_stream_round_trips(self, tmp_path):
        path = tmp_path / "events.jsonl"
        bus = obs.EventBus(path=path)
        bus.emit("run_start", command="test")
        bus.emit("run_end", status="ok")
        bus.close()
        events, problems = obs.load_events(path)
        assert problems == []
        assert [e["kind"] for e in events] == ["run_start", "run_end"]
        assert obs.check_event_stream(events) == []

    def test_corrupt_lines_become_problems_not_exceptions(self, tmp_path):
        path = tmp_path / "events.jsonl"
        bus = obs.EventBus(path=path)
        bus.emit("run_start")
        bus.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"torn": ')
        events, problems = obs.load_events(path)
        assert len(events) == 1
        assert len(problems) == 1 and "line 2" in problems[0]

    def test_subscriber_errors_are_swallowed(self):
        bus = obs.EventBus()
        seen = []

        def broken(_event):
            raise RuntimeError("renderer bug")

        bus.subscribe(broken)
        bus.subscribe(seen.append)
        bus.emit("heartbeat")
        assert len(seen) == 1  # later subscribers still ran

    def test_summary_counts_and_peak_rss(self):
        bus = obs.EventBus()
        bus.emit("stall")
        bus.emit("retry")
        bus.emit("resource", rss_bytes=123456)
        summary = bus.summary()
        assert summary["stalls"] == 1 and summary["retries"] == 1
        assert summary["events"] == 3
        assert summary["peak_rss_bytes"] == 123456

    def test_publish_keeps_a_forwarded_event_unchanged(self, tmp_path):
        worker_bus = obs.EventBus(run_id="r1")
        forwarded = [worker_bus.emit("heartbeat") for _ in range(2)]
        forwarded = [dict(event, pid=4242) for event in forwarded]
        bus = obs.EventBus(path=tmp_path / "events.jsonl", run_id="r1")
        seen = []
        bus.subscribe(seen.append)
        bus.emit("run_start")
        for event in forwarded:
            bus.publish(event)
        bus.close()
        events, problems = obs.load_events(tmp_path / "events.jsonl")
        assert problems == [] and events == seen
        assert [(e["pid"], e["seq"]) for e in events[1:]] == [(4242, 0), (4242, 1)]
        assert bus.counts == {"run_start": 1, "heartbeat": 2}
        assert obs.check_event_stream(events) == []

    def test_emit_event_is_noop_without_bus(self):
        assert obs.current_bus() is None
        assert obs.emit_event("heartbeat") is None

    def test_eventing_installs_and_restores(self):
        bus = obs.EventBus()
        with obs.eventing(bus):
            assert obs.current_bus() is bus
            assert obs.emit_event("heartbeat")["kind"] == "heartbeat"
        assert obs.current_bus() is None
        with obs.eventing(None):
            assert obs.current_bus() is None


class TestResourceGauges:
    def test_sample_has_the_gauge_fields(self):
        sample = obs.sample_resources()
        assert set(sample) == {"rss_bytes", "peak_rss_bytes", "cpu_s"}
        assert sample["cpu_s"] >= 0.0
        # on Linux both must resolve; elsewhere rss may fall back to peak
        if os.path.exists("/proc/self/statm"):
            assert sample["rss_bytes"] > 0

    def test_sampler_emits_resource_events(self):
        import time as _time

        bus = obs.EventBus()
        sampler = obs.ResourceSampler(bus, interval=0.02).start()
        deadline = _time.time() + 2.0
        while bus.counts.get("resource", 0) < 2 and _time.time() < deadline:
            _time.sleep(0.02)
        sampler.stop()
        assert bus.counts.get("resource", 0) >= 2


class TestGoldenEventStream:
    def test_serial_sweep_event_stream_is_pinned(self):
        _sweep, events = _evented_sweep(heartbeat_s=0)
        deterministic = [
            {
                "kind": event["kind"],
                "attrs": {
                    key: event["attrs"][key]
                    for key in ("index", "point", "attempt", "total", "cached", "ok")
                    if key in event["attrs"]
                },
            }
            for event in events
            if event["kind"] in ("point_start", "point_end", "stall", "retry")
        ]
        content = "".join(
            json.dumps(entry, sort_keys=True) + "\n" for entry in deterministic
        )
        path = GOLDEN_DIR / "events_stream.jsonl"
        if os.environ.get("REPRO_BLESS"):
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(content, encoding="utf-8")
        assert path.exists(), (
            f"missing golden file {path}; regenerate with REPRO_BLESS=1"
        )
        assert content == path.read_text(encoding="utf-8"), (
            "serial sweep event stream drifted; regenerate with REPRO_BLESS=1 "
            "if the change is intentional"
        )

    def test_stream_is_schema_valid(self):
        _sweep, events = _evented_sweep(heartbeat_s=0)
        assert obs.check_event_stream(events) == []


class TestSweepTelemetry:
    def test_unmonitored_sweep_has_no_events_summary(self):
        sweep = run_sweep(_SPEC)
        assert sweep.events_summary is None
        assert "events_summary" not in sweep_to_json_obj(sweep)

    def test_evented_sweep_has_events_summary(self):
        sweep, _events = _evented_sweep(heartbeat_s=0)
        summary = sweep.events_summary
        assert summary is not None
        assert summary["cache_hits"] == 0 and summary["cache_misses"] == 2
        assert summary["stalls"] == 0 and summary["retries"] == 0
        assert 0.0 < summary["worker_utilization"] <= 1.0
        assert sweep_to_json_obj(sweep)["events_summary"] == summary

    def test_summary_line_reports_hits_and_fresh_separately(self, tmp_path):
        cache = tmp_path / "cache"
        first = run_sweep(_SPEC, cache=cache)
        assert "0 cached / 2 fresh" in first.summary()
        second = run_sweep(_SPEC, cache=cache)
        assert "2 cached / 0 fresh" in second.summary()
        assert second.cache_hits == 2 and second.cache_misses == 0

    def test_cached_points_emit_cached_events(self, tmp_path):
        cache = tmp_path / "cache"
        run_sweep(_SPEC, cache=cache)
        bus = obs.EventBus()
        events = []
        bus.subscribe(events.append)
        with obs.eventing(bus):
            sweep = run_sweep(_SPEC, cache=cache, heartbeat_s=0)
        assert sweep.cache_hits == 2
        ends = [e for e in events if e["kind"] == "point_end"]
        assert len(ends) == 2 and all(e["attrs"]["cached"] for e in ends)
        assert sweep.events_summary["cache_hits"] == 2

    def test_serial_heartbeats_flow_through_parent_bus(self, monkeypatch):
        monkeypatch.setenv(POINT_HANG_ENV, "0=0.3")
        sweep, events = _evented_sweep(heartbeat_s=0.05)
        assert sweep.ok
        beats = [e for e in events if e["kind"] == "heartbeat"]
        assert beats, "serial hung point produced no heartbeats"
        assert all(e["pid"] == os.getpid() for e in beats)


class TestPointHangParsing:
    def test_parses_entries(self, monkeypatch):
        monkeypatch.setenv(POINT_HANG_ENV, "0=1.5, 3=0.25")
        assert _point_hangs() == {0: 1.5, 3: 0.25}

    def test_malformed_entries_ignored(self, monkeypatch):
        monkeypatch.setenv(POINT_HANG_ENV, "garbage,1=2.0,=3")
        assert _point_hangs() == {1: 2.0}

    def test_unset_means_empty(self, monkeypatch):
        monkeypatch.delenv(POINT_HANG_ENV, raising=False)
        assert _point_hangs() == {}


@needs_pool
class TestParallelTelemetry:
    def test_worker_heartbeats_reach_the_shared_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv(POINT_HANG_ENV, "0=0.4,1=0.4")
        path = tmp_path / "events.jsonl"
        bus = obs.EventBus(path=path)
        with obs.eventing(bus):
            sweep = run_sweep(_SPEC, jobs=2, heartbeat_s=0.05)
        bus.close()
        assert sweep.ok
        events, problems = obs.load_events(path)
        assert problems == []
        assert obs.check_event_stream(events) == []
        beats = [e for e in events if e["kind"] == "heartbeat"]
        if not sweep.used_fallback:
            worker_pids = {e["pid"] for e in beats}
            assert beats and all(pid != os.getpid() for pid in worker_pids)
            resources = [e for e in events if e["kind"] == "resource"]
            assert resources, "heartbeating workers emitted no resource gauges"

    def test_worker_events_reach_an_in_memory_bus(self, monkeypatch):
        """Worker heartbeats ride the pipe, so a bus without a file (``--live``
        alone) sees them too, with the workers' own pids and seq streams."""
        monkeypatch.setenv(POINT_HANG_ENV, "0=0.4,1=0.4")
        sweep, events = _evented_sweep(jobs=2, heartbeat_s=0.05)
        assert sweep.ok
        if sweep.used_fallback:
            pytest.skip("pool fell back to serial; no worker processes")
        assert obs.check_event_stream(events) == []
        for kind in ("heartbeat", "resource"):
            pids = {e["pid"] for e in events if e["kind"] == kind}
            assert pids - {os.getpid()}, f"no {kind} event from a worker"

    def test_worker_pipe_keeps_events_and_results_whole(self):
        """A worker thread sends large events while the main thread sends
        its result up the same pipe: every message must arrive whole, and
        every worker's stream in order."""
        points = [SweepPoint(design="x2", method="fa_aot")] * 32
        bus = obs.EventBus()
        events = []
        bus.subscribe(events.append)
        got = {}
        with obs.eventing(bus):
            used_fallback = _run_parallel(
                _chatty_worker,
                list(enumerate(range(32))),
                4,
                got.__setitem__,
                _SweepMonitor(points, bus),
            )
        assert not used_fallback
        assert got == {i: (i, None, 0.0, {"pad": "y" * 20000}) for i in range(32)}
        assert obs.check_event_stream(events) == []
        beats = [e for e in events if e["kind"] == "heartbeat"]
        assert beats and all(len(e["attrs"]["pad"]) == 20000 for e in beats)

    def test_hang_produces_stall_retry_and_completion(self, monkeypatch):
        monkeypatch.setenv(POINT_HANG_ENV, "0=5")
        bus = obs.EventBus()
        events = []
        bus.subscribe(events.append)
        with obs.eventing(bus):
            sweep = run_sweep(_SPEC, jobs=2, point_timeout=0.75, heartbeat_s=0)
        if sweep.used_fallback:
            pytest.skip("pool fell back to serial; no straggler machinery")
        assert sweep.ok, [o.error for o in sweep.failures]
        assert len(sweep.outcomes) == 2  # every point accounted for
        kinds = [e["kind"] for e in events]
        assert "stall" in kinds and "retry" in kinds
        assert obs.check_event_stream(events, require=["stall", "retry"]) == []
        assert sweep.events_summary["retries"] == 1
        assert sweep.events_summary["timeouts"] == 1
        retry = next(e for e in events if e["kind"] == "retry")
        assert retry["attrs"]["reason"] == "timeout"
        assert retry["attrs"]["index"] == 0

    def test_exhausted_retries_record_error_not_hang(self, monkeypatch):
        monkeypatch.setenv(POINT_HANG_ENV, "0=30")
        import time as _time

        start = _time.perf_counter()
        bus = obs.EventBus()
        with obs.eventing(bus):
            sweep = run_sweep(
                _SPEC, jobs=2, point_timeout=0.5, max_retries=0, heartbeat_s=0
            )
        wall = _time.perf_counter() - start
        if sweep.used_fallback:
            pytest.skip("pool fell back to serial; no straggler machinery")
        assert wall < 20, "abandoning a hung worker must not wait it out"
        assert len(sweep.outcomes) == 2
        assert len(sweep.failures) == 1
        assert "point_timeout" in sweep.failures[0].error
        assert sweep.events_summary["timeouts"] == 1
        assert sweep.events_summary["retries"] == 0
        assert multiprocessing.active_children() == [], "hung worker outlived the sweep"


def _crash_once_worker(item):
    value, marker_dir = item
    marker = os.path.join(marker_dir, f"crashed-{value}")
    if value == 3 and not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(1)  # hard worker death: EOF on its pipe in the parent
    return value * 10


def _chatty_worker(item, attempt=0, hang_s=0.0):
    bus = obs.current_bus()

    def chatter():
        for _ in range(50):  # 20 kB messages: each send is several writes
            bus.emit("heartbeat", item=item, pad="x" * 20000)

    threading.Thread(target=chatter, daemon=True).start()
    return (item, None, 0.0, {"pad": "y" * 20000})


def _always_crash_worker(item, attempt=0, hang_s=0.0):
    if item == 1:
        os._exit(1)
    return (item, None, 0.01, None)


def _raising_worker(item, attempt=0, hang_s=0.0):
    raise ValueError(f"item {item}")  # kills a worker process


def _slow_or_crash_worker(item, attempt=0, hang_s=0.0):
    if item == 1:
        os._exit(1)
    time.sleep(0.4)  # keep healthy siblings in flight across the break
    return (item, None, 0.4, None)


@needs_pool
class TestCrashedWorkerRecovery:
    def test_parallel_map_survives_one_crash(self, tmp_path):
        items = [(value, str(tmp_path)) for value in range(6)]
        results, used_fallback = parallel_map(_crash_once_worker, items, jobs=2)
        assert results == [0, 10, 20, 30, 40, 50]
        assert not used_fallback, "one crash should replace the worker, not fall back"

    def test_always_crashing_item_raises_in_the_parent(self, tmp_path, fresh_interpreter):
        """An item that keeps killing its worker is never re-run in-process:
        parallel_map raises instead of letting it kill the caller."""
        (tmp_path / "crashy.py").write_text(
            "import os\n"
            "def exit_on_one(item):\n"
            "    if item == 1:\n"
            "        os._exit(7)\n"
            "    return item\n"
        )
        report = fresh_interpreter(
            "import json, sys\n"
            f"sys.path.insert(0, {str(tmp_path)!r})\n"
            "from crashy import exit_on_one\n"
            "from repro.explore.engine import parallel_map\n"
            "try:\n"
            "    parallel_map(exit_on_one, [0, 1, 2, 3], jobs=2)\n"
            "    error = None\n"
            "except RuntimeError as exc:\n"
            "    error = str(exc)\n"
            "print(json.dumps({'error': error}))\n"
        )
        assert report["error"] is not None and "item 1" in report["error"]

    def test_repeated_crash_records_error_result(self):
        points = [
            SweepPoint(design="x2", method="fa_aot"),
            SweepPoint(design="x2", method="wallace"),
        ]
        bus = obs.EventBus()
        events = []
        bus.subscribe(events.append)
        monitor = _SweepMonitor(points, bus)
        got = {}
        used_fallback = _run_parallel(
            _always_crash_worker,
            list(enumerate([0, 1])),
            2,
            lambda index, raw: got.__setitem__(index, raw),
            monitor,
        )
        assert not used_fallback
        assert got[0] == (0, None, 0.01, None)
        metrics, error, _elapsed, _telemetry = got[1]
        assert metrics is None and "crashed" in error
        retries = [e["attrs"]["reason"] for e in events if e["kind"] == "retry"]
        assert "worker-crash" in retries
        assert monitor.crashes[1] == 2
        # the healthy sibling never accumulates crash strikes of its own
        assert monitor.crashes.get(0, 0) == 0

    def test_crasher_never_reruns_in_process_when_no_worker_starts(
        self, monkeypatch
    ):
        """When crashed workers cannot be replaced, the serial fallback
        must not re-run their items in the parent."""
        from repro.explore import engine

        def start_at_most_two(start=engine._start_worker):
            started = []

            def limited(worker):
                if len(started) == 2:
                    raise OSError("cannot start another process")
                started.append(worker)
                return start(worker)

            return limited

        monkeypatch.setattr(engine, "_start_worker", start_at_most_two())
        with pytest.raises(RuntimeError, match="running item"):
            parallel_map(_raising_worker, [0, 1], jobs=2)
        monkeypatch.setattr(engine, "_start_worker", start_at_most_two())
        points = [
            SweepPoint(design="x2", method="fa_aot"),
            SweepPoint(design="x2", method="wallace"),
        ]
        got = {}
        used_fallback = _run_parallel(
            _raising_worker,
            list(enumerate([0, 1])),
            2,
            lambda index, raw: got.__setitem__(index, raw),
            _SweepMonitor(points, bus=None),
        )
        assert used_fallback
        assert sorted(got) == [0, 1]
        assert all("crashed" in got[index][1] for index in got)

    def test_crash_strikes_never_hit_coresident_siblings(self):
        """A doubly-crashing point must not error out, retry or re-run the
        healthy points in flight beside it: each crash is charged to the
        crasher alone."""
        points = [
            SweepPoint(design="x2", method="fa_aot"),
            SweepPoint(design="x2", method="wallace"),
            SweepPoint(design="x2", method="cla"),
        ]
        bus = obs.EventBus()
        events = []
        bus.subscribe(events.append)
        monitor = _SweepMonitor(points, bus=bus, point_timeout=30.0)
        got = {}
        used_fallback = _run_parallel(
            _slow_or_crash_worker,
            list(enumerate([0, 1, 2])),
            3,
            lambda index, raw: got.__setitem__(index, raw),
            monitor,
        )
        assert not used_fallback
        assert got[0] == (0, None, 0.4, None)
        assert got[2] == (2, None, 0.4, None)
        metrics, error, _elapsed, _telemetry = got[1]
        assert metrics is None and "crashed" in error
        assert monitor.crashes.get(0, 0) == 0
        assert monitor.crashes.get(2, 0) == 0
        assert monitor.crashes[1] == 2
        retries = [
            (e["attrs"]["index"], e["attrs"]["reason"])
            for e in events
            if e["kind"] == "retry"
        ]
        assert retries == [(1, "worker-crash")]
        starts = [e["attrs"]["index"] for e in events if e["kind"] == "point_start"]
        assert starts == [0, 1, 2, 1]


class TestEventsCli:
    def _make_stream(self, tmp_path):
        path = tmp_path / "events.jsonl"
        bus = obs.EventBus(path=path)
        bus.emit("run_start", command="test")
        bus.emit("stall", index=0, point="x2/fa_aot/cla")
        bus.emit("retry", index=0, reason="timeout")
        bus.emit("run_end", status="ok")
        bus.close()
        return path

    def test_events_check_passes_valid_stream(self, tmp_path, capsys):
        path = self._make_stream(tmp_path)
        code = main(
            ["obs", "events-check", str(path), "--require", "stall,retry"]
        )
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_events_check_fails_on_missing_kind(self, tmp_path, capsys):
        path = self._make_stream(tmp_path)
        code = main(["obs", "events-check", str(path), "--require", "heartbeat"])
        assert code == 1
        assert "heartbeat" in capsys.readouterr().out

    def test_events_check_fails_on_corrupt_stream(self, tmp_path, capsys):
        path = self._make_stream(tmp_path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("not json\n")
        assert main(["obs", "events-check", str(path)]) == 1

    def test_tail_pretty_prints(self, tmp_path, capsys):
        path = self._make_stream(tmp_path)
        assert main(["obs", "tail", str(path)]) == 0
        out = capsys.readouterr().out
        assert "stall" in out and "reason=timeout" in out

    def test_tail_kind_filter(self, tmp_path, capsys):
        path = self._make_stream(tmp_path)
        assert main(["obs", "tail", str(path), "--kinds", "retry"]) == 0
        out = capsys.readouterr().out
        assert "retry" in out and "run_start" not in out

    def test_explore_events_flag_writes_stream(self, tmp_path, capsys):
        events_dir = tmp_path / "ev"
        code = main([
            "explore", "--designs", "x2", "--methods", "fa_aot",
            "--events", str(events_dir),
        ])
        assert code == 0
        events, problems = obs.load_events(events_dir / "events.jsonl")
        assert problems == []
        kinds = [e["kind"] for e in events]
        assert kinds[0] == "run_start" and kinds[-1] == "run_end"
        assert "point_end" in kinds
        assert obs.check_event_stream(events) == []

    def test_check_trace_tool_validates_events(self, tmp_path, capsys):
        import sys

        sys.path.insert(0, str(pathlib.Path(__file__).parents[1] / "tools"))
        try:
            import check_trace
        finally:
            sys.path.pop(0)
        path = self._make_stream(tmp_path)
        assert check_trace.main(["--events", str(path)]) == 0
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"schema": "wrong"}\n')
        assert check_trace.main(["--events", str(path)]) == 1


class TestProgressRenderer:
    def _drive(self, renderer, bus):
        bus.subscribe(renderer.handle)
        bus.emit("point_start", index=0, point="a", attempt=0, total=2, cached=False)
        bus.emit("point_end", index=0, point="a", attempt=0, ok=True,
                 cached=False, elapsed_s=0.5)
        bus.emit("point_start", index=1, point="b", attempt=0, total=2, cached=False)
        bus.emit("stall", index=1, point="b", attempt=0)
        bus.emit("point_end", index=1, point="b", attempt=0, ok=False,
                 cached=False, elapsed_s=2.0)

    def test_folds_events_into_state(self):
        import io

        stream = io.StringIO()
        renderer = obs.ProgressRenderer(stream=stream, live=True)
        bus = obs.EventBus()
        self._drive(renderer, bus)
        assert renderer.done == 2 and renderer.ok == 1 and renderer.failed == 1
        assert renderer.stalls == 1
        assert renderer.median_s() == pytest.approx(1.25)
        line = renderer.status_line()
        assert "[2/2]" in line and "stalls=1" in line
        assert "\r" in stream.getvalue()

    def test_run_end_prints_summary_table(self):
        import io

        stream = io.StringIO()
        renderer = obs.ProgressRenderer(stream=stream, live=True)
        bus = obs.EventBus()
        self._drive(renderer, bus)
        bus.emit("run_end", status="ok")
        text = stream.getvalue()
        assert "live telemetry" in text
        assert "stalls" in text
