"""Sweep execution engine: points in, metric records out.

The engine turns a :class:`~repro.explore.spec.SweepSpec` (or an explicit
point list) into :class:`PointOutcome` records:

* cached points are answered from the :class:`~repro.explore.cache.ResultCache`
  without synthesizing anything;
* the remaining points run through :func:`execute_point` either serially or
  on ``jobs`` worker processes (``jobs > 1``), falling back to serial
  execution when the platform cannot start worker processes;
* a point that raises is captured as a per-point error record instead of
  aborting the sweep.

Workers receive only the (picklable) :class:`SweepPoint` and return only the
metric dict, so no netlist ever crosses a process boundary.

:func:`execute_point` is also the single-point execution path that
:func:`repro.flows.compare.compare_methods` runs on, which keeps the paper's
table harnesses and ad-hoc sweeps on the same code path.

The worker machinery itself is exposed as :func:`parallel_map`, a generic
fan-out over any picklable worker function with the same serial-fallback
semantics — this is what the verification subsystem (:mod:`repro.verify`)
runs its fuzz cases and metamorphic checks on.  Each worker process holds
at most one item on its own pipe, so a worker that dies (EOF) is charged
with exactly that item: a fresh worker replaces it and the item is
re-dispatched while its siblings run on.  A second crash of the same item
is final — an error record in sweeps, ``RuntimeError`` from
:func:`parallel_map` — and never re-runs the item in the parent process.

Observability: when a :mod:`repro.obs` tracer is active in the parent,
every point runs under its own child tracer (in the worker process for
parallel sweeps) and ships its spans back with the metric record; the
parent adopts them, so one ``--trace`` file renders the whole sweep as a
merged multi-process timeline.  When an :class:`repro.obs.EventBus` is
active (``--events`` / ``--live``), the dispatcher additionally streams
``point_start``/``point_end``/``stall``/``retry`` events.  Each worker
then has a bus of its own that sends every event up the worker's pipe:
a daemon heartbeat thread's ``heartbeat``/``resource`` gauges and one
closing ``resource`` event per point travel with the results, and the
dispatcher publishes them on its bus, the only writer of the JSONL
stream.  The dispatcher also watches in-flight points: one exceeding
``stall_factor x`` the rolling median is flagged as a straggler, and one
exceeding the hard ``point_timeout`` is killed, re-dispatched up to
``max_retries`` times, then recorded as errored — a hung worker can no
longer hang the sweep.  ``REPRO_POINT_HANG`` plants
such a hang for tests and CI, symmetric to ``REPRO_STAGE_DELAY``.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import statistics
import threading
import time
from collections import deque
from dataclasses import dataclass
from functools import partial
from multiprocessing.connection import Connection, wait
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro import obs
from repro.api import stages
from repro.api.flow import Flow
from repro.api.result import FlowResult
from repro.designs.base import DatapathDesign
from repro.explore.cache import ResultCache
from repro.explore.spec import SweepPoint, SweepSpec
from repro.obs.logbridge import get_logger
from repro.tech.library import TechLibrary

log = get_logger("explore")

# the stages import their backends on first use; loading them all here, at
# module load and so before any worker forks, lets every worker inherit them
# instead of paying the imports again on each cold sweep
stages.import_backends()

#: fault-injection hook symmetric to ``REPRO_STAGE_DELAY``:
#: ``"<point-index>=<seconds>[,...]"`` makes the *first* attempt of the
#: indexed sweep point sleep before synthesizing — a planted transient
#: straggler, so stall detection and timeout re-dispatch are testable.
#: The retry attempt skips the sleep and completes.  Malformed entries
#: are ignored with a warning.
POINT_HANG_ENV = "REPRO_POINT_HANG"

#: a point whose worker process crashes this many times is recorded as an
#: error result instead of being re-dispatched again
_MAX_CRASHES_PER_POINT = 2


def _point_hangs() -> Dict[int, float]:
    """Parse :data:`POINT_HANG_ENV` into ``{point_index: seconds}``."""
    raw = os.environ.get(POINT_HANG_ENV)
    if not raw:
        return {}
    hangs: Dict[int, float] = {}
    for part in raw.split(","):
        index, _, seconds = part.partition("=")
        try:
            hangs[int(index.strip())] = float(seconds)
        except ValueError:
            log.warning("ignoring malformed %s entry %r", POINT_HANG_ENV, part)
    return hangs


def execute_point(
    point: SweepPoint,
    design: Optional[DatapathDesign] = None,
    library: Optional[TechLibrary] = None,
) -> FlowResult:
    """Synthesize one sweep point, returning the full result.

    The point's cache-relevant fields *are* a :class:`repro.api.FlowConfig`
    (see ``SweepPoint.config()``), so this is just one staged
    :class:`repro.api.Flow` run.  ``design`` / ``library`` may be passed to
    reuse already-built objects (the comparison harness does); otherwise
    they are rebuilt from the point's registry names, which is what worker
    processes do.
    """
    flow = Flow(point.config())
    return flow.run(design if design is not None else point.design, library=library)


def _run_one(
    point: SweepPoint,
    attempt: int = 0,
    hang_s: float = 0.0,
    trace: bool = False,
    heartbeat_s: float = 0.0,
) -> Tuple[Optional[Dict], Optional[str], float, Optional[Dict]]:
    """Worker body: (metrics, error, elapsed_s, telemetry). Never raises.

    With ``trace=True`` the point runs under its own :class:`repro.obs`
    tracer (this is the trace context propagated across the process boundary)
    and the picklable telemetry dict carries the serialized spans and
    counters back to the parent, which adopts them into its tracer.

    Events go to :func:`repro.obs.current_bus`: the parent's bus in serial
    sweeps, the worker's pipe-forwarding bus in worker processes.  While
    the point runs, a daemon thread emits ``heartbeat``/``resource``
    events every ``heartbeat_s`` seconds — a hung-but-alive worker keeps
    beating, which is exactly how the stream distinguishes *stuck* from
    *dead* — and the point ends with one ``resource`` event.
    """
    start = time.perf_counter()
    bus = obs.current_bus()
    tracer = obs.Tracer() if trace else None
    telemetry: Optional[Dict] = None
    try:
        with obs.point_heartbeat(
            bus, heartbeat_s, point=point.label(), attempt=attempt
        ):
            if hang_s > 0 and attempt == 0:
                # planted transient straggler (REPRO_POINT_HANG): first
                # attempt only, so the re-dispatched attempt completes
                time.sleep(hang_s)
            with obs.tracing(tracer):
                with obs.span("explore.point", point=point.label()):
                    metrics = execute_point(point).to_dict()
        error = None
    except Exception as exc:  # per-point capture is the whole point
        metrics, error = None, f"{type(exc).__name__}: {exc}"
    if tracer is not None:
        telemetry = {"spans": tracer.to_dicts(), "counters": dict(tracer.counters)}
    elapsed = time.perf_counter() - start
    if bus is not None:
        bus.emit("resource", elapsed_s=round(elapsed, 6), **obs.sample_resources())
    return metrics, error, elapsed, telemetry


@dataclass
class PointOutcome:
    """What happened to one sweep point."""

    point: SweepPoint
    metrics: Optional[Dict[str, object]] = None
    error: Optional[str] = None
    cached: bool = False
    elapsed_s: float = 0.0
    #: spans recorded while executing this point (traced runs only)
    spans: Optional[List[Dict[str, object]]] = None

    @property
    def ok(self) -> bool:
        """True when the point produced metrics (fresh or cached)."""
        return self.metrics is not None

    def span_summary(self) -> Optional[Dict[str, Dict[str, object]]]:
        """Per-name span aggregate of this point (``None`` when untraced)."""
        if self.spans is None:
            return None
        return obs.aggregate_spans(self.spans)

    def to_dict(self) -> Dict[str, object]:
        """JSON-able record: one per sweep point in the artifacts.

        The ``span_summary`` key appears only on traced runs, so untraced
        artifacts (and the golden files pinned against them) are unchanged.
        """
        record = {
            "point": self.point.to_dict(),
            "ok": self.ok,
            "cached": self.cached,
            "elapsed_s": round(self.elapsed_s, 6),
            "metrics": self.metrics,
            "error": self.error,
        }
        if self.spans is not None:
            record["span_summary"] = self.span_summary()
        return record


@dataclass
class SweepResult:
    """All outcomes of one sweep run, in spec expansion order."""

    outcomes: List[PointOutcome]
    jobs: int = 1
    cache_hits: int = 0
    cache_misses: int = 0
    used_fallback: bool = False
    elapsed_s: float = 0.0
    #: telemetry roll-up (stalls, retries, peak RSS, worker utilization);
    #: only set on monitored runs (active event bus or point timeout), so
    #: plain runs' artifacts stay byte-identical
    events_summary: Optional[Dict[str, object]] = None

    @property
    def records(self) -> List[Dict[str, object]]:
        """Metric dicts of the successful points (cached ones included)."""
        return [o.metrics for o in self.outcomes if o.metrics is not None]

    @property
    def failures(self) -> List[PointOutcome]:
        """Outcomes whose synthesis raised."""
        return [o for o in self.outcomes if not o.ok]

    @property
    def ok(self) -> bool:
        """True when every point succeeded."""
        return not self.failures

    def span_summary(self) -> Dict[str, Dict[str, object]]:
        """Merged span aggregate over every traced point (empty if untraced)."""
        from repro.explore.records import merge_span_summaries

        return merge_span_summaries(o.span_summary() for o in self.outcomes)

    def summary(self) -> str:
        """One-line sweep summary for logs and the CLI.

        Cache hits and fresh computations are reported separately — a
        sweep that was 100% cached and one that recomputed everything are
        very different runs even though both "finished N points".
        """
        parts = [
            f"{len(self.outcomes)} points",
            f"{len(self.failures)} failed",
            f"{self.cache_hits} cached / {self.cache_misses} fresh",
            f"jobs={self.jobs}",
            f"{self.elapsed_s:.2f}s",
        ]
        if self.events_summary:
            stalls = self.events_summary.get("stalls", 0)
            retries = self.events_summary.get("retries", 0)
            if stalls or retries:
                parts.append(f"stalls={stalls} retries={retries}")
        if self.used_fallback:
            parts.append("serial-fallback")
        return "sweep: " + ", ".join(parts)


ProgressFn = Callable[[PointOutcome, int, int], None]

#: a picklable worker: one task in, one result out; must capture its own
#: exceptions and encode failures in its result (a raising worker kills its
#: process and is handled as a crashed worker: a fresh worker is started and
#: the item re-dispatched, and a second crash on it is final)
Worker = Callable[[object], object]


class _SweepMonitor:
    """Dispatcher-side telemetry + straggler policy for one sweep.

    Owns everything :func:`_run_parallel` must not know about sweeps:
    per-point attempt counts (which feed the ``REPRO_POINT_HANG``
    first-attempt-only semantics), the rolling median of fresh point
    times (stall threshold and ETA source), stall/timeout/retry/crash
    accounting, and the ``point_*`` event emission on the active bus.
    A monitor with no bus and no timeout is inert: every hook degrades
    to a counter update, and the dispatcher blocks on results instead of
    waking up every :attr:`tick_s`.
    """

    #: dispatcher wake-up period while scanning in-flight points
    tick_s = 0.05
    #: never flag a stall below this, whatever the median says
    stall_floor_s = 0.2

    def __init__(
        self,
        points: Sequence[SweepPoint],
        bus,
        point_timeout: Optional[float] = None,
        stall_factor: Optional[float] = 4.0,
        max_retries: int = 1,
    ) -> None:
        self.points = points
        self.bus = bus
        self.point_timeout = point_timeout
        self.stall_factor = stall_factor
        self.max_retries = max(0, int(max_retries))
        self.hangs = _point_hangs()
        self.attempts: Dict[int, int] = {}
        self.durations: List[float] = []
        self.crashes: Dict[int, int] = {}
        self.stalls = 0
        self.retries = 0
        self.timeouts = 0
        self._stall_flagged: Set[Tuple[int, int]] = set()

    # -- configuration ------------------------------------------------

    @property
    def active(self) -> bool:
        """True when this run should produce an ``events_summary``."""
        return self.bus is not None or self.point_timeout is not None

    def submit_args(self, index: int) -> Tuple[int, float]:
        """Extra ``_run_one`` arguments: (attempt, planted hang seconds)."""
        return (self.attempts.get(index, 0), self.hangs.get(index, 0.0))

    def _label(self, index: int) -> str:
        return self.points[index].label()

    def _emit(self, kind: str, **attrs) -> None:
        if self.bus is not None:
            self.bus.emit(kind, **attrs)

    # -- dispatcher hooks ---------------------------------------------

    def on_start(self, index: int) -> None:
        self._emit(
            "point_start",
            index=index,
            point=self._label(index),
            attempt=self.attempts.get(index, 0),
            total=len(self.points),
            cached=False,
        )

    def on_cached(self, index: int) -> None:
        label = self._label(index)
        common = dict(index=index, point=label, attempt=0, cached=True)
        self._emit("point_start", total=len(self.points), **common)
        self._emit("point_end", ok=True, elapsed_s=0.0, **common)

    def on_result(self, index: int, raw: object) -> None:
        metrics, error, elapsed, _telemetry = raw
        if error is None:
            self.durations.append(elapsed)
        attrs = dict(
            index=index,
            point=self._label(index),
            attempt=self.attempts.get(index, 0),
            ok=error is None,
            cached=False,
            elapsed_s=round(elapsed, 6),
        )
        if error is not None:
            attrs["error"] = error
        self._emit("point_end", **attrs)

    def on_retry(self, index: int, reason: str, elapsed_s: float = 0.0) -> None:
        attempt = self.attempts.get(index, 0) + 1
        self.attempts[index] = attempt
        self.retries += 1
        if reason == "timeout":
            self.timeouts += 1
        label = self._label(index)
        log.warning(
            "point %s (index %d) re-dispatched after %s (attempt %d)",
            label, index, reason, attempt,
        )
        self._emit(
            "retry",
            index=index,
            point=label,
            attempt=attempt,
            reason=reason,
            elapsed_s=round(elapsed_s, 6),
        )

    # -- straggler policy ---------------------------------------------

    def check_stall(self, index: int, elapsed: float) -> None:
        """Flag a straggler: in-flight longer than stall_factor x median."""
        if self.stall_factor is None or not self.durations:
            return
        median = statistics.median(self.durations)
        threshold = max(self.stall_factor * median, self.stall_floor_s)
        key = (index, self.attempts.get(index, 0))
        if elapsed <= threshold or key in self._stall_flagged:
            return
        self._stall_flagged.add(key)
        self.stalls += 1
        label = self._label(index)
        log.warning(
            "point %s (index %d) stalling: %.2fs in flight, %.1fx median %.2fs",
            label, index, elapsed, self.stall_factor, median,
        )
        self._emit(
            "stall",
            index=index,
            point=label,
            attempt=self.attempts.get(index, 0),
            elapsed_s=round(elapsed, 6),
            threshold_s=round(threshold, 6),
        )

    def timed_out(self, elapsed: float) -> bool:
        return self.point_timeout is not None and elapsed > self.point_timeout

    def can_retry(self, index: int) -> bool:
        return self.attempts.get(index, 0) < self.max_retries

    # -- synthesized raw results --------------------------------------

    def timeout_result(self, index: int, elapsed: float) -> Tuple:
        self.timeouts += 1
        attempts = self.attempts.get(index, 0) + 1
        return (
            None,
            f"TimeoutError: point exceeded point_timeout={self.point_timeout}s "
            f"after {attempts} attempt(s); worker killed",
            elapsed,
            None,
        )

    def crash_result(self, index: int) -> Tuple:
        return (
            None,
            f"RuntimeError: worker process crashed "
            f"{self.crashes.get(index, 0)} time(s) running this point",
            0.0,
            None,
        )

    def build_summary(self, result: "SweepResult", effective_jobs: int) -> Dict:
        """The ``events_summary`` roll-up for artifacts and run history."""
        busy = sum(o.elapsed_s for o in result.outcomes if not o.cached)
        utilization = None
        if result.elapsed_s > 0 and effective_jobs > 0:
            utilization = round(
                min(1.0, busy / (result.elapsed_s * effective_jobs)), 4
            )
        summary: Dict[str, object] = {
            "points": len(result.outcomes),
            "cache_hits": result.cache_hits,
            "cache_misses": result.cache_misses,
            "stalls": self.stalls,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "worker_crashes": sum(self.crashes.values()),
            "worker_utilization": utilization,
        }
        if self.bus is not None and self.bus.peak_rss_bytes is not None:
            summary["peak_rss_bytes"] = self.bus.peak_rss_bytes
        return summary


def _run_serial(
    worker: Worker,
    pending: List[Tuple[int, object]],
    report: Callable[[int, object], None],
    monitor: Optional[_SweepMonitor] = None,
) -> None:
    for index, item in pending:
        if monitor is not None:
            monitor.on_start(index)
            raw = worker(item, *monitor.submit_args(index))
            monitor.on_result(index, raw)
            report(index, raw)
        else:
            report(index, worker(item))


def _worker_main(conn: Connection, worker: Worker, run_id: Optional[str]) -> None:
    """Worker process body: run one item per message until the ``None``
    sentinel.

    Every message up the pipe is ``("result", value)`` or, when the
    dispatcher has a bus (``run_id``), ``("event", event)`` from this
    process's own bus; one lock keeps the heartbeat thread's events and
    the main thread's results whole.  The sentinel, not EOF, ends the
    loop: workers forked later inherit this worker's parent-end handle,
    so closing it in the parent alone would never reach EOF here.
    """
    lock = threading.Lock()

    def send(tag: str, payload: object) -> None:
        with lock:
            conn.send((tag, payload))

    bus = None
    if run_id is not None:
        bus = obs.EventBus(run_id=run_id)
        bus.subscribe(partial(send, "event"))
    with obs.eventing(bus):
        while True:
            args = conn.recv()
            if args is None:
                return
            send("result", worker(*args))


def _start_worker(worker: Worker) -> Tuple[multiprocessing.Process, Connection]:
    """Start one worker process; return it with the parent's pipe end.

    The worker forwards events when the dispatcher has an active bus.
    """
    bus = obs.current_bus()
    conn, child_conn = multiprocessing.Pipe()
    process = multiprocessing.Process(
        target=_worker_main,
        args=(child_conn, worker, bus.run_id if bus is not None else None),
    )
    process.start()
    # the parent keeps only its end, so the worker's death reads as EOF
    child_conn.close()
    return process, conn


def _run_parallel(
    worker: Worker,
    pending: List[Tuple[int, object]],
    jobs: int,
    report: Callable[[int, object], None],
    monitor: Optional[_SweepMonitor] = None,
) -> bool:
    """Run pending items on ``jobs`` worker processes; True if any serial
    fallback ran.

    Each worker has its own pipe and holds at most one item; results are
    reported, and the events a worker forwards published on the active
    bus, as they arrive.  A worker that dies (EOF on its pipe) is
    charged with exactly its one item: a fresh worker is started and the
    item re-dispatched; at ``_MAX_CRASHES_PER_POINT`` crashes the item is
    reported as the monitor's synthesized error result, or, without a
    monitor, ``RuntimeError`` naming the item is raised.  With a monitor,
    in-flight points are watched for stalls and ``point_timeout``
    overruns: a timed-out worker is killed and replaced, and the point
    re-dispatched or errored.  Only when no worker process can be started
    do the unreported items run serially and the function return True.
    An exception raised by ``report`` itself (cache write failure,
    progress-callback bug) propagates to the caller after the workers are
    stopped.
    """
    queue = deque(pending)
    bus = obs.current_bus()
    workers: Dict[Connection, multiprocessing.Process] = {}
    busy: Dict[Connection, Tuple[int, object, float]] = {}  # index, item, since
    crashes = monitor.crashes if monitor is not None else {}
    tick = _SweepMonitor.tick_s if monitor is not None and monitor.active else None

    def start() -> None:
        with contextlib.suppress(OSError):  # with no worker left, run serially
            process, conn = _start_worker(worker)
            workers[conn] = process

    def replace(conn: Connection) -> None:
        process = workers.pop(conn)
        process.kill()
        process.join()
        start()

    def dispatch(conn: Connection, index: int, item: object) -> None:
        args = (item,)
        if monitor is not None:
            monitor.on_start(index)
            args += monitor.submit_args(index)
        conn.send(args)
        busy[conn] = (index, item, time.perf_counter())

    def finish(index: int, raw: object) -> None:
        if monitor is not None:
            monitor.on_result(index, raw)
        report(index, raw)

    def give_up(index: int) -> None:
        if monitor is None:
            raise RuntimeError(
                f"worker process crashed {crashes[index]} times running item {index}"
            )
        finish(index, monitor.crash_result(index))

    try:
        for _ in range(jobs):
            start()
        while queue or busy:
            for conn in workers:
                if queue and conn not in busy:
                    dispatch(conn, *queue.popleft())
            if not busy:
                break  # no worker could be started
            ready = wait(list(busy), timeout=tick)
            now = time.perf_counter()
            for conn in ready:
                try:
                    tag, payload = conn.recv()
                except (EOFError, OSError):
                    index, item, _since = busy.pop(conn)
                    replace(conn)
                    crashes[index] = crashes.get(index, 0) + 1
                    if crashes[index] < _MAX_CRASHES_PER_POINT:
                        if monitor is not None:
                            monitor.on_retry(index, reason="worker-crash")
                        queue.appendleft((index, item))
                    else:
                        give_up(index)
                    continue
                if tag == "event":  # a worker has a bus only if we do
                    bus.publish(payload)
                    continue
                index, _item, _since = busy.pop(conn)
                # the next item goes out before report() (cache write,
                # progress) runs, so the worker never idles on the parent
                if queue:
                    dispatch(conn, *queue.popleft())
                finish(index, payload)
            if tick is None:
                continue
            for conn, (index, item, since) in list(busy.items()):
                elapsed = now - since
                monitor.check_stall(index, elapsed)
                if not monitor.timed_out(elapsed):
                    continue
                del busy[conn]
                replace(conn)
                if monitor.can_retry(index):
                    monitor.on_retry(index, reason="timeout", elapsed_s=elapsed)
                    queue.append((index, item))
                else:
                    finish(index, monitor.timeout_result(index, elapsed))
    finally:
        for conn, process in workers.items():
            if conn in busy:
                process.kill()
            else:
                with contextlib.suppress(OSError):  # an idle worker already gone
                    conn.send(None)
            process.join()
    if queue:
        log.warning("no worker process could be started; points run serially")
        for index, _item in queue:
            if index in crashes:  # a worker's crasher never runs in-process
                give_up(index)
        _run_serial(
            worker, [p for p in queue if p[0] not in crashes], report, monitor
        )
        return True
    return False


def parallel_map(
    worker: Worker,
    items: Sequence[object],
    jobs: int = 1,
    progress: Optional[Callable[[object, int, int], None]] = None,
) -> Tuple[List[object], bool]:
    """Map a picklable ``worker`` over ``items`` on the sweep's workers.

    Returns ``(results, used_fallback)`` with results in input order.
    ``jobs <= 1`` runs serially.  A crashed worker process does not abort
    the fan-out: a fresh worker replaces it and only its own item is
    re-dispatched; an item that crashes its worker a second time raises
    ``RuntimeError`` naming its index and is never re-run in this process.
    The worker must never raise — it should capture failures in its result
    record (see :data:`Worker`).  ``progress`` is invoked as
    ``(result, done_count, total)`` in completion order.
    """
    results: Dict[int, object] = {}

    def report(index: int, result: object) -> None:
        results[index] = result
        if progress is not None:
            progress(result, len(results), len(items))

    pending = list(enumerate(items))
    used_fallback = False
    effective_jobs = max(1, min(jobs, len(pending))) if pending else 1
    if pending:
        if effective_jobs > 1:
            used_fallback = _run_parallel(worker, pending, effective_jobs, report)
        else:
            _run_serial(worker, pending, report)
    return [results[i] for i in range(len(items))], used_fallback


def run_sweep(
    spec: Union[SweepSpec, Sequence[SweepPoint]],
    jobs: int = 1,
    cache: Union[ResultCache, str, Path, None] = None,
    progress: Optional[ProgressFn] = None,
    *,
    point_timeout: Optional[float] = None,
    stall_factor: Optional[float] = 4.0,
    max_retries: int = 1,
    heartbeat_s: float = 1.0,
) -> SweepResult:
    """Run every point of ``spec``, honouring the cache and the worker processes.

    Parameters
    ----------
    spec:
        A :class:`SweepSpec` (expanded here) or an explicit point sequence.
    jobs:
        Worker processes for uncached points; ``<= 1`` runs serially.
    cache:
        A :class:`ResultCache`, a directory path to open one in, or ``None``
        to disable caching.  Fresh results are written back to the cache.
    progress:
        Optional callback ``(outcome, done_count, total)`` invoked as each
        point resolves (cached points first, then completions in whatever
        order the workers finish them).
    point_timeout:
        Hard per-point wall-time budget (parallel runs only): a point in
        flight longer than this has its worker killed and is re-dispatched up to
        ``max_retries`` times, then recorded as an error outcome — the
        sweep always accounts for every point instead of hanging.
    stall_factor:
        Straggler threshold: a point in flight longer than
        ``stall_factor x`` the rolling median of fresh point times emits a
        ``stall`` event and a warning (``None`` disables the check).
    max_retries:
        Re-dispatch budget per timed-out point.
    heartbeat_s:
        Worker heartbeat period for evented runs (``<= 0`` disables).

    When a :class:`repro.obs.EventBus` is active (see
    :func:`repro.obs.eventing`), the sweep streams live
    ``point_start``/``point_end``/``stall``/``retry`` events and the
    workers' ``heartbeat``/``resource`` gauges on it; the roll-up lands in
    ``SweepResult.events_summary`` and on ``obs.counter`` metrics
    (``events.stalls`` / ``events.retries``) for the regression sentinel.
    """
    start = time.perf_counter()
    points = spec.expand() if isinstance(spec, SweepSpec) else [p.canonical() for p in spec]
    if cache is not None and not isinstance(cache, ResultCache):
        cache = ResultCache(cache)
    tracer = obs.current_tracer()
    monitor = _SweepMonitor(
        points,
        obs.current_bus(),
        point_timeout=point_timeout,
        stall_factor=stall_factor,
        max_retries=max_retries,
    )

    outcomes: Dict[int, PointOutcome] = {}
    finished = 0

    def report(index: int, outcome: PointOutcome) -> None:
        nonlocal finished
        if cache is not None and outcome.metrics is not None and not outcome.cached:
            telemetry = None
            if outcome.spans is not None:
                telemetry = {
                    "elapsed_s": round(outcome.elapsed_s, 6),
                    "span_summary": outcome.span_summary(),
                }
            cache.put(outcome.point, outcome.metrics, telemetry=telemetry)
        outcomes[index] = outcome
        finished += 1
        if progress is not None:
            progress(outcome, finished, len(points))

    def report_raw(index: int, raw: object) -> None:
        # the (picklable) _run_one result shape
        metrics, error, elapsed, telemetry = raw
        spans = None
        if telemetry is not None:
            spans = telemetry.get("spans")
            if tracer is not None and spans is not None:
                tracer.adopt(spans, telemetry.get("counters"))
        report(
            index, PointOutcome(points[index], metrics, error, False, elapsed, spans)
        )

    with obs.span("explore.sweep", points=len(points), jobs=jobs):
        pending: List[Tuple[int, SweepPoint]] = []
        hits = 0
        for index, point in enumerate(points):
            metrics = cache.get(point) if cache is not None else None
            if metrics is not None:
                hits += 1
                monitor.on_cached(index)
                report(index, PointOutcome(point, metrics, cached=True))
            else:
                pending.append((index, point))
        log.debug(
            "sweep: %d point(s), %d cached, %d to run",
            len(points), hits, len(pending),
        )

        used_fallback = False
        effective_jobs = max(1, min(jobs, len(pending))) if pending else 1
        worker = partial(
            _run_one, trace=tracer is not None, heartbeat_s=heartbeat_s
        )
        if pending:
            if effective_jobs > 1:
                used_fallback = _run_parallel(
                    worker, pending, effective_jobs, report_raw, monitor
                )
            else:
                _run_serial(worker, pending, report_raw, monitor)

    result = SweepResult(
        outcomes=[outcomes[i] for i in range(len(points))],
        jobs=effective_jobs,
        cache_hits=hits,
        cache_misses=len(pending),
        used_fallback=used_fallback,
        elapsed_s=time.perf_counter() - start,
    )
    if monitor.active:
        result.events_summary = monitor.build_summary(result, effective_jobs)
        # sentinel-visible drift gauges: only on monitored runs, so plain
        # runs' history records keep their historic counter set
        obs.counter("events.stalls", monitor.stalls)
        obs.counter("events.retries", monitor.retries)
    return result
