"""Outside-in layer tracing for the benchmark.

Nothing here edits the program: every span comes from a wrapper that
this module installs on a class attribute or a module global of the
``repro`` package, inside the benchmark's own child process only.

A :class:`Tracer` keeps one aggregate row per ``(phase, span name)``:
calls, total seconds and self seconds (the span's duration minus the
time its child spans cover).  Phases are switched by a few boundary
wrappers (entry into ``Network.converge`` and so on).  Time inside a
phase that no top-level span covers is booked to a
``bench.unattributed`` row, so the rows of one process sum to the
wall time of its traced region by construction, and comparing that sum
with the wall time the parent measured checks that no span is counted
twice.
"""

from __future__ import annotations

import functools
import json
import os
import time
from typing import Callable, Dict, List, Optional

UNATTRIBUTED = "bench.unattributed"


class Tracer:
    """Aggregated spans for one process (reset in forked workers).

    A span's row is keyed by the phase in which it started.  Phase
    coverage is split by time, so a top-level span that is open across
    a phase switch counts toward both phases' covered time.
    """

    def __init__(self, started: float):
        self.pid = os.getpid()
        self.rows: "Dict[tuple, list]" = {}
        #: One child-time accumulator per open span, above a sentinel.
        self._stack: "List[float]" = [0.0]
        self.counts: "Dict[str, int]" = {}
        self.phase = "setup"
        self._phase_started = started
        #: Time covered by top-level spans in the current phase, and
        #: where the open top-level span's uncounted part begins.
        self._covered = 0.0
        self._top_since = started
        #: phase -> [wall seconds, seconds covered by top-level spans]
        self.phases: "Dict[str, list]" = {}
        #: True in a forked sweep worker (see :meth:`reset_for_worker`).
        self.worker = False
        #: Filled by the ``Network.converge`` probe: the network and
        #: the events it had processed when convergence returned.
        self.converge_state: dict = {}

    # -- phases --------------------------------------------------------
    def set_phase(self, phase: str) -> None:
        """Close the current phase and open *phase* now."""
        now = time.perf_counter()
        self._close_phase(now)
        self.phase = phase
        self._phase_started = now

    def _close_phase(self, now: float) -> None:
        if len(self._stack) > 1:
            self._covered += now - self._top_since
            self._top_since = now
        slot = self.phases.setdefault(self.phase, [0.0, 0.0])
        slot[0] += now - self._phase_started
        slot[1] += self._covered
        self._covered = 0.0

    def finish(self) -> float:
        """Close the last phase; returns the traced wall seconds."""
        self._close_phase(time.perf_counter())
        return sum(wall for wall, _ in self.phases.values())

    def reset_for_worker(self) -> None:
        """Drop state inherited over ``fork``; this process is a worker."""
        self.pid = os.getpid()
        self.rows.clear()
        self.counts.clear()
        del self._stack[1:]
        self._covered = 0.0
        self.phase = "worker"
        self.worker = True

    # -- counting ------------------------------------------------------
    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- spans ---------------------------------------------------------
    def _begin(self) -> "tuple[str, float]":
        stack = self._stack
        top = len(stack) == 1
        stack.append(0.0)
        start = time.perf_counter()
        if top:
            self._top_since = start
        return self.phase, start

    def _end(self, name: str, phase: str, start: float) -> None:
        end = time.perf_counter()
        elapsed = end - start
        stack = self._stack
        child = stack.pop()
        if len(stack) == 1:
            self._covered += end - self._top_since
        else:
            stack[-1] += elapsed
        key = (phase, name)
        row = self.rows.get(key)
        if row is None:
            row = self.rows[key] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += elapsed
        row[2] += elapsed - child

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A span named *name* around every call of *fn*."""
        begin = self._begin
        end = self._end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            phase, start = begin()
            try:
                return fn(*args, **kwargs)
            finally:
                end(name, phase, start)

        return traced

    def wrap_iter(self, name: str, fn: Callable) -> Callable:
        """Like :meth:`wrap` for a generator: one span per ``next``."""
        begin = self._begin
        end = self._end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            iterator = iter(fn(*args, **kwargs))
            while True:
                phase, start = begin()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    end(name, phase, start)
                yield item

        return traced

    # -- output --------------------------------------------------------
    def span_rows(self) -> "List[dict]":
        """One dict per ``(phase, span name)`` aggregate."""
        return [
            {
                "phase": phase,
                "name": name,
                "calls": calls,
                "total_s": total,
                "self_s": own,
            }
            for (phase, name), (calls, total, own) in sorted(
                self.rows.items()
            )
        ]

    def ledger_rows(self) -> "List[dict]":
        """Span rows plus one unattributed row per phase."""
        rows = self.span_rows()
        for phase, (wall, covered) in sorted(self.phases.items()):
            rows.append(
                {
                    "phase": phase,
                    "name": UNATTRIBUTED,
                    "calls": 1,
                    "total_s": wall - covered,
                    "self_s": wall - covered,
                }
            )
        return rows

    def dump_worker(self, directory: str) -> None:
        """Write this worker's rows (cumulative) for the parent to merge."""
        path = os.path.join(directory, f"worker-{os.getpid()}.json")
        payload = {"rows": self.span_rows(), "counts": self.counts}
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)


def day_counts(network) -> "Dict[str, int]":
    """Exact counts of a finished simulated day (post-run reads)."""
    routers = network.routers.values()
    return {
        "events_processed": network.queue.processed,
        "updates_received": sum(r.received_updates for r in routers),
        "updates_sent": sum(r.sent_updates for r in routers),
        "collector_messages": sum(
            c.message_count() for c in network.collectors.values()
        ),
    }


# ----------------------------------------------------------------------
# patching helpers
# ----------------------------------------------------------------------
def patch_method(cls, attribute: str, make: Callable) -> None:
    """Replace ``cls.attribute`` (own or inherited) by ``make(original)``."""
    setattr(cls, attribute, make(getattr(cls, attribute)))


def patch_global(module, attribute: str, make: Callable) -> None:
    """Replace a module-level function everywhere ``repro`` bound it.

    ``from x import f`` copies the function into the importing module,
    so the wrapper is installed in every loaded ``repro`` module whose
    global of that name is the original object.
    """
    import sys

    original = getattr(module, attribute)
    wrapped = make(original)
    for name, loaded in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")):
            continue
        if getattr(loaded, attribute, None) is original:
            setattr(loaded, attribute, wrapped)


def subclasses(base) -> "List[type]":
    """Every subclass of *base*, recursively, in a stable order."""
    found: "List[type]" = []
    pending = list(base.__subclasses__())
    while pending:
        cls = pending.pop(0)
        if cls not in found:
            found.append(cls)
            pending.extend(cls.__subclasses__())
    return sorted(found, key=lambda cls: (cls.__module__, cls.__qualname__))


# ----------------------------------------------------------------------
# boundary hooks (untraced runs too: one call each, never per event)
# ----------------------------------------------------------------------
class Boundary:
    """Marks the end of set-up: the first call of one entry point."""

    def __init__(self, on_mark: "Optional[Callable[[], None]]" = None):
        self.at: "Optional[float]" = None
        self.subject = None
        self._on_mark = on_mark

    def wrapper(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def marked(subject, *args, **kwargs):
            if self.at is None:
                self.at = time.perf_counter()
                self.subject = subject
                if self._on_mark is not None:
                    self._on_mark()
            return fn(subject, *args, **kwargs)

        return marked


def install_boundary(workload: str, boundary: Boundary) -> None:
    """Hook the entry point that ends *workload*'s set-up."""
    if workload == "mar20-day":
        from repro.simulator.network import Network

        patch_method(Network, "converge", boundary.wrapper)
    elif workload == "mar20-replay":
        from repro.mrt.reader import MRTReader

        patch_method(MRTReader, "__iter__", boundary.wrapper)
    else:
        from repro.scenarios.backends import ProcessBackend

        patch_method(ProcessBackend, "run_jobs", boundary.wrapper)


# ----------------------------------------------------------------------
# full layer tracing
# ----------------------------------------------------------------------
def _phase_switch(
    tracer: Tracer, entry: str, exit: "Optional[str]" = None
) -> Callable:
    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def switched(*args, **kwargs):
            if tracer.worker:
                return fn(*args, **kwargs)
            tracer.set_phase(entry)
            try:
                return fn(*args, **kwargs)
            finally:
                if exit is not None:
                    tracer.set_phase(exit)

        return switched

    return make


def install_tracing(
    tracer: Tracer, workload: str, worker_dir: "Optional[str]" = None
) -> None:
    """Wrap the public calls of every layer for *workload*.

    Call after :func:`install_boundary` and after importing
    ``repro.cli`` (so every module that copied a function is loaded).
    """
    import repro.cli  # noqa: F401 — loads every module patched below
    from repro import durable
    from repro.analysis import observations as observations_module
    from repro.bgp import wire
    from repro.bgp.aspath import ASPath
    from repro.bgp.attributes import PathAttributes
    from repro.mrt.reader import MRTReader
    from repro.pipeline import stream  # noqa: F401 — explode_update user
    from repro.policy import actions, filters, geo  # noqa: F401
    from repro.policy.engine import PolicyChain, PolicyStep, RoutingPolicy
    from repro.rib.adj_rib import AdjRIBOut
    from repro.rib.decision import DecisionProcess
    from repro.rib.loc_rib import LocRIB
    from repro.scenarios import backends, serialize
    from repro.scenarios.collectors import CollectorProxy, MetricCollector
    from repro.simulator.collector import RouteCollector
    from repro.simulator.events import EventQueue
    from repro.simulator.network import Network
    from repro.simulator.router import Router
    from repro.simulator.session import BGPSession
    from repro.workloads import practices  # noqa: F401
    from repro.workloads.internet import InternetModel

    span = tracer.wrap

    def named(name: str):
        return lambda fn: span(name, fn)

    # workloads (build) and the simulator's phases
    patch_method(InternetModel, "__init__", named("workloads.build"))
    patch_method(InternetModel, "build", named("workloads.build"))
    patch_method(InternetModel, "run_day", named("workloads.run_day"))
    converge_state = tracer.converge_state

    def converge_probe(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def probed(self, *args, **kwargs):
            converge_state["network"] = self
            try:
                return fn(self, *args, **kwargs)
            finally:
                converge_state["events"] = self.queue.processed

        return probed

    patch_method(Network, "converge", named("simulator.converge"))
    patch_method(Network, "converge", converge_probe)

    patch_method(EventQueue, "run", named("simulator.events"))
    patch_method(BGPSession, "send", named("simulator.session.send"))
    patch_method(Router, "receive_batch", named("simulator.router"))
    patch_method(Router, "receive", named("simulator.router"))
    patch_method(RouteCollector, "receive_batch", named("simulator.collector"))
    patch_method(RouteCollector, "receive", named("simulator.collector"))

    # policy: chains by role (recorded when RoutingPolicy is built),
    # steps per PolicyStep subclass
    import_chains: "Dict[int, PolicyChain]" = {}

    def remember_roles(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def init(self, *args, **kwargs):
            fn(self, *args, **kwargs)
            import_chains[id(self.import_chain)] = self.import_chain

        return init

    patch_method(RoutingPolicy, "__init__", remember_roles)
    original_chain_apply = PolicyChain.apply
    apply_import = span("policy.import", original_chain_apply)
    apply_export = span("policy.export", original_chain_apply)

    def chain_apply(self, attributes, context):
        role = "import" if id(self) in import_chains else "export"
        apply = apply_import if role == "import" else apply_export
        result = apply(self, attributes, context)
        tracer.count(f"policy.{role}.calls")
        if result is None:
            tracer.count(f"policy.{role}.rejects")
        return result

    PolicyChain.apply = chain_apply
    for cls in subclasses(PolicyStep):
        if "apply" in cls.__dict__:
            patch_method(cls, "apply", named(f"policy.step.{cls.__name__}"))

    # rib
    patch_method(DecisionProcess, "select", named("rib.decision"))

    def loc_rib_update(fn: Callable) -> Callable:
        traced = span("rib.loc_rib.update", fn)

        @functools.wraps(fn)
        def update(self, route):
            result = traced(self, route)
            if result[0]:
                tracer.count("rib.loc_rib.changed")
            return result

        return update

    patch_method(LocRIB, "update", loc_rib_update)
    patch_method(
        AdjRIBOut, "record_advertisement", named("rib.adj_rib_out.record")
    )
    patch_method(
        AdjRIBOut, "record_withdrawal", named("rib.adj_rib_out.record")
    )

    # bgp attributes
    patch_method(PathAttributes, "replace", named("bgp.attributes.replace"))
    patch_method(ASPath, "prepend", named("bgp.aspath.prepend"))

    # read path: pipeline.stream, mrt.reader, bgp.wire
    patch_global(
        observations_module,
        "explode_update",
        lambda fn: tracer.wrap_iter("pipeline.stream.explode", fn),
    )
    patch_method(
        MRTReader,
        "__iter__",
        lambda fn: tracer.wrap_iter("mrt.reader", fn),
    )
    patch_global(wire, "decode_message_from", named("bgp.wire.decode"))

    # metric collectors and analysis
    for cls in subclasses(MetricCollector):
        label = f"scenarios.collectors.{cls.name}"
        for method in ("observe", "finish"):
            if method in cls.__dict__:
                patch_method(cls, method, named(label))
    patch_method(CollectorProxy, "finish", named("scenarios.analyze"))

    install_parallel_spans(tracer)

    # sweep runner, durable writes and serialization
    patch_method(
        backends.ProcessBackend, "run_jobs", named("scenarios.runner.dispatch")
    )
    patch_global(durable, "atomic_write", named("durable.atomic_write"))
    for function in (
        "spec_to_json",
        "spec_from_json",
        "spec_hash",
        "result_to_json",
        "result_from_json",
    ):
        patch_global(serialize, function, named("scenarios.serialize"))
    if worker_dir is not None:
        patch_global(
            backends,
            "run_scenario_json",
            lambda fn: _worker_cell(tracer, fn, worker_dir),
        )

    # phase boundaries of this workload's coordinating process
    if workload == "mar20-day":
        patch_method(
            Network, "converge", _phase_switch(tracer, "converge", "day")
        )
    elif workload == "mar20-replay":
        patch_method(MRTReader, "__iter__", _phase_switch(tracer, "replay"))
    else:
        patch_method(
            backends.ProcessBackend,
            "run_jobs",
            _phase_switch(tracer, "sweep", "report"),
        )
    if workload != "sweep-tiny":
        patch_method(
            CollectorProxy,
            "finish",
            _phase_switch(tracer, "analyze", "report"),
        )


def install_parallel_spans(tracer: Tracer) -> None:
    """Coordinator spans of the sharded decode: plan, wait, merge."""
    from repro.mrt import shard
    from repro.pipeline import parallel
    from repro.scenarios.backends import ProcessBackend

    patch_global(
        shard, "plan_shards", lambda fn: tracer.wrap("pipeline.parallel.plan", fn)
    )
    patch_method(
        ProcessBackend,
        "map_json",
        lambda fn: tracer.wrap("pipeline.parallel.wait", fn),
    )
    patch_global(
        parallel,
        "merge_replies",
        lambda fn: tracer.wrap("pipeline.parallel.merge", fn),
    )


def _worker_cell(tracer: Tracer, fn: Callable, directory: str) -> Callable:
    """Run one sweep cell; in a forked worker, dump the worker's rows."""

    @functools.wraps(fn)
    def cell(*args, **kwargs):
        if os.getpid() != tracer.pid:
            tracer.reset_for_worker()
        try:
            return fn(*args, **kwargs)
        finally:
            if tracer.worker:
                network = tracer.converge_state.pop("network", None)
                if network is not None:
                    for key, value in day_counts(network).items():
                        tracer.count(key, value)
                    tracer.count(
                        "converge_events", tracer.converge_state["events"]
                    )
                    tracer.counts["peak_pending_events"] = max(
                        tracer.counts.get("peak_pending_events", 0),
                        network.queue.peak_pending,
                    )
                tracer.dump_worker(directory)

    return cell
