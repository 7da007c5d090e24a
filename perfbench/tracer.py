"""Per-layer wall-time ledger for one traced experiment.

The tracer wraps the public entry points of each layer of ``repro`` (and
the callbacks each layer hands to the kernel) from outside the program: no
file under ``src/`` is touched.  A span opens when control enters a layer
and closes when it returns; a span's *self time* is its duration minus the
time covered by the spans it encloses.  Every entry into the same group as
the innermost open span is folded into that span, so only layer crossings
pay for a clock read.

A run would hold millions of spans, so the tracer keeps per-span-name
aggregates (calls, self seconds) instead of per-call records.  Measured
operations are the exception: each gets one root :class:`OpSpan`, and the
self time of every span that runs on its behalf -- followed through the
events it schedules, so RPC handlers on remote nodes count too -- is added
to that root under the same id.

Layers are named after the modules (see ``NOTES.md``):

``sim`` kernel, processes, futures; ``net`` network, latency, loss, host
load; ``bw`` bandwidth model and allocators; ``rpc``; ``ser`` serializer;
``sock`` sandboxed sockets; ``ctl`` runtime and churn; ``app`` applications,
harness and testbeds; ``gc`` interpreter collections; ``root`` the traced
call itself, i.e. whatever no layer claims.
"""

from __future__ import annotations

import gc
import inspect
import sys
import time
from types import GeneratorType
from typing import Dict, List, Optional

#: attribute that marks a tracer wrapper (and points at what it wraps)
WRAPPED = "__perfbench_wrapped__"

#: (source path fragment, layer), first match wins
_LAYER_OF_PATH = (
    ("/repro/sim/", "sim"),
    ("/repro/net/bandwidth.py", "bw"),
    ("/repro/net/bwalloc.py", "bw"),
    ("/repro/net/", "net"),
    ("/repro/lib/rpc.py", "rpc"),
    ("/repro/lib/serializer.py", "ser"),
    ("/repro/lib/sbsocket.py", "sock"),
    ("/repro/runtime/", "ctl"),
    ("/repro/core/", "ctl"),
)

#: span names whose inclusive time is reported, so they never fold into
#: an enclosing span of their layer
_OWN_GROUP = ("ctl.placement", "app.deploy", "testbed.build")

#: names of the driver processes whose lookups or broadcasts are the
#: measured operations
MEASURED_DRIVERS = ("workload.measured", "workload.publish")


def layer_of_file(path: str) -> str:
    path = path.replace("\\", "/")
    for fragment, layer in _LAYER_OF_PATH:
        if fragment in path:
            return layer
    return "app"


class Span:
    """Aggregate of every call recorded under one span name."""

    __slots__ = ("name", "layer", "group", "calls", "self_s", "total_s")

    def __init__(self, name: str):
        self.name = name
        self.layer = name.split(".", 1)[0]
        if self.layer == "testbed":
            self.layer = "app"
        # Interned: wrappers compare groups by identity.
        self.group = sys.intern(name if name in _OWN_GROUP else self.layer)
        self.calls = 0
        self.self_s = 0.0
        #: inclusive seconds (only meaningful for spans that never fold)
        self.total_s = 0.0


class OpSpan:
    """Root span of one measured operation."""

    __slots__ = ("op_id", "kind", "key", "sim_start", "sim_end", "self_s")

    def __init__(self, op_id: int, kind: str, key, sim_start: float):
        self.op_id = op_id
        self.kind = kind
        self.key = key
        self.sim_start = sim_start
        self.sim_end: Optional[float] = None
        #: span name -> self seconds spent on this operation's behalf
        self.self_s: Dict[str, float] = {}

    def to_dict(self) -> dict:
        return {"id": self.op_id, "kind": self.kind, "key": self.key,
                "sim_start": self.sim_start, "sim_end": self.sim_end,
                "self_s": dict(sorted(self.self_s.items()))}


class Tracer:
    """Installs the wrappers, keeps the spans, and removes the wrappers."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: Dict[str, Span] = {}
        root = self.span("root")
        #: open frames: [span, start, seconds covered by child spans]
        self.stack: List[list] = [[root, 0.0, 0.0]]
        #: the measured operation the running code works for, or None
        self.op: Optional[OpSpan] = None
        #: the process whose step is running, or None
        self.proc = None
        self.ops: List[OpSpan] = []
        self._ops_by_node: Dict[int, OpSpan] = {}
        self._patches: List[tuple] = []
        self._layer_cache: Dict[object, str] = {}
        self.gc_collections = 0
        #: processes created (each spawns a coroutine)
        self.processes = 0

    # ------------------------------------------------------------ accounting
    def span(self, name: str) -> Span:
        span = self.spans.get(name)
        if span is None:
            span = self.spans[name] = Span(name)
        return span

    def push(self, span: Span) -> list:
        frame = [span, self.clock(), 0.0]
        self.stack.append(frame)
        return frame

    def pop(self, frame: list) -> None:
        elapsed = self.clock() - frame[1]
        stack = self.stack
        stack.pop()
        span = frame[0]
        own = elapsed - frame[2]
        span.calls += 1
        span.self_s += own
        span.total_s += elapsed
        stack[-1][2] += elapsed
        op = self.op
        if op is not None:
            op.self_s[span.name] = op.self_s.get(span.name, 0.0) + own

    def begin(self) -> None:
        """Open the root span; everything until :meth:`end` is accounted."""
        root = self.stack[0]
        root[1] = self.clock()
        root[2] = 0.0

    def end(self) -> float:
        """Close the root span; returns the traced wall seconds."""
        if len(self.stack) != 1:
            raise RuntimeError(f"{len(self.stack) - 1} spans still open")
        root = self.stack[0]
        elapsed = self.clock() - root[1]
        span = root[0]
        span.calls += 1
        span.self_s += elapsed - root[2]
        span.total_s += elapsed
        return elapsed

    # ------------------------------------------------------------- wrappers
    def timed(self, name: str, fn):
        """``fn`` wrapped in a span called ``name``."""
        span = self.span(name)
        group = span.group
        stack = self.stack
        push, pop = self.push, self.pop

        def wrapper(*args, **kwargs):
            if stack[-1][0].group is group:
                return fn(*args, **kwargs)
            frame = push(span)
            try:
                return fn(*args, **kwargs)
            finally:
                pop(frame)

        setattr(wrapper, WRAPPED, fn)
        return wrapper

    def timed_gen(self, gen: GeneratorType, name: str) -> GeneratorType:
        """A generator that drives ``gen``, each resumption in a span."""
        span = self.span(name)
        group = span.group
        stack = self.stack
        push, pop = self.push, self.pop
        value = None
        error = None
        while True:
            frame = None if stack[-1][0].group is group else push(span)
            try:
                if error is not None:
                    thrown, error = error, None
                    yielded = gen.throw(thrown)
                else:
                    yielded = gen.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                if frame is not None:
                    pop(frame)
            try:
                value = yield yielded
            except BaseException as exc:  # noqa: BLE001 - forwarded into gen
                value, error = None, exc

    def layer_of(self, fn) -> str:
        """Layer of a callable's code (seeing through deferring lambdas)."""
        code = getattr(fn, "__code__", None)
        if code is None:
            code = getattr(getattr(fn, "__func__", None), "__code__", None)
        if code is None:
            return "app"
        layer = self._layer_cache.get(code)
        if layer is not None:
            return layer
        path = code.co_filename
        if path.endswith("/repro/sim/events_api.py") and fn.__closure__:
            # events.thread/timer wrap the application's callable in a
            # lambda: the work is the wrapped callable's, not the kernel's.
            for cell in fn.__closure__:
                inner = cell.cell_contents
                if callable(inner) and not isinstance(inner, type):
                    return self.layer_of(inner)
        layer = self._layer_cache[code] = layer_of_file(path)
        return layer

    def call_plain(self, fn):
        """Run a process's plain callable in its layer's span."""
        span = self.span(self.layer_of(fn))
        if self.stack[-1][0].group is span.group:
            result = fn()
        else:
            frame = self.push(span)
            try:
                result = fn()
            finally:
                self.pop(frame)
        if isinstance(result, GeneratorType):
            result = self.timed_gen(result, layer_of_file(result.gi_code.co_filename))
        return result

    def bind_op(self, callback, op: OpSpan):
        """``callback`` run with ``op`` as the current operation."""
        tracer = self

        def run(*args):
            previous = tracer.op
            tracer.op = op
            try:
                return callback(*args)
            finally:
                tracer.op = previous

        return run

    # ------------------------------------------------------------ operations
    def begin_op(self, kind: str, key, sim_now: float) -> OpSpan:
        op = OpSpan(len(self.ops), kind, key, sim_now)
        self.ops.append(op)
        return op

    # --------------------------------------------------------------- gc hook
    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self.gc_collections += 1
            self.push(self.span("gc"))
        else:
            stack = self.stack
            if len(stack) > 1 and stack[-1][0].name == "gc":
                self.pop(stack[-1])

    # ---------------------------------------------------------- patch table
    def _patch(self, owner, attr: str, replacement) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if not hasattr(replacement, WRAPPED):
            setattr(replacement, WRAPPED, original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _wrap_method(self, cls: type, attr: str, name: str) -> None:
        self._patch(cls, attr, self.timed(name, cls.__dict__[attr]))

    def _wrap_class(self, cls: type, name: str) -> None:
        """Wrap every plain method a class defines (control-plane classes)."""
        for attr, value in list(cls.__dict__.items()):
            if attr.startswith("__") or not inspect.isfunction(value):
                continue
            self._patch(cls, attr, self.timed(name, value))

    def install(self) -> "Tracer":
        """Wrap the entry points; call before the experiment deploys."""
        from repro.apps import chord, dissemination, gossip, harness, pastry
        from repro.core import churn
        from repro.lib import rpc, sbsocket, serializer
        from repro.net import bandwidth, bwalloc, network
        from repro.runtime import controller, jobstore, splayd
        from repro.sim import futures, kernel, process
        from repro.testbeds import spec as testbed_spec

        tracer = self
        timed = self.timed

        # sim: the run loop, scheduling (which also carries the current
        # operation into the events it schedules), futures, process steps.
        self._wrap_method(kernel.Simulator, "run", "sim.run")
        for attr in ("schedule", "schedule_at"):
            original = kernel.Simulator.__dict__[attr]

            def scheduler(sim, when, callback, *args, _original=original):
                op = tracer.op
                if op is not None:
                    callback = tracer.bind_op(callback, op)
                return _original(sim, when, callback, *args)

            self._patch(kernel.Simulator, attr, timed("sim.schedule", scheduler))
        call_soon = kernel.Simulator.__dict__["call_soon"]

        def soon(sim, callback, *args):
            op = tracer.op
            if op is not None:
                callback = tracer.bind_op(callback, op)
            return call_soon(sim, callback, *args)

        self._patch(kernel.Simulator, "call_soon", timed("sim.schedule", soon))
        for attr in ("set_result", "set_exception"):
            self._wrap_method(futures.Future, attr, "sim.future")

        process_init = process.Process.__init__

        def init(proc, sim, generator, name=""):
            process_init(proc, sim, generator, name)
            tracer.processes += 1
            if proc._generator is not None:
                proc._generator = tracer.timed_gen(
                    proc._generator,
                    layer_of_file(proc._generator.gi_code.co_filename))

        self._patch(process.Process, "__init__", init)
        first_step = process.Process.__dict__["_first_step"]
        step = process.Process.__dict__["_step"]

        # A step runs on behalf of the operation its event carried; the
        # operation a measured lookup sets inside a step ends with it.
        def run_first_step(proc):
            plain = proc._plain_callable
            if plain is not None:
                proc._plain_callable = lambda: tracer.call_plain(plain)
            previous, tracer.proc = tracer.proc, proc
            op = tracer.op
            try:
                first_step(proc)
            finally:
                tracer.proc = previous
                tracer.op = op

        def run_step(proc, value, exc):
            previous, tracer.proc = tracer.proc, proc
            op = tracer.op
            try:
                step(proc, value, exc)
            finally:
                tracer.proc = previous
                tracer.op = op

        self._patch(process.Process, "_first_step", timed("sim.step", run_first_step))
        self._patch(process.Process, "_step", timed("sim.step", run_step))

        # net: the send path (latency, loss, host load run inside it) and
        # the delivery callback the network hands to the kernel.
        self._wrap_method(network.Network, "send", "net.send")
        self._wrap_method(network.Network, "transfer", "net.send")
        self._wrap_method(network.Network, "_deliver", "net.deliver")

        # bw: the model's entry points, its completion callback and the
        # allocators.
        for attr in ("transfer", "cancel_transfer", "cancel_host",
                     "_on_completion_tick", "_allocate_rates"):
            self._wrap_method(bandwidth.BandwidthModel, attr, "bw.alloc")
        for cls in vars(bwalloc).values():
            if isinstance(cls, type) and "allocate" in cls.__dict__:
                self._wrap_method(cls, "allocate", "bw.alloc")

        # rpc: client calls, the listener, the timeout callback; handlers
        # registered with a service run in their own layer's span.
        for attr in ("call", "a_call", "batch_call", "ping", "_on_message"):
            if attr in rpc.RpcService.__dict__:
                self._wrap_method(rpc.RpcService, attr, "rpc")
        self._wrap_method(rpc._PendingCall, "on_timeout", "rpc")
        register = rpc.RpcService.__dict__["register"]

        def register_handler(service, name, handler):
            register(service, name, timed(tracer.layer_of(handler), handler))

        self._patch(rpc.RpcService, "register", register_handler)

        # ser: size estimation is the serializer's per-message work.
        estimate = serializer.estimate_size
        traced_estimate = timed("ser", estimate)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") \
                    and getattr(module, "estimate_size", None) is estimate:
                self._patch(module, "estimate_size", traced_estimate)

        # sock
        for attr in ("send", "transfer", "_dispatch"):
            self._wrap_method(sbsocket.RestrictedSocket, attr,
                              "sock.send" if attr == "send" else "sock")

        # ctl: every method of the control-plane classes; placement is
        # reported on its own.
        for cls in (controller.Controller, jobstore.JobStore, jobstore.CtlShard,
                    jobstore.LogCollector, splayd.Splayd, churn.ChurnManager):
            self._wrap_class(cls, "ctl")
        self._patch(jobstore.JobStore, "plan_placements",
                    timed("ctl.placement",
                          getattr(jobstore.JobStore.plan_placements, WRAPPED)))

        # app: deployment, testbed build, reports, and the measured ops.
        deploy = harness.deploy

        def deploy_app(name, app_factory, *args, **kwargs):
            # Instances are built by the control plane, but building one is
            # application work.
            return deploy(name, timed("app", app_factory), *args, **kwargs)

        self._patch(harness, "deploy", timed("app.deploy", deploy_app))
        self._patch(harness, "base_report", timed("app", harness.base_report))
        self._patch(harness, "summarise", timed("app", harness.summarise))
        self._wrap_method(testbed_spec.TestbedSpec, "build", "testbed.build")
        for cls in (chord.ChordNode, pastry.PastryNode):
            self._patch(cls, "lookup", self._measured_lookup(cls.__dict__["lookup"]))
        self._patch(gossip.GossipNode, "publish",
                    self._measured_broadcast(gossip.GossipNode.__dict__["publish"]))
        self._patch(dissemination.SwarmNode, "_fetch_loop",
                    self._measured_download(dissemination.SwarmNode.__dict__["_fetch_loop"]))

        gc.callbacks.append(self._on_gc)
        return self

    def _measured_lookup(self, lookup):
        tracer = self

        def traced_lookup(node, key):
            proc = tracer.proc
            if proc is None or proc.name not in MEASURED_DRIVERS:
                return (yield from lookup(node, key))
            op = tracer.begin_op("lookup", key, node.events.sim.now)
            tracer.op = op
            try:
                return (yield from lookup(node, key))
            finally:
                op.sim_end = node.events.sim.now
                tracer.op = None

        setattr(traced_lookup, WRAPPED, lookup)
        return traced_lookup

    def _measured_broadcast(self, publish):
        tracer = self

        def traced_publish(node, message_id):
            proc = tracer.proc
            if proc is None or proc.name not in MEASURED_DRIVERS:
                return publish(node, message_id)
            op = tracer.begin_op("broadcast", message_id, node.events.sim.now)
            previous, tracer.op = tracer.op, op
            try:
                return publish(node, message_id)
            finally:
                tracer.op = previous

        setattr(traced_publish, WRAPPED, publish)
        return traced_publish

    def _measured_download(self, fetch_loop):
        tracer = self

        def traced_fetch_loop(node):
            if node.is_seed:
                return (yield from fetch_loop(node))
            op = tracer._ops_by_node.get(id(node))
            if op is None:
                op = tracer._ops_by_node[id(node)] = tracer.begin_op(
                    "download", str(node.me), node.started_at)
            tracer.op = op
            try:
                return (yield from fetch_loop(node))
            finally:
                op.sim_end = node.completed_at
                tracer.op = None

        setattr(traced_fetch_loop, WRAPPED, fetch_loop)
        return traced_fetch_loop

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def to_dict(self) -> dict:
        return {"spans": {name: {"layer": s.layer, "calls": s.calls,
                                 "self_s": s.self_s, "total_s": s.total_s}
                          for name, s in sorted(self.spans.items())},
                "ops": [op.to_dict() for op in self.ops]}


def find_wrappers() -> List[str]:
    """Names of tracer wrappers still reachable from ``repro`` (should be [])."""
    found = []
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if hasattr(value, WRAPPED):
                found.append(f"{module_name}.{attr}")
            if isinstance(value, type) and value.__module__ == module_name:
                found.extend(f"{module_name}.{attr}.{method}"
                             for method, member in vars(value).items()
                             if hasattr(member, WRAPPED))
    return found
