"""Message-level network connecting hosts, daemons and applications.

The :class:`Network` owns the host registry, the latency/loss/bandwidth
models and the endpoint (listener) table.  Small control messages (RPCs,
protocol messages) are delivered individually with a per-message delay; bulk
payloads go through the flow-level :class:`~repro.net.bandwidth.BandwidthModel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.net.address import Address
from repro.net.bandwidth import BandwidthModel, UNLIMITED_BPS
from repro.net.bwalloc import BULK, LOOKUP
from repro.net.latency import ConstantLatency, LatencyModel
from repro.net.loss import LossModel
from repro.net.message import Message
from repro.sim.events_api import AppContext
from repro.sim.futures import Future
from repro.sim.kernel import Simulator
from repro.sim.rng import substream


@dataclass(slots=True)
class NetworkStats:
    """Counters maintained by the network (exposed to benchmarks and tests)."""

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    bytes_sent: int = 0
    handler_errors: int = 0
    transfers_started: int = 0
    # Drop-cause split (sums to messages_dropped): dead endpoint hosts,
    # loss-model drops, and missing/dead destination listeners.  Surfaced in
    # the digest-excluded ``metrics`` report section only.
    drops_dead_host: int = 0
    drops_loss: int = 0
    drops_no_listener: int = 0
    #: bytes offered per bwalloc priority class (messages and transfers);
    #: digest-excluded ``metrics`` report section only
    bytes_by_class: Dict[int, int] = field(default_factory=dict)
    last_errors: List[str] = field(default_factory=list)

    def record_error(self, error: str, cap: int = 20) -> None:
        self.handler_errors += 1
        self.last_errors.append(error)
        if len(self.last_errors) > cap:
            del self.last_errors[0]


@dataclass(slots=True)
class Listener:
    """A registered message handler for one endpoint."""

    address: Address
    handler: Callable[[Message], Any]
    context: Optional[AppContext] = None

    @property
    def alive(self) -> bool:
        return self.context is None or self.context.alive


class Network:
    """The simulated network substrate.

    Parameters
    ----------
    sim:
        Simulation kernel providing the clock.
    latency:
        Latency model; defaults to a 1 ms constant one-way delay.
    loss:
        Loss model; defaults to lossless.
    bandwidth:
        Flow-level bandwidth model used for :meth:`transfer`; created lazily
        with unlimited capacities if not provided.
    jitter:
        Fractional per-message jitter (e.g. ``0.1`` adds up to 10 % of the
        base delay, uniformly).
    strict:
        If ``True``, exceptions raised by message handlers propagate (useful
        in unit tests); otherwise they are recorded in :attr:`stats`.
    """

    def __init__(self, sim: Simulator, latency: Optional[LatencyModel] = None,
                 loss: Optional[LossModel] = None, bandwidth: Optional[BandwidthModel] = None,
                 jitter: float = 0.0, strict: bool = False, seed: Optional[int] = None):
        self.sim = sim
        self.latency = latency or ConstantLatency(0.001)
        self.loss = loss or LossModel(seed=seed if seed is not None else sim.seed)
        self.bandwidth = bandwidth or BandwidthModel(sim)
        self.jitter = jitter
        self.strict = strict
        self.hosts: Dict[str, Any] = {}
        self.stats = NetworkStats()
        # Keyed by (ip, port) tuples rather than Address objects: tuple
        # hashing/equality run in C (the IPs are interned strings, so probes
        # are pointer compares), and this dict sits on the per-message path.
        self._listeners: Dict[tuple, Listener] = {}
        self._rng = substream(seed if seed is not None else sim.seed, "network-jitter")
        # processing-delay hooks resolved once per host at registration time —
        # a hasattr() probe per message was measurable on the send hot path
        self._proc_delay: Dict[str, Any] = {}
        #: runtime sanitizer (repro.sim.sanitizer) or None
        self._san: Optional[Any] = None

    # ----------------------------------------------------------------- hosts
    def add_host(self, host: Any) -> None:
        """Register a host object (must expose ``ip`` and ``alive``).

        A ``processing_delay(size) -> seconds`` hook is picked up here; to
        attach one *after* registration, use :meth:`set_processing_delay`
        (the hook is resolved once, not probed per message).
        """
        self.hosts[host.ip] = host
        hook = getattr(host, "processing_delay", None)
        if hook is not None:
            self._proc_delay[host.ip] = hook

    def set_processing_delay(self, ip: str, hook: Any) -> None:
        """Attach (or clear, with ``None``) a host-load delay hook for ``ip``."""
        if hook is None:
            self._proc_delay.pop(ip, None)
        else:
            self._proc_delay[ip] = hook

    def remove_host(self, ip: str) -> None:
        self.hosts.pop(ip, None)
        self._proc_delay.pop(ip, None)
        self.bandwidth.cancel_host(ip)
        for key in [k for k in self._listeners if k[0] == ip]:
            del self._listeners[key]
        if self._san is not None:
            self._san.check_listener_table(self)

    def host(self, ip: str) -> Any:
        return self.hosts[ip]

    def host_alive(self, ip: str) -> bool:
        host = self.hosts.get(ip)
        return bool(host is not None and getattr(host, "alive", True))

    # ------------------------------------------------------------- listeners
    def listen(self, address: Address, handler: Callable[[Message], Any],
               context: Optional[AppContext] = None) -> Listener:
        """Register ``handler`` for messages addressed to ``address``."""
        key = (address.ip, address.port)
        existing = self._listeners.get(key)
        if existing is not None and existing.alive:
            raise ValueError(f"address already in use: {address}")
        listener = Listener(address=address, handler=handler, context=context)
        self._listeners[key] = listener
        if context is not None:
            context.add_cleanup(lambda: self.unlisten(address))
        return listener

    def unlisten(self, address: Address) -> None:
        self._listeners.pop((address.ip, address.port), None)

    def listener(self, address: Address) -> Optional[Listener]:
        return self._listeners.get((address.ip, address.port))

    def is_listening(self, address: Address) -> bool:
        listener = self._listeners.get((address.ip, address.port))
        return listener is not None and listener.alive

    # ------------------------------------------------------------------ send
    def send(self, src: Address, dst: Address, payload: Any, size: int,
             kind: str = "data", priority: int = LOOKUP) -> Future:
        """Send one message; the returned future completes with ``True`` on delivery.

        Delivery requires the source and destination hosts to be alive and a
        live listener on the destination endpoint.  Messages may also be
        dropped by the loss model.  The sender is *not* notified of drops
        (the future is a convenience for tests and for the RPC layer's
        timeout bookkeeping); this mirrors datagram semantics.
        """
        outcome = Future()  # naming 250k+ futures per run was measurable
        stats = self.stats
        stats.messages_sent += 1
        stats.bytes_sent += size
        by_class = stats.bytes_by_class
        by_class[priority] = by_class.get(priority, 0) + size

        # Aliveness probes are inlined (self.host_alive is a method call per
        # probe, and this path runs once per simulated message).
        hosts = self.hosts
        src_ip = src.ip
        dst_ip = dst.ip
        src_host = hosts.get(src_ip)
        src_alive = src_host is not None and getattr(src_host, "alive", True)
        if src_ip == dst_ip:
            # Loopback fast path: the payload is handed to the listener by
            # reference (never encoded) and one aliveness probe covers both
            # endpoints.  The loss model still gets its draw so that seeded
            # runs are unaffected by which path a message takes.
            if not src_alive:
                stats.messages_dropped += 1
                stats.drops_dead_host += 1
                outcome.set_result(False)
                return outcome
        else:
            dst_host = hosts.get(dst_ip)
            if not src_alive or dst_host is None \
                    or not getattr(dst_host, "alive", True):
                stats.messages_dropped += 1
                stats.drops_dead_host += 1
                outcome.set_result(False)
                return outcome
        if self.loss.should_drop(src_ip, dst_ip):
            stats.messages_dropped += 1
            stats.drops_loss += 1
            outcome.set_result(False)
            return outcome

        message = Message(src=src, dst=dst, payload=payload, size=size, kind=kind,
                          sent_at=self.sim.now, priority=priority)
        delay = self._message_delay(src, dst, size)
        self.sim.schedule(delay, self._deliver, message, outcome)
        return outcome

    def _message_delay(self, src: Address, dst: Address, size: int) -> float:
        src_ip = src.ip
        dst_ip = dst.ip
        delay = self.latency.one_way(src_ip, dst_ip)
        if self.jitter:
            delay += delay * self._rng.uniform(0.0, self.jitter)
        # Transmission time over the narrower of the two access links
        # (loopback needs a single capacity lookup: both ends are one host).
        # Capacity probes are inlined dict lookups: this runs per message.
        bandwidth = self.bandwidth
        capacities = bandwidth._capacities
        if src_ip == dst_ip:
            entry = capacities.get(src_ip)
            if entry is not None:
                up, down = entry
            else:
                up = bandwidth.default_uplink_bps
                down = bandwidth.default_downlink_bps
        else:
            entry = capacities.get(src_ip)
            up = entry[0] if entry is not None else bandwidth.default_uplink_bps
            entry = capacities.get(dst_ip)
            down = entry[1] if entry is not None else bandwidth.default_downlink_bps
        narrow = up if up < down else down
        if narrow < UNLIMITED_BPS and size > 0:
            delay += size * 8.0 / narrow
        # Receiver/sender-side processing delay (host load, swap penalty, ...).
        if self._proc_delay:
            dst_hook = self._proc_delay.get(dst_ip)
            if dst_hook is not None:
                delay += max(0.0, dst_hook(size))
            src_hook = self._proc_delay.get(src_ip)
            if src_hook is not None:
                delay += max(0.0, src_hook(size))
        return delay

    def _deliver(self, message: Message, outcome: Future) -> None:
        dst = message.dst
        host = self.hosts.get(dst.ip)
        if host is None or not getattr(host, "alive", True):
            self.stats.messages_dropped += 1
            self.stats.drops_dead_host += 1
            outcome.set_result(False)
            return
        listener = self._listeners.get((dst.ip, dst.port))
        if listener is None:
            self.stats.messages_dropped += 1
            self.stats.drops_no_listener += 1
            outcome.set_result(False)
            return
        context = listener.context
        if context is not None and not context.alive:
            self.stats.messages_dropped += 1
            self.stats.drops_no_listener += 1
            outcome.set_result(False)
            return
        try:
            listener.handler(message)
        except Exception as exc:  # noqa: BLE001 - handler bugs must not kill the run
            if self.strict:
                raise
            self.stats.record_error(f"{message.dst}: {exc!r}")
            outcome.set_result(False)
            return
        self.stats.messages_delivered += 1
        outcome.set_result(True)

    # -------------------------------------------------------------- transfers
    def transfer(self, src: Address, dst: Address, nbytes: float,
                 priority: int = BULK) -> Future:
        """Bulk transfer through the flow-level bandwidth model.

        The returned future completes with the finish time when the last byte
        arrives, or is cancelled if either host fails mid-transfer.  The
        ``priority`` class is what priority-aware allocators schedule by.
        """
        result = Future()  # unnamed: transfers are hot in dissemination runs
        if not self.host_alive(src.ip) or not self.host_alive(dst.ip):
            result.cancel()
            return result
        stats = self.stats
        stats.transfers_started += 1
        by_class = stats.bytes_by_class
        by_class[priority] = by_class.get(priority, 0) + int(nbytes)
        propagation = self.latency.one_way(src.ip, dst.ip)
        transfer = self.bandwidth.transfer(src.ip, dst.ip, nbytes,
                                           priority=priority)

        def _complete(fut: Future) -> None:
            if fut.cancelled():
                result.cancel()
                return
            # The last byte still needs one propagation delay to arrive.
            self.sim.schedule(propagation, result.set_result, self.sim.now + propagation)

        transfer.done.add_done_callback(_complete)
        return result

    # --------------------------------------------------------------- queries
    def one_way_delay(self, src_ip: str, dst_ip: str) -> float:
        """Base one-way delay between two hosts (no jitter, no processing)."""
        return self.latency.one_way(src_ip, dst_ip)

    def rtt(self, src_ip: str, dst_ip: str) -> float:
        return self.latency.rtt(src_ip, dst_ip)
