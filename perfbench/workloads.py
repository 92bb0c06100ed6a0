"""The four benchmark workloads.

Every workload builds one ``build_testbed`` federation with runtimes on
their default constructor arguments and drives it through public APIs
only.  Inputs (arrival times, payloads, targets) come from a
``random.Random`` seeded by the caller; the system under test sees only
the generated inputs.  Load is open-loop on the simulated clock: a kernel
process issues each op at its due time, and the op completes when a
delivery callback stamps ``kernel.now``.  See ``README.md`` for why each
workload exists.
"""

from __future__ import annotations

import random
import time
from collections import deque
from contextlib import nullcontext
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from repro.bridges import BluetoothMapper, UPnPMapper
from repro.core.directory import DirectoryListener
from repro.core.messages import UMessage
from repro.core.query import Query
from repro.core.translator import Translator
from repro.platforms.bluetooth import HidMouse, Piconet
from repro.platforms.upnp import make_binary_light
from repro.testbed import build_testbed

from tracer import SpanRecorder, wrap

__all__ = ["WORKLOADS", "Harness", "Workload"]


class Harness:
    """Op bookkeeping on the simulated clock.

    ``issue`` stamps an op's due time, ``complete`` its completion; a
    second completion, or one for an op never issued, is a violation.
    The backlog (issued minus completed) only grows at ``issue``, so its
    maximum is exact without a sampling process.
    """

    def __init__(self, kernel, recorder: Optional[SpanRecorder] = None):
        self.kernel = kernel
        self.recorder = recorder
        self.due: Dict[Hashable, float] = {}
        self.done: Dict[Hashable, float] = {}
        self.violations: List[str] = []
        self.backlog_max = 0

    def issue(self, op: Hashable) -> None:
        self.due[op] = self.kernel.now
        backlog = len(self.due) - len(self.done)
        if backlog > self.backlog_max:
            self.backlog_max = backlog

    def complete(self, op: Hashable) -> None:
        if op not in self.due:
            self.violation(f"completion of an op never issued: {op!r}")
        elif op in self.done:
            self.violation(f"op completed twice: {op!r}")
        else:
            self.done[op] = self.kernel.now

    def violation(self, text: str) -> None:
        self.violations.append(text)

    @property
    def outstanding(self) -> int:
        return len(self.due) - len(self.done)

    def callback(self, function: Callable) -> Callable:
        """Delivery callbacks are benchmark code: in a traced run they get
        their own span so their time is not charged to the kernel."""
        if self.recorder is None:
            return function
        return wrap(self.recorder, function, "harness.callback")

    def issuing(self, op_index: int):
        """Context for the call that issues op ``op_index``: in a traced
        run, a ``harness.issue`` span whose descendants carry the op id."""
        if self.recorder is None:
            return nullcontext()
        return self.recorder.span("harness.issue", op=op_index)


class Workload:
    """One workload instance: ``setup`` (timed as set-up), ``start`` the
    load, run the kernel until ``finished``, then ``check``."""

    name = ""
    #: Simulated seconds past the last due time before missing ops fail.
    GRACE_S = 60.0
    #: Poisson rate (per simulated second) of the timed lookup stream that
    #: runs beside the load, and the roles it asks for.
    LOOKUP_RATE = 100.0
    LOOKUP_ROLES: Tuple[str, ...] = ()

    def __init__(self, rng: random.Random, recorder: Optional[SpanRecorder] = None):
        self.rng = rng
        self.recorder = recorder
        self.bed = None
        self.harness: Optional[Harness] = None
        self.lookup_us: List[float] = []
        self.notifications = 0
        #: Offset of the last due time and the lookup schedule, from
        #: :meth:`prepare`; the sim time of the last due op, from :meth:`start`.
        self.span = 0.0
        self.lookup_plan: List[Tuple[float, float, str]] = []
        self.last_due = 0.0
        self._streams = 0

    # -- shared scaffolding ---------------------------------------------------

    def _testbed(self, hosts: List[str]):
        self.bed = build_testbed(hosts=hosts)
        # The testbed's trace recorder keeps every record in memory; it is
        # a debugging aid that a deployed runtime does not run.
        self.bed.network.trace.enabled = False
        self.harness = Harness(self.bed.kernel, self.recorder)
        return self.bed

    def _listen(self, runtime, on_added: Callable = None) -> None:
        """Count directory notifications at ``runtime`` (Figure 6-2 API)."""
        harness = self.harness

        def added(profile):
            self.notifications += 1
            if on_added is not None:
                on_added(profile)

        def changed(_old, _new):
            self.notifications += 1

        def removed(_profile):
            self.notifications += 1

        runtime.add_directory_listener(DirectoryListener.from_callbacks(
            added=harness.callback(added),
            removed=harness.callback(removed),
            changed=harness.callback(changed),
        ))

    def _wait(self, due: float):
        kernel = self.bed.kernel
        if due > kernel.now:
            yield kernel.timeout(due - kernel.now)

    def _spawn(self, generator, name: str) -> None:
        """Run one load stream; the load is done when every stream is."""
        def stream():
            yield from generator
            self._streams -= 1

        self._streams += 1
        self.bed.kernel.process(stream(), name=name)

    def _lookups(self, base: float):
        """Figure 6-1 lookups at their due times, each timed on the wall clock."""
        runtimes = list(self.bed.runtimes.values())
        queries = {role: Query(role=role) for role in self.LOOKUP_ROLES}
        clock, samples = time.perf_counter, self.lookup_us
        for offset, pick, role in self.lookup_plan:
            yield from self._wait(base + offset)
            runtime = runtimes[int(pick * len(runtimes))]
            if runtime.crashed:
                continue
            started = clock()
            runtime.lookup(queries[role])
            samples.append((clock() - started) * 1e6)

    # -- interface ---------------------------------------------------------------

    def prepare(self) -> None:
        """Draw every input from the seed, before set-up is timed."""
        self.span = self.plan()
        # Lookups are planned through the grace period; the stream is not
        # load, so the run ends when the load completes, wherever it is.
        rng, self.lookup_plan = self.rng, []
        offset = rng.expovariate(self.LOOKUP_RATE)
        while offset < self.span + self.GRACE_S:
            self.lookup_plan.append((offset, rng.random(), rng.choice(self.LOOKUP_ROLES)))
            offset += rng.expovariate(self.LOOKUP_RATE)

    def plan(self) -> float:
        """Draw this workload's inputs as offsets from the start of the
        measured phase; return the offset of the last due time."""
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def start(self) -> None:
        """Start the measured phase: spawn the load and the lookup stream."""
        base = self.bed.kernel.now
        self.last_due = base + self.span
        self.spawn_load(base)
        self.bed.kernel.process(self._lookups(base), name="bench-lookups")

    def spawn_load(self, base: float) -> None:
        raise NotImplementedError

    def finished(self) -> bool:
        return self._streams == 0 and self.harness.outstanding == 0

    def deadline(self) -> float:
        return self.last_due + self.GRACE_S

    def check(self) -> None:
        """Post-run correctness checks; violations go to the harness."""

    def counters(self) -> Dict:
        bed = self.bed
        runtimes = list(bed.runtimes.values())
        return {
            "batches_sent": sum(r.transport.batches_sent for r in runtimes),
            "retries": sum(r.transport.retries for r in runtimes),
            "spool_dropped": sum(r.transport.spool_dropped for r in runtimes),
            "duplicates_suppressed": sum(
                r.transport.duplicates_suppressed for r in runtimes),
            "codec_frames_sent": sum(
                r.transport.codec_frames_sent + r.directory.codec_frames_sent
                for r in runtimes),
            "journal_records": sum(r.journal.records_appended for r in runtimes),
            "journal_bytes": sum(r.journal.bytes_written for r in runtimes),
            "journal_checkpoints": sum(r.journal.checkpoints for r in runtimes),
            "frames_transmitted": sum(
                m.frames_transmitted for m in bed.network.media.values()),
            "frames_dropped": sum(
                m.frames_dropped for m in bed.network.media.values()),
            "wire_bytes": bed.lan.bytes_transmitted,
            "kernel_events": bed.kernel.processed_events,
            "directory_notifications": self.notifications,
        }

    def final_counters(self) -> Dict:
        """Gauges read once at the end (not differenced over the phase)."""
        runtimes = [r for r in self.bed.runtimes.values() if not r.crashed]
        return {
            "profiles_per_node": sum(len(r.directory.profiles()) for r in runtimes)
            / max(len(runtimes), 1),
            "mapping_durations_s": [],
            "actions_served": 0,
        }


# ---------------------------------------------------------------------------
# telemetry_fanout and burst_backlog: one sensor, N peers
# ---------------------------------------------------------------------------

MIME_TELEMETRY = "application/x-umiddle-telemetry"
SITES = ("north-wing", "south-wing", "atrium", "lab", "plant-room")
QUANTITIES = (("temperature", "celsius"), ("humidity", "percent"),
              ("co2", "ppm"), ("lux", "lux"))


class _Fanout(Workload):
    """A sensor runtime sends structured telemetry dicts to ``PEERS`` peer
    runtimes over one application path each.  An op is one (message,
    peer) delivery; deliveries must arrive exactly once and in order."""

    PEERS = 0
    LOOKUP_RATE = 200.0
    LOOKUP_ROLES = ("display", "sensor")

    def due_offsets(self) -> List[float]:
        raise NotImplementedError

    def plan(self) -> float:
        self.offsets = self.due_offsets()
        self.payloads = [self._payload(seq) for seq in range(len(self.offsets))]
        return self.offsets[-1]

    def setup(self) -> None:
        peers = [f"peer{i:02d}" for i in range(self.PEERS)]
        bed = self._testbed(["sensor"] + peers)
        producer = bed.add_runtime("sensor")
        source = Translator("telemetry-source", role="sensor")
        self.out = source.add_digital_output("readings", MIME_TELEMETRY)
        producer.register_translator(source)
        self._last_seq = [-1] * self.PEERS
        sinks = []
        for index, host in enumerate(peers):
            runtime = bed.add_runtime(host)
            sink = Translator(f"dashboard-{index}", role="display")
            sink.add_digital_input(
                "readings", MIME_TELEMETRY,
                self.harness.callback(self._receiver(index)),
            )
            runtime.register_translator(sink)
            sinks.append(sink)
            self._listen(runtime)
        bed.settle(2.0)
        for sink in sinks:
            producer.connect(self.out, sink.profile.port_ref("readings"))
        bed.settle(1.0)

    def _payload(self, seq: int) -> dict:
        rng = self.rng
        quantity, unit = rng.choice(QUANTITIES)
        return {
            "kind": "reading",
            "site": rng.choice(SITES),
            "room": rng.randrange(1, 400),
            "quantity": quantity,
            "unit": unit,
            "value": round(rng.uniform(0.0, 1000.0), rng.randrange(0, 4)),
            "seq": seq,
        }

    def _receiver(self, peer: int):
        harness = self.harness
        last = self._last_seq

        def receive(message: UMessage) -> None:
            seq = message.payload["seq"]
            if seq != last[peer] + 1:
                harness.violation(
                    f"peer {peer}: seq {seq} after {last[peer]} (order or gap)")
            last[peer] = max(last[peer], seq)
            harness.complete((peer, seq))

        return receive

    def spawn_load(self, base: float) -> None:
        self._spawn(self._sender(base), "bench-telemetry")

    def _sender(self, base: float):
        harness, out, peers = self.harness, self.out, range(self.PEERS)
        for seq, offset in enumerate(self.offsets):
            yield from self._wait(base + offset)
            for peer in peers:
                harness.issue((peer, seq))
            with harness.issuing(seq):
                out.send(UMessage(MIME_TELEMETRY, self.payloads[seq]))


class TelemetryFanout(_Fanout):
    name = "telemetry_fanout"
    PEERS = 8
    RATE = 200.0
    MESSAGES = 750

    def due_offsets(self) -> List[float]:
        times, now = [], 0.0
        for _ in range(self.MESSAGES):
            now += self.rng.expovariate(self.RATE)
            times.append(now)
        return times


class BurstBacklog(_Fanout):
    """One burst per repetition; the spool drains in about 1.4 s."""

    name = "burst_backlog"
    PEERS = 32
    BURST_SIZE = 200  # under Transport.SPOOL_CAPACITY (256)
    #: Arrival rate inside a burst: 200 messages land within ~50 ms.
    BURST_RATE = 4000.0

    def due_offsets(self) -> List[float]:
        times, now = [], 0.0
        for _ in range(self.BURST_SIZE):
            now += self.rng.expovariate(self.BURST_RATE)
            times.append(now)
        return times


# ---------------------------------------------------------------------------
# directory_churn: flat directory, registrations vs. lookups vs. replay
# ---------------------------------------------------------------------------

MIME_CHURN = "application/x-umiddle-churn"
ROLES = ("display", "speaker", "sensor", "camera")


class DirectoryChurn(Workload):
    """16 runtimes on the flat directory.  Each holds standing
    ``connect_query`` bindings for two of four roles and registers
    translators in waves, unregistering some; a lookup stream runs beside
    them and one runtime is cold-crashed and recovered mid-run.  An op is
    one registration becoming visible at one subscribed remote runtime."""

    name = "directory_churn"
    RUNTIMES = 16
    WAVES = 36
    WAVE_S = 1.0
    #: Registration rate inside a wave (one registration per runtime).
    WAVE_RATE = 2000.0
    UNREGISTER_P = 0.3
    LOOKUP_ROLES = ROLES
    CRASH_WAVE = 5
    DOWN_S = 2.0
    #: Simulated settle time before the final lookup-vs-oracle check.
    SETTLE_S = 12.0

    def setup(self) -> None:
        hosts = [f"n{i:02d}" for i in range(self.RUNTIMES)]
        bed = self._testbed(hosts)
        self.runtimes = [bed.add_runtime(host) for host in hosts]
        self.interest = []
        for index, runtime in enumerate(self.runtimes):
            roles = {ROLES[index % len(ROLES)], ROLES[(index + 1) % len(ROLES)]}
            self.interest.append(roles)
            self._listen(runtime, self._visibility(index))
        bed.settle(3.0)
        for index, runtime in enumerate(self.runtimes):
            panel = Translator(f"panel-{index}", role="controller")
            out = panel.add_digital_output("out", MIME_CHURN)
            runtime.register_translator(panel)
            for role in sorted(self.interest[index]):
                runtime.connect_query(out, Query(role=role))
        bed.settle(2.0)
        #: translator_id -> (owner index, role, translator) for live ones.
        self.live: Dict[str, Tuple[int, str, Translator]] = {}
        self.unregistered = 0

    def plan(self) -> float:
        rng = self.rng
        self.crash_index = rng.randrange(1, self.RUNTIMES)
        self.registrations = []  # (due offset, runtime index, role)
        for wave in range(self.WAVES):
            # A wave: every runtime registers within a few milliseconds (a
            # floor powering up), so the announcements contend for the LAN.
            offset = wave * self.WAVE_S
            for index in rng.sample(range(self.RUNTIMES), self.RUNTIMES):
                offset += rng.expovariate(self.WAVE_RATE)
                self.registrations.append((offset, index, rng.choice(ROLES)))
        self.unregistrations = []  # (due offset, runtime index, pick)
        for wave in range(3, self.WAVES):
            for index in range(self.RUNTIMES):
                if rng.random() < self.UNREGISTER_P:
                    offset = (wave + rng.random()) * self.WAVE_S
                    self.unregistrations.append((offset, index, rng.random()))
        self.unregistrations.sort()
        return self.WAVES * self.WAVE_S

    def _visibility(self, index: int):
        def on_added(profile) -> None:
            op = (profile.translator_id, index)
            harness = self.harness
            if op in harness.due and op not in harness.done:
                harness.complete(op)
        return on_added

    def _down(self, index: int) -> bool:
        return self.runtimes[index].crashed

    def spawn_load(self, base: float) -> None:
        self._spawn(self._registrar(base), "bench-register")
        self._spawn(self._unregistrar(base), "bench-unregister")
        self._spawn(self._crasher(base), "bench-crash")

    def _registrar(self, base: float):
        harness = self.harness
        for number, (offset, index, role) in enumerate(self.registrations):
            yield from self._wait(base + offset)
            if self._down(index):
                continue  # a dead runtime registers nothing
            translator = Translator(f"dev{number}-{role}", role=role)
            translator.add_digital_input(
                "in", MIME_CHURN, harness.callback(lambda _message: None))
            tid = translator.translator_id
            for other, roles in enumerate(self.interest):
                if other != index and role in roles:
                    harness.issue((tid, other))
            with harness.issuing(number):
                self.runtimes[index].register_translator(translator)
            self.live[tid] = (index, role, translator)

    def _settled(self, tid: str) -> bool:
        harness = self.harness
        index, role, _translator = self.live[tid]
        return all(
            (tid, other) in harness.done
            for other, roles in enumerate(self.interest)
            if other != index and role in roles
        )

    def _unregistrar(self, base: float):
        for offset, index, pick in self.unregistrations:
            yield from self._wait(base + offset)
            if self._down(index):
                continue
            # Only translators every subscriber has already seen: an op
            # cancelled by its own unregistration would have no outcome.
            eligible = sorted(
                tid for tid, (owner, _role, _t) in self.live.items()
                if owner == index and self._settled(tid)
            )
            if not eligible:
                continue
            tid = eligible[int(pick * len(eligible))]
            _owner, _role, translator = self.live.pop(tid)
            self.runtimes[index].unregister_translator(translator)
            self.unregistered += 1

    def _crasher(self, base: float):
        victim = self.runtimes[self.crash_index]
        yield from self._wait(base + (self.CRASH_WAVE + 0.5) * self.WAVE_S)
        victim.crash(lose_state=True)
        yield self.bed.kernel.timeout(self.DOWN_S)
        victim.recover()

    def check(self) -> None:
        """Every runtime's lookup equals the oracle built from the
        benchmark's own registry of live translators."""
        self.bed.settle(self.SETTLE_S)
        for role in ROLES:
            expected = {tid for tid, (_o, r, _t) in self.live.items() if r == role}
            for index, runtime in enumerate(self.runtimes):
                got = {p.translator_id for p in runtime.lookup(Query(role=role))}
                if got != expected:
                    self.harness.violation(
                        f"n{index:02d} lookup(role={role}): "
                        f"{len(got - expected)} extra, {len(expected - got)} missing")

    def final_counters(self) -> Dict:
        counters = super().final_counters()
        counters["unregistered"] = self.unregistered
        return counters


# ---------------------------------------------------------------------------
# device_bridging: Section 5.2 / Fig 10 at small-building scale
# ---------------------------------------------------------------------------

MIME_SWITCH = "application/x-umiddle-switch"
MIME_CLICK = "application/x-umiddle-click"


class DeviceBridging(Workload):
    """A UPnP bridge runtime fronts 12 binary lights, a Bluetooth bridge
    runtime 4 HID mice.  A controller runtime sends Poisson scenes of
    switch commands to the lights over application paths, and mouse
    clicks are routed back to it.  An op is one light action (completed
    when the device applies it) or one click arriving at the controller."""

    name = "device_bridging"
    LIGHTS = 12
    MICE = 4
    #: Scenes: a panel press switching a random subset of the lights.
    SCENE_RATE = 1.0
    #: Commands per second the panel issues while working through a scene.
    PANEL_RATE = 2000.0
    SCENES = 250
    CLICK_RATE = 2.0
    CLICKS = 500
    GRACE_S = 30.0
    LOOKUP_RATE = 10.0
    LOOKUP_ROLES = ("light", "pointer")

    def setup(self) -> None:
        devices = [f"light-host{i:02d}" for i in range(self.LIGHTS)]
        bed = self._testbed(["upnp-bridge", "bt-bridge", "controller"] + devices)
        cal = bed.calibration
        upnp_rt = bed.add_runtime("upnp-bridge")
        bt_rt = bed.add_runtime("bt-bridge")
        self.controller = bed.add_runtime("controller")
        for runtime in (upnp_rt, bt_rt, self.controller):
            self._listen(runtime)
        self.lights = []
        self.inflight: List[Optional[Tuple[int, str]]] = [None] * self.LIGHTS
        self.queued: List[deque] = [deque() for _ in range(self.LIGHTS)]
        self.last_power = ["0"] * self.LIGHTS
        for index, host in enumerate(devices):
            light = make_binary_light(bed.hosts[host], cal, friendly_name=f"Light {index}")
            self._observe(light, index)
            light.start()
            self.lights.append(light)
        piconet = Piconet(bed.network, cal)
        self.mice = [HidMouse(piconet, cal, name=f"mouse-{i}") for i in range(self.MICE)]
        self.mappers = [
            upnp_rt.add_mapper(UPnPMapper(upnp_rt)),
            bt_rt.add_mapper(BluetoothMapper(bt_rt, piconet)),
        ]
        light_profiles = self._await_profiles("light", self.LIGHTS)
        mouse_profiles = self._await_profiles("pointer", self.MICE)
        by_udn = {light.description.udn: i for i, light in enumerate(self.lights)}
        panel = Translator("control-panel", role="controller")
        self.switches = []
        for index in range(self.LIGHTS):
            self.switches.append((panel.add_digital_output(f"on-{index}", MIME_SWITCH),
                                  panel.add_digital_output(f"off-{index}", MIME_SWITCH)))
        self.pending_clicks: List[List[int]] = [[] for _ in range(self.MICE)]
        for index in range(self.MICE):
            panel.add_digital_input(
                f"click-{index}", MIME_CLICK, self.harness.callback(self._click_arrival(index)))
        self.controller.register_translator(panel)
        for profile in light_profiles:
            index = by_udn[profile.attributes["udn"]]
            on, off = self.switches[index]
            self.controller.connect(on, profile.port_ref("power-on"))
            self.controller.connect(off, profile.port_ref("power-off"))
        by_addr = {str(mouse.bd_addr): i for i, mouse in enumerate(self.mice)}
        for profile in mouse_profiles:
            index = by_addr[profile.attributes["bd_addr"]]
            self.controller.connect(profile.port_ref("clicks"),
                                    panel.input_port(f"click-{index}"))
        bed.settle(2.0)

    def _await_profiles(self, role: str, count: int):
        bed = self.bed
        for _ in range(120):
            profiles = self.controller.lookup(Query(role=role))
            if len(profiles) >= count:
                return sorted(profiles, key=lambda p: p.translator_id)
            bed.settle(1.0)
        raise RuntimeError(f"only {len(profiles)}/{count} {role} translators mapped")

    def _observe(self, light, index: int) -> None:
        """Stamp a light action complete when the device's own ``SetPower``
        handler writes ``Status``: the handler stays the one the device
        ships, and the benchmark only observes its ``set_state`` call."""
        harness = self.harness
        set_state = light.set_state

        def applied(value: str) -> None:
            command = self.inflight[index]
            if command is None:
                harness.violation(f"light {index}: action with no command in flight")
                return
            op, power = command
            if value != power:
                harness.violation(f"light {index}: got Power={value}, sent {power}")
            self.inflight[index] = None
            harness.complete(("light", op))
            if self.queued[index]:
                self._send(index, *self.queued[index].popleft())

        bookkeeping = harness.callback(applied)

        def observed(service_id: str, variable: str, value: str) -> None:
            set_state(service_id, variable, value)
            if (service_id, variable) == ("SwitchPower", "Status"):
                bookkeeping(value)

        light.set_state = observed

    def _send(self, index: int, op: int, power: str) -> None:
        self.inflight[index] = (op, power)
        on, off = self.switches[index]
        with self.harness.issuing(op):
            (on if power == "1" else off).send(UMessage(MIME_SWITCH, None, 8))

    def _click_arrival(self, mouse: int):
        harness = self.harness

        def arrive(_message: UMessage) -> None:
            pending = self.pending_clicks[mouse]
            if not pending:
                harness.violation(f"mouse {mouse}: click arrived that was never sent")
                return
            harness.complete(("click", pending.pop(0)))

        return arrive

    def plan(self) -> float:
        rng = self.rng
        scenes, now = [], 0.0
        for _ in range(self.SCENES):
            now += rng.expovariate(self.SCENE_RATE)
            lights = rng.sample(range(self.LIGHTS), rng.randint(1, self.LIGHTS))
            # The panel works through a scene one light at a time.
            gaps = [rng.expovariate(self.PANEL_RATE) for _ in lights]
            scenes.append((now, list(zip(lights, gaps)), rng.choice("01")))
        clicks, now = [], 0.0
        for _ in range(self.CLICKS):
            now += rng.expovariate(self.CLICK_RATE)
            clicks.append((now, rng.randrange(self.MICE)))
        self.scenes, self.clicks = scenes, clicks
        return max(scenes[-1][0], clicks[-1][0])

    def spawn_load(self, base: float) -> None:
        self._spawn(self._commander(base), "bench-scenes")
        self._spawn(self._clicker(base), "bench-clicks")

    def _commander(self, base: float):
        harness = self.harness
        op = 0
        for offset, lights, power in self.scenes:
            yield from self._wait(base + offset)
            for index, gap in lights:
                yield from self._wait(self.bed.kernel.now + gap)
                harness.issue(("light", op))
                self.last_power[index] = power
                # One action per light in flight: its on and off ports are
                # separate paths, so two commands in flight could apply in
                # either order.  A command for a busy light waits its turn
                # and is sent when the previous action applies; its latency
                # still runs from its due time.
                if self.inflight[index] is None:
                    self._send(index, op, power)
                else:
                    self.queued[index].append((op, power))
                op += 1

    def _clicker(self, base: float):
        harness = self.harness
        for op, (offset, mouse) in enumerate(self.clicks):
            yield from self._wait(base + offset)
            harness.issue(("click", op))
            self.pending_clicks[mouse].append(op)
            self.mice[mouse].click()

    def check(self) -> None:
        for index, light in enumerate(self.lights):
            status = light.get_state("SwitchPower", "Status")
            if status != self.last_power[index]:
                self.harness.violation(
                    f"light {index}: Status={status}, last command {self.last_power[index]}")

    def final_counters(self) -> Dict:
        counters = super().final_counters()
        counters["mapping_durations_s"] = [
            d for mapper in self.mappers
            for durations in mapper.mapping_durations.values() for d in durations
        ]
        counters["actions_served"] = sum(light.actions_served for light in self.lights)
        return counters


WORKLOADS = {
    cls.name: cls
    for cls in (TelemetryFanout, BurstBacklog, DirectoryChurn, DeviceBridging)
}
