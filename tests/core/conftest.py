"""Fixtures for uMiddle core tests."""

from __future__ import annotations

from typing import Callable, Dict, List

import pytest

from repro.core.messages import UMessage
from repro.core.runtime import UMiddleRuntime
from repro.core.translator import NativeHandle, Translator
from repro.core.usdl import UsdlBinding


class FakeNativeHandle(NativeHandle):
    """A native handle for tests: records invocations, can emit events."""

    def __init__(self, kernel, invoke_delay: float = 0.0):
        self.kernel = kernel
        self.invoke_delay = invoke_delay
        self.invocations: List = []
        self.subscriptions: Dict[str, Callable[[UMessage], None]] = {}
        self.unsubscribed = False

    def invoke(self, binding: UsdlBinding, message: UMessage):
        if self.invoke_delay:
            yield self.kernel.timeout(self.invoke_delay)
        else:
            yield self.kernel.timeout(0)
        self.invocations.append((binding.target, dict(binding.arguments), message))

    def subscribe(self, binding: UsdlBinding, callback) -> None:
        self.subscriptions[binding.target] = callback

    def unsubscribe_all(self) -> None:
        self.unsubscribed = True
        self.subscriptions.clear()

    def emit(self, target: str, message: UMessage) -> None:
        """Simulate the native device producing an event."""
        self.subscriptions[target](message)


class Rig:
    """A two-host testbed with one uMiddle runtime per host."""

    def __init__(self, kernel, network, net_costs, runtimes: int = 2, **runtime_kwargs):
        self.kernel = kernel
        self.network = network
        self.hub = network.add_hub(
            "rig-lan",
            bandwidth_bps=net_costs.ethernet_bandwidth_bps,
            latency_s=net_costs.ethernet_latency_s,
            frame_overhead_bytes=net_costs.ethernet_frame_overhead_bytes,
        )
        self.nodes = []
        self.runtimes = []
        for index in range(runtimes):
            node = network.add_node(f"host-{index}")
            node.attach(self.hub)
            self.nodes.append(node)
            self.runtimes.append(
                UMiddleRuntime(node, name=f"rt{index}", **runtime_kwargs)
            )

    def settle(self, duration: float = 1.0) -> None:
        """Run the kernel long enough for directory gossip to converge."""
        self.kernel.run(until=self.kernel.now + duration)

    def run(self, generator, name: str = "test"):
        return self.kernel.run_process(generator, name=name)


@pytest.fixture
def rig(kernel, network, net_costs):
    return Rig(kernel, network, net_costs)


@pytest.fixture
def single(kernel, network, net_costs):
    return Rig(kernel, network, net_costs, runtimes=1)


def make_sink(runtime, name="sink", mime="text/plain", role="display"):
    """Register a native translator with one input port; returns (t, received)."""
    received = []
    translator = Translator(name, role=role)
    translator.add_digital_input(
        "data-in", mime, lambda message: received.append(message)
    )
    runtime.register_translator(translator)
    return translator, received


def make_source(runtime, name="source", mime="text/plain", role="sensor"):
    """Register a native translator with one output port; returns (t, port)."""
    translator = Translator(name, role=role)
    port = translator.add_digital_output("data-out", mime)
    runtime.register_translator(translator)
    return translator, port
