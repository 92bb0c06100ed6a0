"""Property-based tests for stream reliability and conservation laws."""

from hypothesis import example, given, settings, strategies as st

from repro.calibration import DEFAULT
from repro.simnet import Kernel, Network
from repro.simnet.sockets import (
    ConnectionClosed,
    ConnectionRefused,
    StreamListener,
    StreamSocket,
)


def run_transfer(message_sizes, loss_rate, seed):
    """Send messages over a (possibly lossy) hub; return what arrived."""
    kernel = Kernel()
    network = Network(kernel)
    costs = DEFAULT.network
    hub = network.add_hub(
        "lan",
        bandwidth_bps=costs.ethernet_bandwidth_bps,
        latency_s=costs.ethernet_latency_s,
        frame_overhead_bytes=costs.ethernet_frame_overhead_bytes,
        loss_rate=loss_rate,
        seed=seed,
    )
    a = network.add_node("a")
    b = network.add_node("b")
    a.attach(hub)
    b.attach(hub)
    received = []

    def server(k):
        listener = StreamListener(b, costs, 80)
        while len(received) < len(message_sizes):
            stream = yield listener.accept()
            while True:
                try:
                    payload, size = yield stream.recv()
                except ConnectionClosed:
                    break  # half-open handshake reset; accept the retry
                received.append((payload, size))
                if len(received) == len(message_sizes):
                    return

    def client(k):
        stream = None
        for _attempt in range(5):  # applications retry refused connects
            try:
                stream = yield StreamSocket.connect(a, costs, b.address, 80)
                break
            except ConnectionRefused:
                continue
        assert stream is not None, "could not connect despite retries"
        for index, size in enumerate(message_sizes):
            stream.send(index, size)
        yield stream.drained()

    server_process = kernel.process(server(kernel))
    kernel.run_process(client(kernel), name="client")
    # Drain remaining deliveries/acks.
    deadline = kernel.now + 120.0
    while not server_process.triggered and kernel.peek() <= deadline:
        kernel.step()
    return received


@given(
    sizes=st.lists(st.integers(min_value=0, max_value=20_000), min_size=1, max_size=15)
)
@settings(max_examples=30, deadline=None)
def test_lossless_stream_delivers_everything_in_order(sizes):
    received = run_transfer(sizes, loss_rate=0.0, seed=0)
    assert received == [(index, size) for index, size in enumerate(sizes)]


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=8_000), min_size=1, max_size=10),
    loss=st.floats(min_value=0.01, max_value=0.25),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=25, deadline=None)
# Every SYN-ACK of the first handshake is lost, so the client gives up
# while the server already accepted a half-open stream.
@example(sizes=[1], loss=0.25, seed=399)
def test_lossy_stream_is_still_reliable_and_ordered(sizes, loss, seed):
    """Go-back-N repairs arbitrary loss patterns: exactly-once, in order."""
    received = run_transfer(sizes, loss_rate=loss, seed=seed)
    assert received == [(index, size) for index, size in enumerate(sizes)]


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=10_000), min_size=1, max_size=10)
)
@settings(max_examples=25, deadline=None)
def test_stream_byte_accounting_matches(sizes):
    kernel = Kernel()
    network = Network(kernel)
    costs = DEFAULT.network
    hub = network.add_hub("lan", 1e7, 5e-5, 38)
    a = network.add_node("a")
    b = network.add_node("b")
    a.attach(hub)
    b.attach(hub)
    streams = {}

    def server(k):
        listener = StreamListener(b, costs, 80)
        stream = yield listener.accept()
        streams["server"] = stream
        for _ in range(len(sizes)):
            yield stream.recv()

    def client(k):
        stream = yield StreamSocket.connect(a, costs, b.address, 80)
        streams["client"] = stream
        for index, size in enumerate(sizes):
            stream.send(index, size)
        yield stream.drained()

    server_process = kernel.process(server(kernel))
    kernel.run_process(client(kernel))
    while not server_process.triggered and kernel.peek() != float("inf"):
        kernel.step()
    assert streams["client"].bytes_sent == sum(sizes)
    assert streams["server"].bytes_received == sum(sizes)
    assert streams["client"].messages_sent == len(sizes)
    assert streams["server"].messages_received == len(sizes)
