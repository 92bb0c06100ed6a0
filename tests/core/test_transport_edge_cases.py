"""Edge-case tests for the transport module's APIs and control protocol."""

import pytest

from repro.core.errors import TransportError
from repro.core.messages import UMessage
from repro.core.profile import PortRef
from repro.core.qos import QosPolicy

from tests.core.conftest import Rig, make_sink, make_source


class TestConnectValidation:
    def test_input_port_as_source_rejected(self, single):
        runtime = single.runtimes[0]
        sink, _ = make_sink(runtime)
        sink2, _ = make_sink(runtime, name="sink2")
        with pytest.raises(TransportError, match="output"):
            runtime.connect(
                sink.input_port("data-in"), sink2.input_port("data-in")
            )

    def test_local_ref_resolution_on_connect(self, single):
        runtime = single.runtimes[0]
        source, out = make_source(runtime)
        sink, received = make_sink(runtime, name="sink2")
        path = runtime.connect(
            PortRef(runtime.runtime_id, source.translator_id, "data-out"),
            PortRef(runtime.runtime_id, sink.translator_id, "data-in"),
        )
        out.send(UMessage("text/plain", "resolved", 10))
        single.settle(0.5)
        assert [m.payload for m in received] == ["resolved"]

    def test_remote_source_with_qos_rejected(self, rig):
        r0, r1 = rig.runtimes
        source, _ = make_source(r0)
        sink, _ = make_sink(r1)
        rig.settle(1.0)
        remote_src = source.profile.port_ref("data-out")
        with pytest.raises(TransportError, match="QoS"):
            r1.connect(remote_src, sink.input_port("data-in"),
                       qos=QosPolicy(buffer_capacity=8))

    def test_unknown_local_ref_rejected(self, single):
        runtime = single.runtimes[0]
        sink, _ = make_sink(runtime)
        with pytest.raises(TransportError):
            runtime.connect(
                PortRef(runtime.runtime_id, "ghost", "out"),
                sink.input_port("data-in"),
            )


class TestControlProtocol:
    def test_connect_request_for_unknown_port_is_traced_not_fatal(self, rig):
        r0, r1 = rig.runtimes
        make_sink(r1, name="target")
        rig.settle(1.0)
        # r1 requests a path whose source does not exist on r0.
        ghost = PortRef(r0.runtime_id, "no-such-translator", "out")
        sink = r1.translators[
            r1.lookup(__import__("repro.core.query", fromlist=["Query"]).Query(
                name_contains="target"
            ))[0].translator_id
        ]
        r1.connect(ghost, sink.input_port("data-in"))
        rig.settle(1.0)
        assert rig.network.trace.count("transport.protocol-error") == 1

    def test_double_disconnect_is_idempotent(self, rig):
        r0, r1 = rig.runtimes
        source, out = make_source(r0)
        sink, received = make_sink(r1)
        rig.settle(1.0)
        handle = r1.connect(
            source.profile.port_ref("data-out"), sink.input_port("data-in")
        )
        rig.settle(1.0)
        handle.close()
        handle.close()  # second close must be a no-op
        rig.settle(1.0)
        out.send(UMessage("text/plain", "late", 10))
        rig.settle(1.0)
        assert received == []

    def test_unknown_envelope_kind_is_traced(self, rig):
        r0, r1 = rig.runtimes
        make_sink(r1)
        rig.settle(1.0)
        r0.transport._send_control(r1.runtime_id, {"kind": "teleport"})
        rig.settle(1.0)
        assert rig.network.trace.count("transport.protocol-error") == 1

    @pytest.mark.parametrize("codec", [False, True])
    def test_relay_counter_counts_remote_messages(
        self, kernel, network, net_costs, codec
    ):
        """Only message envelopes count: the connect request is a control
        envelope."""
        rig = Rig(kernel, network, net_costs, codec_enabled=codec)
        r0, r1 = rig.runtimes
        _, out = make_source(r0)
        sink, _ = make_sink(r1)
        rig.settle(1.0)
        r0.connect(out, sink.profile.port_ref("data-in"))
        for index in range(3):
            out.send(UMessage("text/plain", index, 100))
        rig.settle(1.0)
        assert r0.transport.messages_relayed == 3


class TestPathsFromAndCleanup:
    def test_paths_from_lists_live_paths(self, single):
        runtime = single.runtimes[0]
        _, out = make_source(runtime)
        sink_a, _ = make_sink(runtime, name="a")
        sink_b, _ = make_sink(runtime, name="b")
        first = runtime.connect(out, sink_a.input_port("data-in"))
        second = runtime.connect(out, sink_b.input_port("data-in"))
        assert set(runtime.transport.paths_from(out)) == {first, second}
        first.close()
        assert runtime.transport.paths_from(out) == [second]

    def test_source_translator_removal_closes_paths(self, single):
        runtime = single.runtimes[0]
        source, out = make_source(runtime)
        sink, _ = make_sink(runtime)
        path = runtime.connect(out, sink.input_port("data-in"))
        runtime.unregister_translator(source)
        assert path.closed

    def test_transport_stop_closes_everything(self, single):
        runtime = single.runtimes[0]
        _, out = make_source(runtime)
        sink, _ = make_sink(runtime)
        path = runtime.connect(out, sink.input_port("data-in"))
        runtime.transport.stop()
        assert path.closed
