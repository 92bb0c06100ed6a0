"""Unit tests for the directory module: lookup, listeners and gossip."""

import pytest

from repro.core.directory import DirectoryListener, LEASE
from repro.core.errors import DirectoryError
from repro.core.query import Query

from tests.core.conftest import make_sink, make_source


class TestLocalDirectory:
    def test_lookup_by_role(self, single):
        runtime = single.runtimes[0]
        make_sink(runtime, role="display")
        make_source(runtime, role="sensor")
        profiles = runtime.lookup(Query(role="display"))
        assert len(profiles) == 1
        assert profiles[0].role == "display"

    def test_empty_query_returns_everything(self, single):
        runtime = single.runtimes[0]
        make_sink(runtime)
        make_source(runtime)
        assert len(runtime.lookup(Query())) == 2

    def test_duplicate_registration_rejected(self, single):
        runtime = single.runtimes[0]
        translator, _ = make_sink(runtime)
        with pytest.raises(Exception):
            runtime.register_translator(translator)

    def test_unregister_unknown_raises(self, single):
        with pytest.raises(DirectoryError):
            single.runtimes[0].directory.unregister("ghost")

    def test_listener_notified_on_local_add_and_remove(self, single):
        runtime = single.runtimes[0]
        added, removed = [], []
        runtime.add_directory_listener(
            DirectoryListener.from_callbacks(
                added=lambda p: added.append(p.name),
                removed=lambda p: removed.append(p.name),
            )
        )
        translator, _ = make_sink(runtime, name="tv")
        runtime.unregister_translator(translator)
        assert added == ["tv"]
        assert removed == ["tv"]

    def test_removed_listener_not_notified(self, single):
        runtime = single.runtimes[0]
        added = []
        listener = DirectoryListener.from_callbacks(
            added=lambda p: added.append(p.name)
        )
        runtime.add_directory_listener(listener)
        runtime.directory.remove_directory_listener(listener)
        make_sink(runtime)
        assert added == []

    def test_platform_of(self, single):
        runtime = single.runtimes[0]
        translator, _ = make_sink(runtime)
        assert runtime.directory.platform_of(translator.translator_id) == "umiddle"
        assert runtime.directory.platform_of("ghost") is None


class TestGossip:
    def test_multicast_discovery_between_runtimes(self, rig):
        """Runtimes on one segment find each other's translators without
        explicit federation (Section 3.2's advertisement exchange)."""
        r0, r1 = rig.runtimes
        make_sink(r0, name="tv", role="display")
        rig.settle(1.0)
        profiles = r1.lookup(Query(role="display"))
        assert [p.name for p in profiles] == ["tv"]
        # And the runtime registry learned the peer.
        assert r1.directory.runtime_info(r0.runtime_id) is not None

    def test_remote_listener_notified(self, rig):
        r0, r1 = rig.runtimes
        added = []
        r1.add_directory_listener(
            DirectoryListener.from_callbacks(added=lambda p: added.append(p.name))
        )
        make_sink(r0, name="tv")
        rig.settle(1.0)
        assert added == ["tv"]

    def test_unregister_propagates(self, rig):
        r0, r1 = rig.runtimes
        translator, _ = make_sink(r0, name="tv", role="display")
        rig.settle(1.0)
        assert r1.lookup(Query(role="display"))
        r0.unregister_translator(translator)
        rig.settle(1.0)
        assert not r1.lookup(Query(role="display"))

    def test_remote_entries_expire_without_refresh(self, rig):
        """Soft state: a dead runtime's translators age out after the lease."""
        r0, r1 = rig.runtimes
        make_sink(r0, name="tv", role="display")
        rig.settle(1.0)
        assert r1.lookup(Query(role="display"))
        # Silence r0 without a goodbye (simulated crash).
        r0.directory.stop()
        r0.transport.stop()
        rig.settle(LEASE + 3.0)
        assert not r1.lookup(Query(role="display"))
        assert r1.directory.runtime_info(r0.runtime_id) is None

    def test_local_entries_never_expire(self, rig):
        r0, _ = rig.runtimes
        make_sink(r0, name="tv", role="display")
        rig.settle(LEASE + 3.0)
        assert r0.lookup(Query(role="display"))

    def test_full_sync_removes_stale_entries(self, rig):
        """A peer holding a stale entry (e.g. it missed the incremental
        removal) converges on the owner's next full announcement."""
        from dataclasses import replace

        r0, r1 = rig.runtimes
        translator, _ = make_sink(r0, name="tv", role="display")
        rig.settle(1.0)
        # Forge a stale remote entry in r1 claiming r0 hosts a 'ghost'
        # translator that r0's full state will not mention.
        real = r1.lookup(Query(role="display"))[0]
        ghost = replace(real, translator_id="ghost-id", name="ghost")
        r1.directory._store_entry(ghost, local=False, now=rig.kernel.now)
        # The stale entry makes r1's digest record a lie: clear it so the
        # next heartbeat mismatch pulls r0's authoritative full state.
        r1.directory._peer_states.pop(r0.runtime_id, None)
        assert len(r1.lookup(Query(role="display"))) == 2
        rig.settle(6.0)  # one heartbeat period + full-state transfer
        names = [p.name for p in r1.lookup(Query(role="display"))]
        assert names == ["tv"]
        r1.directory.check_index_consistency()

    def test_lookup_spans_local_and_remote(self, rig):
        r0, r1 = rig.runtimes
        make_sink(r0, name="tv", role="display")
        make_sink(r1, name="projector", role="display")
        rig.settle(1.0)
        names = sorted(p.name for p in r1.lookup(Query(role="display")))
        assert names == ["projector", "tv"]


class TestDeltaDigestGossip:
    @staticmethod
    def forge_delta(directory, origin_runtime, version, profiles, removed=()):
        """A delta announcement as ``origin_runtime`` would send it, but with
        a caller-chosen version (to exercise dup/gap handling)."""
        info = directory.runtime_info(origin_runtime.runtime_id)
        return {
            "kind": "umiddle-directory",
            "runtime": {
                "id": origin_runtime.runtime_id,
                "address": str(info.address),
                "transport_port": info.transport_port,
                "directory_port": info.directory_port,
            },
            "full": False,
            "heartbeat": False,
            "version": version,
            "digest": None,
            "profiles": [p.to_dict() for p in profiles],
            "removed": list(removed),
        }

    def test_changed_remote_profile_fires_removed_and_added(self, rig):
        """When a peer re-announces a translator with a different profile,
        listeners see removed(old) + added(new) so standing bindings
        re-evaluate against the new shape/attributes."""
        from dataclasses import replace

        r0, r1 = rig.runtimes
        make_sink(r0, name="tv", role="display")
        rig.settle(1.0)
        events = []
        r1.add_directory_listener(
            DirectoryListener.from_callbacks(
                added=lambda p: events.append(("added", p.name)),
                removed=lambda p: events.append(("removed", p.name)),
            )
        )
        old = r1.lookup(Query(role="display"))[0]
        changed = replace(old, name="tv-renamed")
        peer = r1.directory._peer_states[r0.runtime_id]
        r1.directory._apply_announcement(
            self.forge_delta(r1.directory, r0, peer.version + 1, [changed])
        )
        assert events == [("removed", "tv"), ("added", "tv-renamed")]
        r1.directory.check_index_consistency()

    def test_steady_state_heartbeats_pull_no_full_state(self, rig):
        """After convergence, heartbeats digest-match: nobody requests a
        full transfer, however long the federation idles."""
        from repro.core.directory import ANNOUNCE_INTERVAL

        r0, r1 = rig.runtimes
        make_sink(r0, name="tv", role="display")
        rig.settle(2.0)
        sent = (r0.directory.full_requests_sent, r1.directory.full_requests_sent)
        rig.settle(5 * ANNOUNCE_INTERVAL)
        assert (
            r0.directory.full_requests_sent,
            r1.directory.full_requests_sent,
        ) == sent

    def test_version_gap_delta_triggers_full_state_pull(self, rig):
        """A delta arriving with a version gap (missed announcements) makes
        the receiver pull the owner's authoritative full state, which also
        sweeps anything the gapped delta smuggled in."""
        from dataclasses import replace

        r0, r1 = rig.runtimes
        make_sink(r0, name="tv", role="display")
        rig.settle(1.0)
        real = r1.lookup(Query(role="display"))[0]
        ghost = replace(real, translator_id="ghost-id", name="ghost")
        peer = r1.directory._peer_states[r0.runtime_id]
        requests_before = r1.directory.full_requests_sent
        r1.directory._apply_announcement(
            self.forge_delta(r1.directory, r0, peer.version + 5, [ghost])
        )
        assert r1.directory.full_requests_sent == requests_before + 1
        rig.settle(1.0)  # r0 answers the request with a unicast full state
        assert [p.name for p in r1.lookup(Query(role="display"))] == ["tv"]
        r1.directory.check_index_consistency()

    def test_duplicate_delta_is_ignored(self, rig):
        """Multicast + unicast double delivery of the same delta must not be
        mistaken for a version gap (no spurious full-state pull)."""
        r0, r1 = rig.runtimes
        make_sink(r0, name="tv", role="display")
        rig.settle(1.0)
        real = r1.lookup(Query(role="display"))[0]
        peer = r1.directory._peer_states[r0.runtime_id]
        requests_before = r1.directory.full_requests_sent
        r1.directory._apply_announcement(
            self.forge_delta(r1.directory, r0, peer.version, [real])
        )
        assert r1.directory.full_requests_sent == requests_before
        assert [p.name for p in r1.lookup(Query(role="display"))] == ["tv"]

    def test_full_state_after_unsynced_in_order_delta_is_applied(self, rig):
        """A recovered runtime's first contact with a peer is a delta, and
        a second, in-order delta can arrive before the full state that the
        first one pulled.  The unsynced record must not adopt that delta's
        digest, or the full state is dropped as a duplicate and the peer's
        older translators are never re-learned."""
        r0, r1 = rig.runtimes
        make_sink(r0, name="tv", role="display")
        rig.settle(1.0)
        # r1 forgets everything about r0, as a cold-recovered runtime does.
        tv = r1.lookup(Query(role="display"))[0]
        r1.directory._drop_entry(tv.translator_id)
        r1.directory._peer_states.pop(r0.runtime_id)
        cam = make_sink(r0, name="cam", role="display")[0].profile
        lamp = make_sink(r0, name="lamp", role="display")[0].profile
        version = r0.directory._version
        # 1. First contact is a delta: applied best effort, full pull sent.
        r1.directory._apply_announcement(
            self.forge_delta(r1.directory, r0, version - 1, [cam])
        )
        assert r1.directory._peer_states[r0.runtime_id].digest is None
        # 2. The next in-order delta overtakes the pull's reply.
        delta = self.forge_delta(r1.directory, r0, version, [lamp])
        delta["digest"] = r0.directory.state_digest()
        r1.directory._apply_announcement(delta)
        assert r1.directory._peer_states[r0.runtime_id].digest is None
        # 3. The full state carries that same digest and must still apply.
        full = r0.directory._announcement(
            r0.directory._local_profiles(), [], full=True, heartbeat=False
        )
        r1.directory._apply_announcement(full)
        names = sorted(p.name for p in r1.lookup(Query(role="display")))
        assert names == ["cam", "lamp", "tv"]
        assert r1.directory._peer_states[r0.runtime_id].digest == full["digest"]
        r1.directory.check_index_consistency()

    def test_expire_runtime_drops_peer_address(self, rig):
        """A conclusively-dead peer's learned unicast address is dropped so
        announcements stop chasing it (it re-registers on rejoin)."""
        r0, r1 = rig.runtimes
        make_sink(r0, name="tv", role="display")
        rig.settle(1.0)
        info = r1.directory.runtime_info(r0.runtime_id)
        assert info.address in r1.directory._peers
        r1.directory.expire_runtime(r0.runtime_id, reason="test")
        assert info.address not in r1.directory._peers
        assert r1.directory._peer_states.get(r0.runtime_id) is None

    def test_expire_runtime_keeps_federated_address(self, rig):
        """Explicit federation is configuration: expiry may purge the peer's
        soft state but must keep announcing to its configured address."""
        r0, r1 = rig.runtimes
        make_sink(r0, name="tv", role="display")
        r1.federate(r0)
        rig.settle(1.0)
        info = r1.directory.runtime_info(r0.runtime_id)
        r1.directory.expire_runtime(r0.runtime_id, reason="test")
        assert info.address in r1.directory._peers
        # And the federation heals on the next announcement round.
        rig.settle(6.0)
        assert [p.name for p in r1.lookup(Query(role="display"))] == ["tv"]


class TestHealthGossip:
    """Health-only profile changes ride the delta/digest gossip as
    ``changed`` entries: version bump, digest change, in-place swap."""

    @staticmethod
    def forge_changed_delta(directory, origin_runtime, version, changed):
        """A delta announcement carrying only health-changed profiles."""
        info = directory.runtime_info(origin_runtime.runtime_id)
        return {
            "kind": "umiddle-directory",
            "runtime": {
                "id": origin_runtime.runtime_id,
                "address": str(info.address),
                "transport_port": info.transport_port,
                "directory_port": info.directory_port,
            },
            "full": False,
            "heartbeat": False,
            "version": version,
            "digest": None,
            "profiles": [],
            "removed": [],
            "changed": [p.to_dict() for p in changed],
        }

    def test_health_change_bumps_version_and_digest(self, rig):
        r0, _r1 = rig.runtimes
        translator, _ = make_sink(r0, name="tv", role="display")
        rig.settle(1.0)
        version = r0.directory._version
        digest = r0.directory.state_digest()
        r0.directory.update_local_health(translator.translator_id, "degraded")
        assert r0.directory._version == version + 1
        assert r0.directory.state_digest() != digest

    def test_health_change_propagates_as_changed_not_removed_added(self, rig):
        r0, r1 = rig.runtimes
        translator, _ = make_sink(r0, name="tv", role="display")
        rig.settle(1.0)
        events = []
        r1.add_directory_listener(
            DirectoryListener.from_callbacks(
                added=lambda p: events.append(("added", p.name)),
                removed=lambda p: events.append(("removed", p.name)),
                changed=lambda p, old: events.append(
                    ("changed", p.name, old.health, p.health)
                ),
            )
        )
        r0.directory.update_local_health(translator.translator_id, "degraded")
        rig.settle(1.0)
        assert events == [("changed", "tv", "healthy", "degraded")]
        remote = r1.lookup(Query(role="display", include_quarantined=True))
        assert [p.health for p in remote] == ["degraded"]
        r1.directory.check_index_consistency()

    def test_health_change_fires_standing_query_subscription(self, rig):
        """A failover binding subscribed by query sees ``changed`` (and
        re-evaluates) -- not an unbind/rebind cycle."""
        r0, r1 = rig.runtimes
        translator, _ = make_sink(r0, name="tv", role="display")
        make_sink(r0, name="backup", role="display")
        _, out = make_source(r1, name="feed", role="sensor")
        rig.settle(1.0)
        binding = r1.connect_query(out, Query(role="display"), failover=True)
        assert binding.bound_translators == [translator.translator_id]
        unbound_before = rig.network.trace.count("binding.unbound")
        r0.directory.update_local_health(translator.translator_id, "degraded")
        rig.settle(1.0)
        assert binding.bound_translators != [translator.translator_id]
        # The failover migration unbinds exactly once -- the health delta
        # itself produced no removed+added churn on the subscription.
        assert rig.network.trace.count("binding.unbound") == unbound_before + 1
        r0.directory.update_local_health(translator.translator_id, "healthy")
        rig.settle(1.0)
        assert binding.bound_translators == [translator.translator_id]

    def test_no_spurious_full_state_pull_after_health_delta(self, rig):
        """The changed-delta keeps versions contiguous: the next heartbeat
        digest-matches and nobody pulls a full transfer."""
        from repro.core.directory import ANNOUNCE_INTERVAL

        r0, r1 = rig.runtimes
        translator, _ = make_sink(r0, name="tv", role="display")
        rig.settle(2.0)
        r0.directory.update_local_health(translator.translator_id, "degraded")
        rig.settle(1.0)
        requests = (r0.directory.full_requests_sent, r1.directory.full_requests_sent)
        rig.settle(3 * ANNOUNCE_INTERVAL)
        assert (
            r0.directory.full_requests_sent,
            r1.directory.full_requests_sent,
        ) == requests

    def test_health_delta_never_resurrects_expired_entry(self, rig):
        r0, r1 = rig.runtimes
        translator, _ = make_sink(r0, name="tv", role="display")
        rig.settle(1.0)
        profile = r1.lookup(Query(role="display"))[0]
        # The entry expires on r1 (conclusively-dead peer reaping).
        r1.directory.expire_runtime(r0.runtime_id, reason="test")
        assert not r1.lookup(Query(role="display"))
        # A late health delta about the expired entry must be ignored.
        from repro.core.directory import RuntimeInfo

        r1.directory._runtimes[r0.runtime_id] = RuntimeInfo(
            runtime_id=r0.runtime_id,
            address=r0.node.address,
            transport_port=r0.transport.port,
            directory_port=r0.directory.port,
            last_seen=rig.kernel.now,
        )
        r1.directory._apply_announcement(
            self.forge_changed_delta(
                r1.directory, r0, 99, [profile.with_health("degraded")]
            )
        )
        assert not r1.lookup(Query(role="display", include_quarantined=True))
        r1.directory.check_index_consistency()

    def test_renamed_profile_still_fires_removed_and_added(self, rig):
        """A ``changed`` entry whose differences go beyond health falls back
        to the removed+added path (bindings must re-evaluate the shape)."""
        from dataclasses import replace

        r0, r1 = rig.runtimes
        make_sink(r0, name="tv", role="display")
        rig.settle(1.0)
        events = []
        r1.add_directory_listener(
            DirectoryListener.from_callbacks(
                added=lambda p: events.append(("added", p.name)),
                removed=lambda p: events.append(("removed", p.name)),
                changed=lambda p, old: events.append(("changed", p.name)),
            )
        )
        old = r1.lookup(Query(role="display"))[0]
        renamed = replace(old, name="tv-renamed")
        peer = r1.directory._peer_states[r0.runtime_id]
        r1.directory._apply_announcement(
            self.forge_changed_delta(
                r1.directory, r0, peer.version + 1, [renamed]
            )
        )
        assert events == [("removed", "tv"), ("added", "tv-renamed")]
        r1.directory.check_index_consistency()


class TestExplicitFederation:
    def test_federate_across_segments(self, kernel, network, net_costs):
        """Two rooms joined by a router: multicast does not cross, explicit
        federation does (Section 3.6's larger-area deployment)."""
        from repro.core.runtime import UMiddleRuntime

        left = network.add_hub("left", 1e7, 5e-5, 38)
        right = network.add_hub("right", 1e7, 5e-5, 38)
        router = network.add_node("router", forwards=True)
        router.attach(left)
        router.attach(right)
        node_a = network.add_node("room-a")
        node_a.attach(left)
        node_b = network.add_node("room-b")
        node_b.attach(right)
        ra = UMiddleRuntime(node_a, name="room-a-rt")
        rb = UMiddleRuntime(node_b, name="room-b-rt")

        make_sink(ra, name="tv", role="display")
        kernel.run(until=kernel.now + 2.0)
        assert not rb.lookup(Query(role="display"))  # multicast is link-local

        ra.federate(rb)
        kernel.run(until=kernel.now + 2.0)
        assert [p.name for p in rb.lookup(Query(role="display"))] == ["tv"]
