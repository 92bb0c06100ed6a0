"""Sharded directory: shard map properties and the sharded-vs-flat oracle.

The shard layer is a placement/routing optimisation, not a semantics
change: for every query, a sharded cluster's routed ``lookup`` must return
exactly the profiles the flat replica's linear scan returns, across
arbitrary randomized corpora and through registration churn.  The shard
map itself must be deterministic (every node computes the identical
assignment from the identical membership view) and minimally disruptive
(a membership change only moves the departed/arrived member's shards).
"""

from __future__ import annotations

import random

import pytest

from repro.core.directory import LEASE, SWEEP_INTERVAL, DirectoryError
from repro.core.profile import TranslatorProfile
from repro.core.query import Query
from repro.core.runtime import UMiddleRuntime
from repro.core.shapes import Shape
from repro.core.shard import (
    DEFAULT_SHARD_COUNT,
    ShardMap,
    ShardStore,
    shard_of_key,
)
from repro.core.translator import Translator
from repro.testbed import build_testbed

from tests.core.test_directory_index import random_profile, random_query


class TestShardMap:
    def test_assignment_is_deterministic_across_instances(self):
        members = [f"rt-{i}" for i in range(7)]
        a = ShardMap(256)
        b = ShardMap(256)
        a.rebuild(members)
        b.rebuild(reversed(members))  # order of the view must not matter
        assert [a.owner(s) for s in range(256)] == [
            b.owner(s) for s in range(256)
        ]

    def test_every_shard_owned_and_reasonably_balanced(self):
        members = [f"rt-{i}" for i in range(10)]
        shard_map = ShardMap(1024)
        shard_map.rebuild(members)
        counts = {m: len(shard_map.owned_by(m)) for m in members}
        assert sum(counts.values()) == 1024
        assert all(count > 0 for count in counts.values())
        # Rendezvous balance: no owner more than ~3x the fair share.
        assert max(counts.values()) <= 3 * (1024 // 10)

    def test_membership_change_moves_only_the_affected_shards(self):
        members = [f"rt-{i}" for i in range(8)]
        shard_map = ShardMap(512)
        shard_map.rebuild(members)
        before = {s: shard_map.owner(s) for s in range(512)}
        shard_map.rebuild(members[:-1])  # rt-7 leaves
        for shard in range(512):
            if before[shard] != "rt-7":
                # Shards the leaver did not own must not move at all.
                assert shard_map.owner(shard) == before[shard], shard
            else:
                assert shard_map.owner(shard) != "rt-7"
        # And the join back restores the exact original assignment.
        shard_map.rebuild(members)
        assert {s: shard_map.owner(s) for s in range(512)} == before

    def test_rebuild_reports_change_and_bumps_version(self):
        shard_map = ShardMap(64)
        assert shard_map.rebuild(["a", "b"]) is True
        version = shard_map.version
        assert shard_map.rebuild(["b", "a"]) is False  # same view
        assert shard_map.version == version
        assert shard_map.rebuild(["a", "b", "c"]) is True
        assert shard_map.version == version + 1

    def test_owners_ranked_starts_with_the_owner(self):
        shard_map = ShardMap(128)
        shard_map.rebuild([f"rt-{i}" for i in range(5)])
        for shard in range(0, 128, 17):
            ranked = shard_map.owners_ranked(shard)
            assert ranked[0] == shard_map.owner(shard)
            assert sorted(ranked) == sorted(shard_map.members)

    def test_key_hashing_is_stable(self):
        key = ("role", "display")
        assert shard_of_key(key, 128) == shard_of_key(key, 128)
        assert 0 <= shard_of_key(key, 128) < 128
        with pytest.raises(ValueError):
            ShardMap(0)


class TestShardStore:
    def _profile(self, rng, index, origin="origin-rt"):
        return random_profile(rng, index, origin)

    def test_store_remove_placement_bookkeeping(self):
        rng = random.Random(1)
        store = ShardStore()
        profile = self._profile(rng, 0)
        changed, placed, previous = store.store(profile, [3, 9])
        assert changed and placed and previous is None
        assert store.placements_of(profile.translator_id) == (3, 9)
        # Re-storing the identical profile under one more shard is a
        # placement-only change.
        changed, placed, previous = store.store(profile, [9, 11])
        assert not changed and placed and previous is profile
        assert store.placements_of(profile.translator_id) == (3, 9, 11)
        assert store.origins() == {"origin-rt"}
        removed = store.remove(profile.translator_id)
        assert removed is profile
        assert store.profile_count == 0
        assert store.origins() == set()

    def test_drop_shard_evicts_only_sole_placements(self):
        rng = random.Random(2)
        store = ShardStore()
        keep = self._profile(rng, 0)
        lose = self._profile(rng, 1)
        store.store(keep, [5, 6])
        store.store(lose, [5])
        gone = store.drop_shard(5)
        assert gone == [lose.translator_id]
        assert store.placements_of(keep.translator_id) == (6,)
        assert store.bucket(keep.index_keys()[0])

    def test_lookup_matches_scan(self):
        rng = random.Random(3)
        store = ShardStore()
        for index in range(120):
            store.store(self._profile(rng, index), [index % 16])
        for _ in range(200):
            query = random_query(rng)
            indexed = {p.translator_id for p in store.lookup(query)}
            scanned = {p.translator_id for p in store.scan(query)}
            assert indexed == scanned, query


@pytest.fixture
def cluster(kernel, network):
    """Four sharded runtimes with seeded membership and no sockets: pure
    router/store/fabric behavior (placement dispatches through the fabric
    directly when no socket exists)."""
    runtimes = []
    for index in range(4):
        node = network.add_node(f"shard-host-{index}")
        runtimes.append(
            UMiddleRuntime(
                node,
                name=f"shard-rt-{index}",
                auto_start=False,
                sharding_enabled=True,
            )
        )
    members = [runtime.runtime_id for runtime in runtimes]
    for runtime in runtimes:
        runtime.shards.seed_members(members)
    return runtimes


@pytest.fixture
def flat(kernel, network):
    """The flat-replica oracle holding the identical corpus."""
    node = network.add_node("flat-oracle-host")
    return UMiddleRuntime(node, name="flat-oracle-rt", auto_start=False)


def populate(rng, cluster, flat, count):
    """Register ``count`` random profiles, each local to a random cluster
    member, and mirror the full corpus into the flat oracle."""
    profiles = []
    for index in range(count):
        origin = rng.choice(cluster)
        profile = random_profile(rng, index, origin.runtime_id)
        origin.directory.register(profile)
        flat.directory._store_entry(
            profile, local=False, now=flat.kernel.now
        )
        profiles.append(profile)
    return profiles


def assert_sharded_oracle(cluster, flat, query):
    expected = sorted(
        p.translator_id for p in flat.directory.lookup_linear(query)
    )
    for runtime in cluster:
        got = sorted(p.translator_id for p in runtime.lookup(query))
        assert got == expected, (
            f"sharded lookup diverged from flat oracle on "
            f"{runtime.runtime_id} for {query!r}"
        )


class TestShardedLookupOracle:
    def test_routed_lookup_equals_flat_scan(self, cluster, flat):
        rng = random.Random(20060706)
        for runtime in cluster:
            runtime.shards.cache_ttl = 0.0  # no stale windows in the oracle
        populate(rng, cluster, flat, 160)
        for runtime in cluster:
            assert runtime.shards.store.profile_count > 0  # all participate
        for _ in range(250):
            assert_sharded_oracle(cluster, flat, random_query(rng))
        # Keyless queries fan out and still enumerate everything, once.
        assert_sharded_oracle(cluster, flat, Query())
        assert all(r.shards.fanout_lookups > 0 for r in cluster)

    def test_oracle_holds_through_registration_churn(self, cluster, flat):
        rng = random.Random(424242)
        for runtime in cluster:
            runtime.shards.cache_ttl = 0.0
        profiles = populate(rng, cluster, flat, 80)
        by_origin = {p.translator_id: p for p in profiles}
        live = [p.translator_id for p in profiles]
        for step in range(120):
            if rng.random() < 0.4 and live:
                victim = live.pop(rng.randrange(len(live)))
                origin_id = by_origin[victim].runtime_id
                origin = next(
                    r for r in cluster if r.runtime_id == origin_id
                )
                origin.directory.unregister(victim)
                flat.directory._drop_entry(victim)
            else:
                profile = random_profile(
                    rng, 10_000 + step, rng.choice(cluster).runtime_id
                )
                origin = next(
                    r
                    for r in cluster
                    if r.runtime_id == profile.runtime_id
                )
                origin.directory.register(profile)
                flat.directory._store_entry(
                    profile, local=False, now=flat.kernel.now
                )
                by_origin[profile.translator_id] = profile
                live.append(profile.translator_id)
            if step % 10 == 0:
                assert_sharded_oracle(cluster, flat, random_query(rng))
                for runtime in cluster:
                    runtime.directory.check_index_consistency()
        assert_sharded_oracle(cluster, flat, Query())

    def test_hot_key_cache_serves_within_ttl_then_refreshes(self, cluster):
        rng = random.Random(7)
        reader = cluster[0]
        reader.shards.cache_ttl = 5.0
        profile = random_profile(rng, 0, cluster[1].runtime_id)
        cluster[1].directory.register(profile)
        query = Query(platform=profile.platform)
        first = reader.lookup(query)
        assert any(
            p.translator_id == profile.translator_id for p in first
        )
        # With four members, the key's sub-shards are never all
        # self-owned: the first lookup paid real owner round trips.
        cost = reader.shards.routed_lookups
        assert cost > 0
        again = reader.lookup(query)
        assert reader.shards.routed_lookups == cost  # cache hit
        assert reader.shards.cache_hits > 0
        assert [p.translator_id for p in again] == [
            p.translator_id for p in first
        ]
        # Past the TTL the owners are consulted again, at the same cost.
        reader.kernel.run(until=reader.kernel.now + 6.0)
        reader.lookup(query)
        assert reader.shards.routed_lookups == 2 * cost


class TestShardingOffIsFlat:
    def test_default_runtime_never_routes(self, kernel, network):
        node = network.add_node("flat-host")
        runtime = UMiddleRuntime(node, name="flat-rt", auto_start=False)
        assert not runtime.shards.enabled
        rng = random.Random(11)
        for index in range(40):
            runtime.directory.register(
                random_profile(rng, index, runtime.runtime_id)
            )
        for _ in range(60):
            query = random_query(rng)
            assert [
                p.translator_id for p in runtime.lookup(query)
            ] == [
                p.translator_id
                for p in runtime.directory.lookup_linear(query)
            ]
        assert runtime.shards.routed_lookups == 0
        assert runtime.shards.store.profile_count == 0


class TestConsistencyDiff:
    """Satellite: check_index_consistency raises a real DirectoryError
    (surviving ``python -O``) carrying a structured diff."""

    def _runtime(self, network):
        node = network.add_node(f"diff-host-{id(self) % 1000}")
        return UMiddleRuntime(node, name=None, auto_start=False)

    def test_consistent_directory_returns_empty_diff(self, kernel, network):
        runtime = self._runtime(network)
        rng = random.Random(5)
        for index in range(10):
            runtime.directory.register(
                random_profile(rng, index, runtime.runtime_id)
            )
        assert runtime.directory.check_index_consistency() == {}

    def test_divergence_raises_with_structured_diff(self, kernel, network):
        runtime = self._runtime(network)
        rng = random.Random(6)
        profile = random_profile(rng, 0, runtime.runtime_id)
        runtime.directory.register(profile)
        # Corrupt the index: ghost id in one bucket, drop another bucket.
        key = profile.index_keys()[0]
        runtime.directory._index[key].add("ghost-id")
        other = profile.index_keys()[1]
        del runtime.directory._index[other]
        with pytest.raises(DirectoryError) as excinfo:
            runtime.directory.check_index_consistency()
        diff = excinfo.value.diff
        assert diff["index"][key]["spurious"] == ["ghost-id"]
        assert diff["index"][other]["missing"] == [profile.translator_id]
        assert "diverged" in str(excinfo.value)

    def test_unhealthy_counter_divergence_reported(self, kernel, network):
        runtime = self._runtime(network)
        rng = random.Random(8)
        runtime.directory.register(
            random_profile(rng, 0, runtime.runtime_id)
        )
        runtime.directory._unhealthy_entries += 1
        with pytest.raises(DirectoryError) as excinfo:
            runtime.directory.check_index_consistency()
        assert excinfo.value.diff["unhealthy"] == {
            "expected": 0,
            "recorded": 1,
        }


class TestDigestFastPath:
    """Satellite: senders ship cached wire digests so receivers intern
    without recomputing canonical JSON + SHA-1 per profile."""

    def test_from_dict_with_digest_reuses_interned_instance(self):
        rng = random.Random(9)
        profile = random_profile(rng, 0, "digest-rt")
        data = profile.to_dict()
        first = TranslatorProfile.from_dict(data)
        assert TranslatorProfile.from_dict(data, digest=profile.wire_digest) is first

    def test_announcements_carry_parallel_digests(self, single):
        runtime = single.runtimes[0]
        rng = random.Random(10)
        profiles = [
            random_profile(rng, index, runtime.runtime_id)
            for index in range(3)
        ]
        payload = runtime.directory._announcement(
            profiles, removed=[], full=True, heartbeat=False
        )
        assert payload["digests"] == [p.wire_digest for p in profiles]
        assert len(payload["digests"]) == len(payload["profiles"])


class TestStaleOwnAdd:
    """A shard owner's add-delta for one of our own translators can land
    after we unregistered it; it must not re-announce the vanished
    translator to a standing binding (which would bind a dead port and
    abort the kernel) nor leave a ghost entry behind."""

    @pytest.mark.parametrize("gap_s", [0.0, 0.0005, 0.001])
    def test_unregister_racing_a_standing_binding_leaves_no_ghost(self, gap_s):
        bed = build_testbed(hosts=[f"n{i}" for i in range(4)])
        runtimes = [
            bed.add_runtime(f"n{i}", sharding_enabled=True) for i in range(4)
        ]
        bed.settle(2.0)
        n0 = runtimes[0]
        source = Translator("sensor", role="sensor")
        out = source.add_digital_output("out", "text/plain")
        n0.register_translator(source)
        binding = n0.connect_query(out, Query(role="display"))
        bed.settle(2.0)
        display = Translator("disp0", role="display")
        display.add_digital_input("in", "text/plain", lambda message: None)
        n0.register_translator(display)
        if gap_s:
            bed.settle(gap_s)
        n0.unregister_translator(display)
        bed.settle(5.0)
        assert n0.lookup(Query(role="display")) == []
        assert binding.bound_translators == []


class TestReceiverAheadOfSender:
    """A receiver whose membership view is ahead of the sender's: it has
    already inherited a dead owner's shard, which the sender still maps
    to that owner (DESIGN.md section 13)."""

    def test_inherited_shard_placement_converges_within_one_lease(self):
        bed = build_testbed(hosts=[f"skew{i}" for i in range(4)])
        runtimes = [
            bed.add_runtime(f"skew{i}", sharding_enabled=True)
            for i in range(4)
        ]
        bed.settle(12.0)
        origin, receiver, _other, dead = runtimes
        ahead = ShardMap(origin.shards.map.shard_count)
        ahead.rebuild(r.runtime_id for r in runtimes if r is not dead)
        key = ("platform", "x10")
        # A profile whose platform placement lies on a shard the dead
        # runtime owns in the sender's view and the receiver owns in its
        # own, and which the sender also pushes to the receiver for
        # another of its keys.
        for index in range(5000):
            profile = TranslatorProfile(
                translator_id=f"lamp-{index}",
                name="lamp",
                platform="x10",
                device_type="lamp",
                role="light",
                runtime_id=origin.runtime_id,
                shape=Shape([]),
            )
            inherited = origin.shards.placement_shard(
                key, profile.translator_id
            )
            pushed = origin.shards.shards_of_profile(profile) - {inherited}
            if (
                origin.shards.map.owner(inherited) == dead.runtime_id
                and ahead.owner(inherited) == receiver.runtime_id
                and any(
                    origin.shards.map.owner(shard) == receiver.runtime_id
                    for shard in pushed
                )
            ):
                break
        else:
            pytest.fail("no profile with the needed placements")
        tid = profile.translator_id

        def found(runtime):
            return [p.translator_id for p in runtime.lookup(Query(platform="x10"))]

        dead.crash()
        # The receiver's transport gave up on the dead peer before the
        # sender's lease on it fired.
        receiver.directory.expire_runtime(dead.runtime_id, reason="test")
        assert receiver.shards.map.owner(inherited) == receiver.runtime_id
        assert origin.shards.map.owner(inherited) == dead.runtime_id
        origin.directory.register(profile)
        bed.settle(0.5)
        # Stored under the sender's list only, and still served: the
        # store's index is keyed by discovery key, not by shard.
        assert inherited not in receiver.shards.store.placements_of(tid)
        assert found(receiver) == [tid]

        # The sender's own lease fires; its complete re-push places the
        # profile under the inherited shard.
        bed.settle(LEASE + SWEEP_INTERVAL)
        assert inherited in receiver.shards.store.placements_of(tid)
        assert found(receiver) == found(origin) == [tid]
