"""Unit tests: redundant group storage (repro.core.storage)."""

import numpy as np
import pytest

from repro.adversary import UniformAdversary
from repro.core.params import SystemParams
from repro.core.static_case import constructive_static_graph
from repro.core.storage import GroupStore
from repro.inputgraph import make_input_graph


@pytest.fixture
def setup():
    rng = np.random.default_rng(13)
    params = SystemParams(n=256, beta=0.05, seed=0)
    ids, bad = UniformAdversary(params.beta).population(params.n, rng)
    H = make_input_graph("chord", ids)
    gg, groups, _ = constructive_static_graph(H, params, bad, rng=rng)
    departed = np.zeros(H.n, dtype=bool)
    store = GroupStore(gg, bad, departed=departed)
    return store, bad, departed, rng


def _size_products(store, source, key):
    """``sum |G_i| * |G_{i+1}|`` along the search's path (Corollary 1)."""
    path, _ = store.gg.H.route(source, key)
    sizes = store.gg.group_sizes
    return int((sizes[path[:-1]] * sizes[path[1:]]).sum())


class TestPutGet:
    def test_roundtrip(self, setup):
        store, bad, departed, rng = setup
        assert store.put(0.42, "payload", 3, rng)
        ok, value, reason = store.get(0.42, 7, rng)
        assert ok and value == "payload" and reason == "ok"

    def test_missing_key(self, setup):
        store, *_, rng = setup
        ok, value, reason = store.get(0.99, 0, rng)
        assert not ok and reason == "missing"

    def test_len_counts_objects(self, setup):
        store, bad, departed, rng = setup
        for k in (0.1, 0.2, 0.3):
            store.put(k, k, 0, rng)
        assert len(store) == 3

    def test_replicas_at_responsible_group(self, setup):
        store, bad, departed, rng = setup
        store.put(0.5, "x", 0, rng)
        rec = store._objects[0.5]
        g = store.gg.H.ring.successor_index(0.5)
        assert rec.group == g
        assert np.array_equal(rec.holders, store.gg.groups.members_of(g))

    def test_messages_charged(self, setup):
        store, bad, departed, rng = setup
        store.put(0.5, "x", 0, rng)
        assert store.ledger.messages.get("storage", 0) > 0
        assert store.ledger.messages.get("routing", 0) > 0

    def test_put_charges_the_search_size_products(self, setup):
        store, bad, departed, rng = setup
        assert store.put(0.42, "payload", 3, rng)
        assert store.ledger.messages["routing"] == _size_products(store, 3, 0.42)

    def test_get_charges_the_search_size_products(self, setup):
        store, bad, departed, rng = setup
        assert store.put(0.42, "payload", 3, rng)
        before = store.ledger.messages["routing"]
        assert store.get(0.42, 7, rng)[0]
        charged = store.ledger.messages["routing"] - before
        assert charged == _size_products(store, 7, 0.42)

    def test_requires_explicit_members(self, setup):
        from repro.core.group_graph import GroupGraph

        store, bad, departed, rng = setup
        bare = GroupGraph(store.gg.H, store.gg.params,
                          red=np.zeros(store.gg.n, dtype=bool))
        with pytest.raises(ValueError):
            GroupStore(bare, bad)


class TestFailureModes:
    def test_departed_holders_dont_serve(self, setup):
        store, bad, departed, rng = setup
        store.put(0.5, "x", 0, rng)
        rec = store._objects[0.5]
        departed[rec.holders] = True
        ok, _, reason = store.get(0.5, 0, rng)
        assert not ok and reason == "replicas"

    def test_bad_majority_replicas_fail(self, setup):
        store, bad, departed, rng = setup
        store.put(0.5, "x", 0, rng)
        rec = store._objects[0.5]
        # depart all good holders: remaining copies are adversarial
        departed[rec.holders[~bad[rec.holders]]] = True
        if bad[rec.holders].any():
            ok, _, reason = store.get(0.5, 0, rng)
            assert not ok and reason == "replicas"

    def test_red_route_blocks_put_after_charging(self, setup):
        store, bad, departed, rng = setup
        batch = store.gg.H.route_many(np.array([3]), np.array([0.5]))
        assert batch.hop_counts[0] >= 1
        store.gg.red.setflags(write=True)
        store.gg.red[:] = True
        assert not store.put(0.5, "x", 3, rng)
        assert len(store) == 0
        assert store.ledger.messages["routing"] == _size_products(store, 3, 0.5)
        assert "storage" not in store.ledger.messages

    def test_red_route_blocks_get(self, setup):
        store, bad, departed, rng = setup
        store.put(0.5, "x", 0, rng)
        store.gg.red.setflags(write=True)
        store.gg.red[:] = True
        ok, _, reason = store.get(0.5, 0, rng)
        assert not ok and reason == "routing"


class TestRepairAndMigration:
    def test_repair_restores_replication(self, setup):
        store, bad, departed, rng = setup
        store.put(0.5, "x", 0, rng)
        rec = store._objects[0.5]
        survivors = rec.holders[~bad[rec.holders]]
        departed[survivors[: survivors.size // 2]] = True
        assert store.repair() >= 1
        assert not departed[store._objects[0.5].holders].any()

    def test_repair_skips_unrecoverable(self, setup):
        store, bad, departed, rng = setup
        store.put(0.5, "x", 0, rng)
        departed[store._objects[0.5].holders] = True
        assert store.repair() == 0

    def test_migrate_moves_recoverable_objects(self, setup):
        store, bad, departed, rng = setup
        for k in (0.1, 0.5, 0.9):
            store.put(k, k, 0, rng)
        other = GroupStore(store.gg, bad, departed=np.zeros_like(departed))
        assert store.migrate_to(other, rng) == 3
        assert len(other) == 3
        ok, v, _ = other.get(0.5, 0, rng)
        assert ok and v == 0.5

    def test_migrate_drops_unrecoverable(self, setup):
        store, bad, departed, rng = setup
        store.put(0.5, "x", 0, rng)
        departed[store._objects[0.5].holders] = True
        other = GroupStore(store.gg, bad, departed=np.zeros_like(departed))
        assert store.migrate_to(other, rng) == 0

    def test_survey_counts(self, setup):
        store, bad, departed, rng = setup
        for k in np.linspace(0.05, 0.95, 10):
            store.put(float(k), k, 0, rng)
        stats = store.survey(rng)
        assert stats.attempted == 10
        assert stats.succeeded + stats.failed_routing + stats.failed_replicas == 10
        assert stats.availability == stats.succeeded / 10
