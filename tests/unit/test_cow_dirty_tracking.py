"""Edge cases for CowPageStore's per-key dirty tracking and refcount GC."""

from __future__ import annotations

import pytest

from repro.errors import CheckpointError
from repro.timemachine.checkpoint import CheckpointStore
from repro.timemachine.cow import CowPageStore
from repro.timemachine.speculation import SpeculationManager

from tests.conftest import PingPong, assert_pages_match_log, make_cluster


class TestDirtyTracking:
    def test_clean_scalar_keys_skip_hashing(self):
        store = CowPageStore(page_size=64)
        state = {"blob": "x" * 500, "counter": 0}
        store.capture("a", state, 0.0)
        hashed_first = store.hashed_bytes_total
        assert hashed_first > 0
        store.capture("a", state, 1.0)
        assert store.hashed_bytes_total == hashed_first  # nothing re-hashed

    def test_mutated_scalar_key_is_rehashed(self):
        store = CowPageStore(page_size=64)
        state = {"blob": "x" * 500, "counter": 0}
        store.capture("a", state, 0.0)
        hashed_first = store.hashed_bytes_total
        state["counter"] = 1
        second = store.capture("a", state, 1.0)
        assert store.hashed_bytes_total > hashed_first
        # only the small counter key was re-hashed, not the 500-byte blob
        assert store.hashed_bytes_total - hashed_first < 100
        assert store.restore(second) == state

    def test_key_deletion_restores_without_the_key(self):
        store = CowPageStore(page_size=32)
        state = {"keep": "v" * 100, "drop": "w" * 100}
        store.capture("a", state, 0.0)
        del state["drop"]
        second = store.capture("a", state, 1.0)
        assert store.restore(second) == {"keep": "v" * 100}

    def test_key_reappearing_after_deletion(self):
        store = CowPageStore(page_size=32)
        state = {"k": "v1"}
        store.capture("a", state, 0.0)
        del state["k"]
        store.capture("a", state, 1.0)
        state["k"] = "v2"
        third = store.capture("a", state, 2.0)
        assert store.restore(third) == {"k": "v2"}

    def test_nested_dict_mutation_is_detected(self):
        store = CowPageStore(page_size=32)
        state = {"cfg": {"retries": 1, "hosts": ["h1"]}}
        first = store.capture("a", state, 0.0)
        state["cfg"]["retries"] = 2
        state["cfg"]["hosts"].append("h2")
        second = store.capture("a", state, 1.0)
        assert store.restore(second) == {"cfg": {"retries": 2, "hosts": ["h1", "h2"]}}
        assert store.restore(first) == {"cfg": {"retries": 1, "hosts": ["h1"]}}

    def test_unchanged_mutable_key_reuses_pages_without_new_bytes(self):
        store = CowPageStore(page_size=32)
        state = {"cfg": {"retries": 1}}
        store.capture("a", state, 0.0)
        second = store.capture("a", state, 1.0)
        assert second.new_bytes == 0
        assert second.hashed_bytes == 0       # byte-identical pickle: hashes reused
        assert second.serialized_bytes > 0    # but the mutable key was re-pickled

    def test_bool_and_int_are_not_conflated(self):
        store = CowPageStore()
        state = {"flag": 1}
        store.capture("a", state, 0.0)
        state["flag"] = True  # 1 == True, but the restored value must be a bool
        second = store.capture("a", state, 1.0)
        restored = store.restore(second)
        assert restored["flag"] is True

    def test_negative_zero_is_not_conflated_with_zero(self):
        store = CowPageStore()
        state = {"x": 0.0}
        store.capture("a", state, 0.0)
        state["x"] = -0.0
        second = store.capture("a", state, 1.0)
        assert str(store.restore(second)["x"]) == "-0.0"

    def test_per_pid_caches_are_independent(self):
        store = CowPageStore(page_size=32)
        store.capture("a", {"v": "shared" * 20}, 0.0)
        hashed_after_a = store.hashed_bytes_total
        # same content for another pid: pages dedupe, but the capture still hashes
        checkpoint = store.capture("b", {"v": "shared" * 20}, 0.0)
        assert store.hashed_bytes_total > hashed_after_a
        assert checkpoint.new_bytes == 0  # content-addressing shares across pids


class TestTrustedScalarFastPath:
    """tuples and frozensets of scalars are immutable: equality with the
    cached value must skip re-pickling entirely (the old _SCALAR_TYPES
    fast path missed them and re-serialized clean keys every capture)."""

    def test_clean_tuple_of_scalars_skips_pickling(self):
        store = CowPageStore(page_size=64)
        state = {"pair": ("host", 8080), "nested": (1, ("a", 2.5), None)}
        store.capture("a", state, 0.0)
        serialized_first = store.serialized_bytes_total
        second = store.capture("a", state, 1.0)
        assert store.serialized_bytes_total == serialized_first  # no re-pickle
        assert second.serialized_bytes == 0
        assert store.restore(second) == state

    def test_clean_frozenset_of_scalars_skips_pickling(self):
        store = CowPageStore(page_size=64)
        state = {"members": frozenset({"a", "b", 3})}
        store.capture("a", state, 0.0)
        serialized_first = store.serialized_bytes_total
        second = store.capture("a", state, 1.0)
        assert store.serialized_bytes_total == serialized_first
        assert store.restore(second) == state

    def test_tuple_containing_mutable_is_not_trusted(self):
        store = CowPageStore(page_size=64)
        inner = [1, 2]
        state = {"t": ("tag", inner)}
        store.capture("a", state, 0.0)
        inner.append(3)  # mutation through the tuple must be captured
        second = store.capture("a", state, 1.0)
        assert store.restore(second) == {"t": ("tag", [1, 2, 3])}

    def test_replaced_tuple_is_detected(self):
        store = CowPageStore(page_size=64)
        state = {"pair": (1, 2)}
        store.capture("a", state, 0.0)
        state["pair"] = (1, 3)
        second = store.capture("a", state, 1.0)
        assert store.restore(second) == {"pair": (1, 3)}

    def test_frozenset_negative_zero_not_conflated(self):
        store = CowPageStore(page_size=64)
        state = {"s": frozenset({0.0})}
        store.capture("a", state, 0.0)
        state["s"] = frozenset({-0.0})  # equal sets, different pickles
        second = store.capture("a", state, 1.0)
        (member,) = store.restore(second)["s"]
        assert str(member) == "-0.0"

    def test_tuple_bool_vs_int_not_conflated(self):
        store = CowPageStore(page_size=64)
        state = {"t": (1,)}
        store.capture("a", state, 0.0)
        state["t"] = (True,)
        second = store.capture("a", state, 1.0)
        assert store.restore(second)["t"][0] is True


class TestChunkedCapture:
    """Delta-chunked large containers: captures scale with the element delta."""

    def test_large_list_single_mutation_pickles_one_chunk(self):
        store = CowPageStore(page_size=1024, chunk_threshold=100, chunk_elems=8)
        state = {"items": [f"value-{i:05d}" for i in range(1000)]}
        store.capture("a", state, 0.0)
        serialized_full = store.serialized_bytes_total
        state["items"][500] = "mutated!"
        second = store.capture("a", state, 1.0)
        # one dirty chunk of 8 elements, not the whole 1000-element key
        assert second.serialized_bytes < serialized_full / 20
        assert second.hashed_bytes < serialized_full / 20
        assert store.restore(second) == state

    def test_large_dict_mutation_value_and_order_preserved(self):
        store = CowPageStore(page_size=1024, chunk_threshold=100, chunk_elems=8)
        state = {"table": {f"k{i:04d}": i for i in range(500)}}
        store.capture("a", state, 0.0)
        state["table"]["k0250"] = -1
        second = store.capture("a", state, 1.0)
        restored = store.restore(second)
        assert restored == state
        # insertion order is part of dict identity and must round-trip
        assert list(restored["table"]) == list(state["table"])

    def test_large_dict_insert_and_delete(self):
        store = CowPageStore(page_size=1024, chunk_threshold=100, chunk_elems=8)
        state = {"table": {f"k{i:04d}": i for i in range(300)}}
        store.capture("a", state, 0.0)
        del state["table"]["k0123"]
        state["table"]["brand-new"] = 999
        second = store.capture("a", state, 1.0)
        restored = store.restore(second)
        assert restored == state
        assert list(restored["table"]) == list(state["table"])

    def test_dict_value_mutation_leaves_order_chunks_clean(self):
        store = CowPageStore(page_size=1024, chunk_threshold=100, chunk_elems=8)
        state = {"table": {f"k{i:04d}": i for i in range(500)}}
        store.capture("a", state, 0.0)
        clean_before = store.chunks_clean_total
        total_before = store.chunks_captured_total
        state["table"]["k0001"] = -5  # value-only mutation: order untouched
        store.capture("a", state, 1.0)
        captured = store.chunks_captured_total - total_before
        clean = store.chunks_clean_total - clean_before
        assert captured - clean <= 2  # the one dirty bucket (+ rounding slack)

    def test_large_set_add_and_remove(self):
        store = CowPageStore(page_size=1024, chunk_threshold=100, chunk_elems=8)
        state = {"seen": {f"id-{i:05d}" for i in range(400)}}
        store.capture("a", state, 0.0)
        state["seen"].discard("id-00123")
        state["seen"].add("id-99999")
        second = store.capture("a", state, 1.0)
        assert store.restore(second) == state

    def test_set_of_unhashable_reprs_falls_back_to_whole_value(self):
        # sets whose elements are not trusted scalars are captured whole
        store = CowPageStore(page_size=1024, chunk_threshold=10, chunk_elems=4)
        state = {"pairs": {(i, ("nested", i)) for i in range(50)}}
        checkpoint = store.capture("a", state, 0.0)
        assert store.restore(checkpoint) == state

    def test_below_threshold_containers_capture_whole(self):
        store = CowPageStore(page_size=64, chunk_threshold=100, chunk_elems=8)
        state = {"small": list(range(50))}
        checkpoint = store.capture("a", state, 0.0)
        assert not hasattr(checkpoint.entries["small"], "kind")  # one blob, not chunked
        assert store.restore(checkpoint) == state

    def test_chunking_disabled_with_none_threshold(self):
        store = CowPageStore(page_size=1024, chunk_threshold=None)
        state = {"items": list(range(1000))}
        checkpoint = store.capture("a", state, 0.0)
        assert not hasattr(checkpoint.entries["items"], "kind")  # one blob, not chunked
        assert store.restore(checkpoint) == state

    def test_list_growth_across_chunk_boundary(self):
        store = CowPageStore(page_size=1024, chunk_threshold=10, chunk_elems=4)
        state = {"log": [f"entry-{i}" for i in range(20)]}
        store.capture("a", state, 0.0)
        state["log"].extend(f"entry-{i}" for i in range(20, 35))
        second = store.capture("a", state, 1.0)
        assert store.restore(second) == state

    def test_dict_growth_across_bucket_doubling(self):
        store = CowPageStore(page_size=1024, chunk_threshold=10, chunk_elems=4)
        state = {"table": {f"k{i}": i for i in range(16)}}
        store.capture("a", state, 0.0)
        for i in range(16, 100):  # forces a power-of-two bucket re-chunk
            state["table"][f"k{i}"] = i
        second = store.capture("a", state, 1.0)
        restored = store.restore(second)
        assert restored == state
        assert list(restored["table"]) == list(state["table"])

    def test_gc_frees_chunked_pages_and_keeps_later_checkpoints(self):
        store = CowPageStore(page_size=256, chunk_threshold=50, chunk_elems=8)
        state = {"table": {f"k{i:04d}": f"v-{i}" for i in range(200)}}
        first = store.capture("a", state, 0.0)
        state["table"]["k0007"] = "mutated"
        second = store.capture("a", state, 1.0)
        freed = store.release(first)
        assert freed >= 1  # the stale bucket's page(s)
        assert store.restore(second) == state
        with pytest.raises(CheckpointError):
            store.restore(first)

    def test_chunked_restore_after_many_rounds_matches(self):
        store = CowPageStore(page_size=1024, chunk_threshold=64, chunk_elems=8)
        state = {"table": {f"k{i:04d}": i for i in range(256)}, "round": 0}
        checkpoints = [store.capture("a", state, 0.0)]
        snapshots = [{k: dict(v) if isinstance(v, dict) else v for k, v in state.items()}]
        for round_index in range(1, 6):
            state["round"] = round_index
            for j in range(5):
                state["table"][f"k{(round_index * 37 + j * 11) % 256:04d}"] = round_index * 100 + j
            checkpoints.append(store.capture("a", state, float(round_index)))
            snapshots.append({k: dict(v) if isinstance(v, dict) else v for k, v in state.items()})
        for checkpoint, snapshot in zip(checkpoints, snapshots):
            restored = store.restore(checkpoint)
            assert restored == snapshot
            assert list(restored["table"]) == list(snapshot["table"])


class TestAliasedStates:
    def test_cross_key_aliasing_survives_restore(self):
        store = CowPageStore(page_size=32)
        shared = [1, 2, 3]
        state = {"a": shared, "b": shared, "n": 7}
        checkpoint = store.capture("p", state, 0.0)
        restored = store.restore(checkpoint)
        assert restored == state
        assert restored["a"] is restored["b"]  # identity sharing preserved

    def test_self_referential_state_survives_restore(self):
        store = CowPageStore(page_size=32)
        state = {"v": 1}
        state["self"] = state
        checkpoint = store.capture("p", state, 0.0)
        restored = store.restore(checkpoint)
        assert restored["self"] is restored
        assert restored["v"] == 1

    def test_aliased_capture_still_skips_rehash_when_unchanged(self):
        store = CowPageStore(page_size=32)
        shared = ["x"] * 50
        state = {"a": shared, "b": shared}
        store.capture("p", state, 0.0)
        hashed_first = store.hashed_bytes_total
        second = store.capture("p", state, 1.0)
        assert store.hashed_bytes_total == hashed_first  # blob unchanged: no re-hash
        assert second.new_bytes == 0
        restored = store.restore(second)
        assert restored["a"] is restored["b"]


class TestRefcountGC:
    def test_release_leaves_interleaved_captures_restorable(self):
        # the speculation manager shares the store with periodic
        # checkpointing: releasing the speculation's own capture must
        # not take the periodic ones with it
        store = CowPageStore(page_size=32)
        state = {"hot": "v1"}
        periodic = store.capture("p", state, 0.0)
        state["hot"] = "v2"
        spec_entry = store.capture("p", state, 1.0)
        state["hot"] = "v3"
        later = store.capture("p", state, 2.0)
        freed = store.release(spec_entry)
        assert freed >= 1
        assert store.restore(periodic) == {"hot": "v1"}
        assert store.restore(later) == {"hot": "v3"}
        with pytest.raises(CheckpointError):
            store.restore(spec_entry)

    def test_release_twice_frees_nothing(self):
        store = CowPageStore(page_size=32)
        first = store.capture("p", {"v": "same" * 50}, 0.0)
        second = store.capture("p", {"v": "same" * 50}, 1.0)
        logical = store.logical_bytes()
        assert store.release(first) == 0  # second still references every page
        assert store.release(first) == 0  # and keeps its own references
        assert store.logical_bytes() == logical - first.total_bytes
        assert store.restore(second) == {"v": "same" * 50}
        assert store.release(second) > 0

    def test_released_capture_refuses_to_restore_while_its_pages_live_on(self):
        store = CowPageStore(page_size=32)
        state = {"v": "same" * 50}
        first = store.capture("a", state, 0.0)
        second = store.capture("a", state, 1.0)
        store.release(first)
        assert first.released and not second.released
        with pytest.raises(CheckpointError, match="released"):
            store.restore(first)
        with pytest.raises(CheckpointError, match="released"):
            first.restore()
        assert store.restore(second) == state

    def test_speculation_resolve_spares_other_policies_checkpoints(self):
        # A periodic-policy checkpoint taken before the speculation must
        # survive the speculation's commit-time GC of the shared store.
        store = CheckpointStore()
        cluster = make_cluster({"p0": PingPong, "p1": PingPong}, seed=1)
        manager = SpeculationManager(store)
        cluster.add_hook(manager)
        cluster.start()
        process = cluster.process("p0")
        periodic = store.capture(process, cluster.now)
        spec = manager.begin("p0", "remote will ack")
        manager.commit(spec.spec_id)
        assert store.pages_freed >= 0
        assert periodic.state == process.state
        # the speculation's own entry checkpoint is gone from the log and released
        assert store.log_for("p0").all() == [periodic]
        assert spec.checkpoints["p0"].cow.released and not periodic.cow.released
        assert_pages_match_log(store)

    def test_release_frees_only_unshared_pages(self):
        store = CowPageStore(page_size=32)
        state = {"stable": "s" * 200, "hot": "v1"}
        first = store.capture("a", state, 0.0)
        state["hot"] = "v2"
        second = store.capture("a", state, 1.0)
        pages_before = store.stored_pages()
        freed = store.release(first)
        # only the old "hot" page goes; the shared "stable" pages survive
        assert freed >= 1
        assert store.stored_pages() == pages_before - freed
        assert store.restore(second) == state
        with pytest.raises(CheckpointError):
            store.restore(first)

    def test_restore_after_releasing_every_capture(self):
        store = CowPageStore(page_size=32)
        state = {"v": "x" * 100}
        last = store.capture("a", state, 0.0)
        freed = store.release(last)
        assert freed > 0
        with pytest.raises(CheckpointError):
            store.restore(last)

    def test_capture_after_full_gc_rematerializes_clean_pages(self):
        store = CowPageStore(page_size=32)
        state = {"v": "x" * 100}
        last = store.capture("a", state, 0.0)
        store.release(last)  # frees every page
        # the key is clean in the cache, but its pages are gone: capture
        # must put them back rather than reference missing pages
        fresh = store.capture("a", state, 1.0)
        assert store.restore(fresh) == state

    def test_release_is_per_capture(self):
        store = CowPageStore(page_size=32)
        a_ckpt = store.capture("a", {"v": "a" * 100}, 0.0)
        b_ckpt = store.capture("b", {"v": "b" * 100}, 0.0)
        store.release(a_ckpt)
        assert store.restore(b_ckpt) == {"v": "b" * 100}
        with pytest.raises(CheckpointError):
            store.restore(a_ckpt)

    def test_shared_pages_survive_until_last_reference(self):
        store = CowPageStore(page_size=32)
        state = {"v": "same" * 50}
        first = store.capture("a", state, 0.0)
        second = store.capture("a", state, 1.0)  # same pages, +1 ref each
        freed = store.release(first)
        assert freed == 0  # second still references every page
        assert store.restore(second) == state
        freed = store.release(second)
        assert freed > 0

    def test_interleaved_capture_and_gc_accounting_stays_exact(self):
        store = CowPageStore(page_size=64)
        state = {f"k{i}": f"v0-{i}" * 10 for i in range(10)}
        checkpoints = [store.capture("a", state, 0.0)]
        for round_index in range(1, 8):
            state[f"k{round_index % 10}"] = f"v{round_index}" * 10
            checkpoints.append(store.capture("a", state, float(round_index)))
            if round_index % 3 == 0:
                for older in checkpoints[:-2]:
                    store.release(older)  # a second release is a no-op
        latest = checkpoints[-1]
        assert store.restore(latest) == state
        # stored never exceeds logical (the COW invariant)
        assert store.stored_bytes() <= store.logical_bytes()
