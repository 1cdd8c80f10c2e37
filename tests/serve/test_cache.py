"""Result-cache robustness: corruption quarantine, atomic visibility,
cache-dir loss mid-run — every defect degrades to recompute.  The
corruption cases also run against the campaign checkpoint store, the
other user of :class:`repro.campaign.io.VerifiedStore`."""

import json
import shutil
import threading

import pytest

from repro.campaign.resume import CheckpointStore
from repro.serve.cache import ResultCache, payload_checksum

DIGEST = "ab" + "0" * 62
OTHER = "cd" + "0" * 62
PAYLOAD = {"aur": 0.5, "jobs": 12, "seed": 7}


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestRoundTrip:
    def test_miss_then_hit(self, cache):
        assert cache.get(DIGEST) is None
        assert cache.put(DIGEST, PAYLOAD) is not None
        assert cache.get(DIGEST) == PAYLOAD
        stats = cache.stats()
        assert stats == {"hits": 1, "misses": 1, "corrupt": 0,
                         "writes": 1, "hit_rate": 0.5}

    def test_rejects_malformed_digests(self, cache):
        for bad in ("", "xyz", "A" * 64, "0" * 63, "../../etc/passwd"):
            with pytest.raises(ValueError):
                cache.get(bad)


@pytest.fixture(scope="module")
def checkpoint():
    from repro.api import quick_scenario, simulate
    from repro.sim.checkpoint import CheckpointPolicy

    sink: list = []
    simulate(quick_scenario(n_tasks=3, horizon_us=5_000, seed=7),
             checkpoints=CheckpointPolicy(every_events=50),
             checkpoint_sink=sink.append)
    return sink[-1]


class Subject:
    """One :class:`VerifiedStore` user, seen through the calls the
    corruption tests make: write the good entry, read it back, and the
    defects that must each be quarantined."""

    def __init__(self, store, path, put, get, good, corrupt, defects):
        self.store, self.path, self.good = store, path, good
        self.put, self.get, self.corrupt = put, get, corrupt
        self.defects = defects


def cache_subject(tmp_path, checkpoint):
    cache = ResultCache(tmp_path / "cache")

    def defects():
        good = cache.path_for(DIGEST).read_text()
        envelope = json.loads(good)
        tampered = dict(envelope)
        tampered["payload"] = {**PAYLOAD, "aur": 0.9}   # bit-flip, stale sum
        misfiled = dict(envelope)
        misfiled["digest"] = OTHER
        return [
            good[: len(good) // 2],                      # torn write
            "not json at all {{{",                       # garbage
            json.dumps({"payload": PAYLOAD}),            # missing fields
            json.dumps(tampered, sort_keys=True),        # checksum mismatch
            json.dumps(misfiled, sort_keys=True),        # wrong address
            None,                                        # unreadable
        ]

    return Subject(cache, cache.path_for(DIGEST),
                   put=lambda: cache.put(DIGEST, PAYLOAD),
                   get=lambda: cache.get(DIGEST), good=PAYLOAD,
                   corrupt=lambda: cache.stats()["corrupt"],
                   defects=defects)


def checkpoint_subject(tmp_path, checkpoint):
    store = CheckpointStore(tmp_path / "checkpoints")

    def defects():
        good = store.checkpoint_path(0).read_text()
        envelope = json.loads(good)
        tampered = json.loads(good)
        tampered["state"]["clock"] += 1                  # bit-flip, stale digest
        misfiled = {"digest": DIGEST, "payload": PAYLOAD,   # a cache entry
                    "payload_sha256": payload_checksum(PAYLOAD)}
        return [
            good[: len(good) // 2],                      # torn write
            "not json at all {{{",                       # garbage
            json.dumps({"state": envelope["state"]}),    # missing fields
            json.dumps(tampered, sort_keys=True),        # digest mismatch
            json.dumps(misfiled, sort_keys=True),        # wrong kind
            None,                                        # unreadable
        ]

    return Subject(store, store.checkpoint_path(0),
                   put=lambda: store.save(0, checkpoint),
                   get=lambda: store.load(0), good=checkpoint,
                   corrupt=lambda: store.corrupt, defects=defects)


@pytest.fixture(params=[cache_subject, checkpoint_subject],
                ids=["cache", "checkpoint"])
def subject(request, tmp_path, checkpoint):
    return request.param(tmp_path, checkpoint)


def damage(path, defect):
    """Replace the entry at ``path`` by ``defect``; ``None`` leaves a
    directory there, which no read can open."""
    path.unlink()
    if defect is None:
        path.mkdir()
    else:
        path.write_text(defect)


class TestCorruption:
    def test_every_defect_quarantines_and_recomputes(self, subject):
        subject.put()
        path = subject.path
        defects = subject.defects()
        for round_, defect in enumerate(defects, 1):
            damage(path, defect)
            assert subject.get() is None               # miss, not garbage
            assert not path.exists()                   # moved aside
            assert len(subject.store.quarantined()) == round_  # evidence
            # The recompute path: overwrite and serve again.
            subject.put()
            assert subject.get() == subject.good
        assert subject.corrupt() == len(defects)

    def test_quarantine_names_never_collide(self, subject):
        for _ in range(3):
            subject.put()
            subject.path.write_text("garbage")
            assert subject.get() is None
        assert len(subject.store.quarantined()) == 3


class TestConcurrency:
    def test_read_during_write_sees_old_or_new_never_torn(self, cache):
        """Hammer get() while put() rewrites the same entry: atomic
        rename means every read is a verified payload or a clean miss —
        never a quarantine event (which would mean a torn read)."""
        versions = [{"v": n, "blob": "x" * 500} for n in range(40)]
        cache.put(DIGEST, versions[0])
        stop = threading.Event()
        seen, failures = [], []

        def reader():
            while not stop.is_set():
                payload = cache.get(DIGEST)
                if payload is None:
                    failures.append("miss during rewrite")
                elif payload not in versions:
                    failures.append(f"torn payload {payload!r}")
                else:
                    seen.append(payload["v"])

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for version in versions[1:]:
            cache.put(DIGEST, version)
        stop.set()
        for thread in threads:
            thread.join(timeout=5.0)
        assert not failures
        assert cache.stats()["corrupt"] == 0
        assert len(seen) > 0

    def test_cache_dir_deleted_mid_run_degrades_to_recompute(self, cache):
        cache.put(DIGEST, PAYLOAD)
        assert cache.get(DIGEST) == PAYLOAD
        shutil.rmtree(cache.root)
        # Reads are misses, not errors; writes rebuild the tree.
        assert cache.get(DIGEST) is None
        assert cache.put(DIGEST, PAYLOAD) is not None
        assert cache.get(DIGEST) == PAYLOAD
        assert cache.stats()["corrupt"] == 0

    def test_root_replaced_by_a_file_still_degrades(self, cache, tmp_path):
        cache.put(DIGEST, PAYLOAD)
        shutil.rmtree(cache.root)
        cache.root.write_text("now I am a file")
        assert cache.get(DIGEST) is None       # NotADirectoryError -> miss
        assert cache.put(DIGEST, PAYLOAD) is None   # swallowed, best-effort


class TestChecksum:
    def test_payload_checksum_is_canonical(self):
        assert payload_checksum({"b": 1, "a": 2}) == \
            payload_checksum({"a": 2, "b": 1})
        assert payload_checksum({"a": 1}) != payload_checksum({"a": 2})
