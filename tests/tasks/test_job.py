"""Tests for job runtime state."""

import json

import pytest

from repro.arrivals import UAMSpec
from repro.tasks import Compute, Job, JobState, ObjectAccess, TaskSpec
from repro.tuf import StepTUF


def _job(body=None, release=1000):
    task = TaskSpec(
        name="T",
        arrival=UAMSpec(1, 1, 10_000),
        tuf=StepTUF(critical_time=5_000),
        body=body or (Compute(100), ObjectAccess(obj=0, duration=50),
                      Compute(30)),
    )
    return Job(task=task, jid=0, release_time=release)


class TestBasics:
    def test_name_combines_task_and_jid(self):
        assert _job().name == "T#0"

    def test_absolute_critical_time(self):
        assert _job(release=1000).critical_time_abs == 6_000

    def test_fresh_job_is_ready_and_live(self):
        job = _job()
        assert job.state is JobState.READY
        assert job.is_live

    def test_completed_is_not_live(self):
        job = _job()
        job.state = JobState.COMPLETED
        assert not job.is_live

    def test_jobs_hash_by_identity(self):
        a, b = _job(), _job()
        assert a != b
        assert len({a, b}) == 2


class TestIdentityContract:
    """Jobs are mutable kernel entities: equality and hashing are by
    identity, and ``name`` is derived from task and jid, never stored."""

    def test_same_task_and_jid_are_unequal(self):
        a, b = _job(), _job()
        assert (a.task, a.jid, a.name) == (b.task, b.jid, b.name)
        assert a != b
        assert not a == b
        assert a == a

    def test_hash_is_identity(self):
        a, b = _job(), _job()
        assert hash(a) == object.__hash__(a)
        assert hash(b) == object.__hash__(b)
        assert {a: 1}.get(b) is None

    def test_name_survives_a_checkpoint_round_trip(self):
        from repro.sim.checkpoint import (
            CHECKPOINT_VERSION, _decode_job, _encode_job)

        job = _job()
        job.segment_index = 1
        row = _encode_job(job, 0)
        assert isinstance(row, list)
        assert job.name not in row
        restored = _decode_job(row, [job.task])
        assert restored.name == job.name == "T#0"
        assert restored is not job and restored != job
        assert CHECKPOINT_VERSION == 2

    def test_every_checkpointed_field_round_trips(self):
        """A non-default value for every init field but the task (the
        row stores its index) survives encode → JSON → decode.  A Job
        field missing here, or a row slot added to only the encoder or
        only the decoder, fails the test."""
        from dataclasses import fields

        from repro.sim.checkpoint import _decode_job, _encode_job

        values = {
            "jid": 3, "release_time": 1234, "state": JobState.BLOCKED,
            "segment_index": 2, "segment_progress": 17, "holds_lock": "L",
            "held_locks": {0, "L"}, "blocked_on": 1, "access_dirty": True,
            "segment_extra": 9, "retries": 4, "blockings": 5,
            "preemptions": 6, "completion_time": 4321,
            "accrued_utility": 0.5, "dispatch_token": 7,
        }
        checkpointed = [f.name for f in fields(Job)
                        if f.init and f.name != "task"]
        assert sorted(values) == sorted(checkpointed)
        default = _job()
        job = Job(task=default.task, **values)
        for name in checkpointed:
            assert getattr(job, name) != getattr(default, name), name
        row = _encode_job(job, 0)
        assert len(row) == len(checkpointed) + 1
        restored = _decode_job(json.loads(json.dumps(row)), [job.task])
        for name in checkpointed:
            assert getattr(restored, name) == getattr(job, name), name
        assert (restored.task, restored.name, restored.critical_time_abs) \
            == (job.task, job.name, job.critical_time_abs)


class TestProgress:
    def test_remaining_time_counts_all_segments(self):
        assert _job().remaining_time() == 180

    def test_advance_reduces_remaining(self):
        job = _job()
        job.advance(60)
        assert job.remaining_time() == 120
        assert job.segment_remaining() == 40

    def test_overrun_is_clamped_to_declared_demand(self):
        job = _job()
        job.segment_extra = 40
        job.advance(130)
        # 30 ticks past the declared 100: the scheduler still sees the
        # 80 ticks declared for the later segments, never less.
        assert job.remaining_time() == 80

    def test_advance_cannot_cross_segment_boundary(self):
        job = _job()
        with pytest.raises(RuntimeError, match="overruns"):
            job.advance(101)

    def test_advance_rejects_negative(self):
        with pytest.raises(ValueError):
            _job().advance(-1)

    def test_finish_segment_requires_completion(self):
        job = _job()
        job.advance(99)
        with pytest.raises(RuntimeError, match="incomplete"):
            job.finish_segment()

    def test_finish_segment_moves_on(self):
        job = _job()
        job.advance(100)
        job.finish_segment()
        assert isinstance(job.current_segment, ObjectAccess)
        assert job.in_access

    def test_finished_job_has_no_segment(self):
        job = _job(body=(Compute(10),))
        job.advance(10)
        job.finish_segment()
        assert job.current_segment is None
        assert job.remaining_time() == 0

    def test_advancing_finished_job_raises(self):
        job = _job(body=(Compute(10),))
        job.advance(10)
        job.finish_segment()
        with pytest.raises(RuntimeError, match="finished"):
            job.advance(1)


class TestRetry:
    def test_restart_access_discards_progress(self):
        job = _job()
        job.advance(100)
        job.finish_segment()     # now in the access segment
        job.advance(30)
        wasted = job.restart_access()
        assert wasted == 30
        assert job.segment_progress == 0
        assert job.retries == 1

    def test_restart_outside_access_raises(self):
        job = _job()
        with pytest.raises(RuntimeError, match="outside an access"):
            job.restart_access()

    def test_restart_clears_dirty_flag(self):
        job = _job()
        job.advance(100)
        job.finish_segment()
        job.access_dirty = True
        job.restart_access()
        assert not job.access_dirty


class TestSojourn:
    def test_incomplete_job_has_no_sojourn(self):
        assert _job().sojourn_time() is None

    def test_sojourn_is_completion_minus_release(self):
        job = _job(release=1000)
        job.completion_time = 3_500
        assert job.sojourn_time() == 2_500
