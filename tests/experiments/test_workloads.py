"""Tests for the paper workload builders."""

import random

import pytest

from repro.experiments.workloads import (
    BuilderSpec,
    paper_taskset,
    readers_taskset,
    scaled_paper_taskset,
)
from repro.scenario import Scenario
from repro.tasks import TaskSpec, approximate_load
from repro.tasks.segments import AccessKind, ObjectAccess
from repro.tuf import ParabolicTUF, StepTUF


class TestPaperTaskset:
    def test_defaults_ten_tasks(self):
        tasks = paper_taskset(random.Random(0))
        assert len(tasks) == 10

    def test_load_near_target(self):
        tasks = paper_taskset(random.Random(1), target_load=0.4)
        assert approximate_load(tasks) == pytest.approx(0.4, rel=0.02)

    def test_scaled_builder_pins_load(self):
        tasks = scaled_paper_taskset(random.Random(1), 1.1)
        assert approximate_load(tasks) == pytest.approx(1.1, rel=0.02)

    def test_c_le_w_holds(self):
        for task in paper_taskset(random.Random(2)):
            assert task.critical_time <= task.arrival.window

    def test_accesses_per_job(self):
        tasks = paper_taskset(random.Random(3), accesses_per_job=4)
        for task in tasks:
            assert task.access_count == 4

    def test_accesses_are_distinct_objects(self):
        tasks = paper_taskset(random.Random(3), accesses_per_job=5)
        for task in tasks:
            objs = [s.obj for s in task.body
                    if isinstance(s, ObjectAccess)]
            assert len(set(objs)) == 5

    def test_rejects_more_accesses_than_objects(self):
        with pytest.raises(ValueError):
            paper_taskset(random.Random(0), n_objects=3, accesses_per_job=4)

    def test_step_class_is_all_steps(self):
        tasks = paper_taskset(random.Random(4), tuf_class="step")
        assert all(isinstance(t.tuf, StepTUF) for t in tasks)

    def test_hetero_class_mixes_shapes(self):
        tasks = paper_taskset(random.Random(4), tuf_class="hetero")
        assert any(isinstance(t.tuf, ParabolicTUF) for t in tasks)

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError):
            paper_taskset(random.Random(0), tuf_class="spiky")

    def test_materialize_builds_each_task_once(self, monkeypatch):
        built = []
        post_init = TaskSpec.__post_init__

        def counting(task):
            built.append(task.name)
            post_init(task)

        monkeypatch.setattr(TaskSpec, "__post_init__", counting)
        scenario = Scenario(workload=BuilderSpec.make("paper", n_tasks=12),
                            seed=3)
        tasks, _ = scenario.materialize()
        assert len(tasks) == 12
        assert built == [task.name for task in tasks]


class TestReadersTaskset:
    def test_reader_writer_split(self):
        tasks = readers_taskset(random.Random(0), n_readers=5, n_writers=2)
        assert len(tasks) == 7
        writers = [t for t in tasks if t.name.startswith("W")]
        readers = [t for t in tasks if t.name.startswith("R")]
        assert len(writers) == 2
        assert len(readers) == 5
        for task in readers:
            kinds = {s.kind for s in task.body
                     if isinstance(s, ObjectAccess)}
            assert kinds == {AccessKind.READ}

    def test_load_scales_with_tasks(self):
        light = readers_taskset(random.Random(1), n_readers=1)
        heavy = readers_taskset(random.Random(1), n_readers=8)
        assert approximate_load(heavy) > approximate_load(light)

    def test_explicit_load_override(self):
        tasks = readers_taskset(random.Random(2), n_readers=4,
                                target_load=0.5)
        assert approximate_load(tasks) == pytest.approx(0.5, rel=0.02)
