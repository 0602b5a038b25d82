"""The benchmark's inputs are seeded: one seed and round repeat outputs and
work counts exactly, another seed or round changes the inputs but not the
task mix.

To stay quick these tests run the first task of each kind, which covers
every kind of call the benchmark makes.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import workloads  # noqa: E402
from tracer import Tracer, is_count  # noqa: E402
from worker import digest, run_tasks  # noqa: E402


def _one_task_per_kind(workload):
    firsts = {}
    for task in workload.tasks:
        firsts.setdefault(task.kind, task)
    workload.tasks = list(firsts.values())
    return workload


def _traced_round(name, seed, workdir):
    workload = _one_task_per_kind(workloads.build(name, seed, workdir, 1))
    tracer = Tracer()
    with tracer:
        _, results, _ = run_tasks(workload.tasks, mixed=False, tracer=tracer)
    counts = {k: v for k, v in tracer.snapshot().items() if is_count(k)}
    return workload, results, counts


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_repeats_outputs_and_work_counts(name, tmp_path):
    workload, first, counts_a = _traced_round(name, 11, tmp_path / "a")
    _, second, counts_b = _traced_round(name, 11, tmp_path / "b")
    assert [digest(r) for r in first] == [digest(r) for r in second]
    assert counts_a == counts_b
    assert sum(counts_a.values()) > 0
    for task, (out, err) in zip(workload.tasks, first):
        assert err is None, (task.kind, err)
        assert task.check(out) is None, task.kind


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("seed, round_", [(12, 1), (11, 2)])
def test_other_seed_or_round_changes_inputs_but_not_the_task_mix(name, seed, round_,
                                                                 tmp_path):
    a = workloads.build(name, 11, tmp_path / "a", 1)
    b = workloads.build(name, seed, tmp_path / "b", round_)
    assert a.kinds() == b.kinds()
    assert len(a.probes) == len(b.probes)
    assert all(x.spec != y.spec for x, y in zip(a.tasks, b.tasks))
