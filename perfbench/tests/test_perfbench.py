"""Tests of the benchmark itself: tiny runs of every workload, and checks that
count a failure when an answer or a ledger is wrong.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from workloads import KNOWN_FAULTS, WORKLOADS, build, planted_cycle, raises_leader_fault  # noqa: E402,E501

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_names(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run(name, trace):
    result, trace_file = run.run(name, seed=3, seconds=0.0, trace=trace, tiny=True)
    pool = WORKLOADS[name].prepare(run.import_qcongest(), 3, True)
    assert result["correct"] is True
    assert result["attempted"] == len(pool)  # one pass
    assert result["failed"] == sum(inst.kind in KNOWN_FAULTS for inst in pool)
    want = metric_names("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert (trace_file is not None) == trace


def executed(name, pick):
    """(workload, qc, instance, answer) for the first tiny instance pick() accepts."""
    workload = WORKLOADS[name]
    qc = run.import_qcongest()
    pool = workload.prepare(qc, 3, True)
    build(qc, pool)
    workload.warm(qc)
    inst = next(i for i in pool if pick(i))
    answer = workload.execute(qc, inst)
    workload.reference(qc, inst)
    assert workload.check(inst, answer) is None
    return workload, qc, inst, answer


def flipped(answer, label):
    found, full, other = answer[label]
    out = dict(answer)
    out[label] = (not found, full, other)
    return out


def test_wrong_clique_answer_fails():
    workload, _, inst, answer = executed("clique", lambda i: i.kind == "gnp")
    assert workload.check(inst, flipped(answer, "nested")) is not None
    assert workload.check(inst, flipped(answer, "oracle")) is not None


def test_found_on_cycle_negative_fails():
    workload, _, inst, answer = executed("cycle", lambda i: i.kind == "girth")
    assert workload.check(inst, flipped(answer, "event")) is not None


def test_miss_on_planted_cycle_is_not_a_failure_but_counts_against_completeness():
    workload, _, inst, answer = executed(
        "cycle", lambda i: i.positive and i.part == "cycle-detect")
    missed = flipped(answer, "event")
    assert workload.check(inst, missed) is None
    assert workload.properties([inst], [missed])


def test_wrong_ledger_fails():
    workload, qc, inst, answer = executed(
        "clique", lambda i: i.kind == "bipartite" and i.size == 3)
    found, full, charged = answer["triangle15"]
    wrong = qc.netsim.CostLedger()
    for e in charged.entries:
        wrong.charge(e.phase, e.model, e.kind, e.rounds + 1)
    bad = dict(answer, triangle15=(found, full, wrong))
    assert "ledger" in workload.check(inst, bad)

    workload, qc, inst, answer = executed("cycle", lambda i: i.part == "cycle-protocol")
    found, ledger, _ = answer["protocol"]
    ledger.charge("extra", "congest", "route", 1)
    assert "ledger" in workload.check(inst, answer)


def test_raising_operation_is_counted_as_failed(monkeypatch):
    workload = WORKLOADS["clique"]
    real = type(workload).execute
    calls = []

    def execute(self, qc, inst):
        calls.append(inst)
        if len(calls) == 1:
            raise RuntimeError("injected")
        return real(self, qc, inst)

    monkeypatch.setattr(type(workload), "execute", execute)
    result, _ = run.run("clique", seed=3, seconds=0.0, trace=False, tiny=True)
    assert result["failed"] == 1
    assert result["attempted"] == len(workload.prepare(run.import_qcongest(), 3, True))


def test_leader_fault_instance_raises_and_counts_as_failed():
    workload = WORKLOADS["cycle"]
    qc = run.import_qcongest()
    pool = [i for i in workload.prepare(qc, 3, True) if i.kind in KNOWN_FAULTS]
    build(qc, pool)
    workload.warm(qc)
    timed = run.timed_phase(workload, qc, pool, 0.0)
    failures, problems = run.check(workload, qc, pool, timed)
    assert [i for i, _ in failures] == [0] and "disconnected from node 0" in failures[0][1]
    assert problems == []


def test_seeded_c6_draw_that_raises_is_replaced_and_the_default_is_kept():
    qc = run.import_qcongest()
    trial = 207 * 10**6 + 56  # cycle-detect seed 206, round 56
    kept = planted_cycle(qc, 6, trial, (20, 96), redraw_raising=False)
    assert kept[1]["seed"] == trial and raises_leader_fault(qc, kept, 6, trial)
    redrawn = planted_cycle(qc, 6, trial, (20, 96), redraw_raising=True)
    assert redrawn[1]["seed"] != trial and not raises_leader_fault(qc, redrawn, 6, trial)


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "clique", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
