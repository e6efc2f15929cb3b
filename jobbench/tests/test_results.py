"""Metric extraction from canned job outputs."""

import json
import math

import pytest

from jobbench.results import (
    END_TO_END,
    HELDOUT_CEILING,
    NO_HANDLER_RATIO,
    JobRecord,
    Round,
    check_answer,
    check_repeatable,
    end_to_end,
    fail_frac,
    handler_problem,
    heldout_ratio,
    result_line,
)
from jobbench.workloads import (
    FLEET_MIXED,
    RENO_CLI,
    WORKLOADS,
    read_cli,
    read_fleet,
)

CLI_STDOUT = "\n".join([
    "progress noise that is not JSON",
    json.dumps({
        "dsl": "reno-5",
        "handler": "mss + (cwnd - reno_inc)",
        "distance": 3.39,
        "handlers_scored": 1528,
        "iterations": [{"index": 0}],
        "phase_seconds": {"classify": 9.7, "refinement": 2.2},
    }),
])


def test_read_cli_extracts_the_answer_and_counters():
    spec = RENO_CLI.jobs[0]
    (record,), program, dsls = read_cli(spec, CLI_STDOUT, job_s=22.5)
    assert record.handler == "mss + (cwnd - reno_inc)"
    assert record.distance == 3.39 and record.job_s == 22.5
    assert program["handlers"] == 1528 and program["iterations"] == 1
    assert dsls == {spec.job_id: "reno-5"}
    check_answer(record, dsls[spec.job_id])
    assert record.failures == ["held-out distance None"]
    record.heldout, record.failures = 27.2, []
    check_answer(record, dsls[spec.job_id])
    assert record.ok


def test_an_answer_worse_than_the_ceiling_fails_its_job():
    assert {job.cca for w in WORKLOADS.values() for job in w.jobs} <= set(
        HELDOUT_CEILING
    )
    ceiling = HELDOUT_CEILING["reno"]
    for ratio, ok in ((0.94, True), (ceiling, True), (ceiling * 1.01, False),
                      (math.inf, False)):
        record = JobRecord("reno-a", "reno", 20.0, handler="2 * cwnd",
                           distance=3.0, heldout=200.0, heldout_ratio=ratio)
        check_answer(record, "reno")
        assert record.ok is ok, record.failures
    assert "above the reno ceiling" in record.failures[-1]


def _write_fleet(tmp_path, states):
    state = tmp_path / "spool" / "state"
    state.mkdir(parents=True)
    jobs = {}
    for job_id, (ledger_state, done_at, handler) in states.items():
        (state / f"{job_id}.json").write_text(
            json.dumps({"state": ledger_state, "updated_at": done_at})
        )
        jobs[job_id] = {"best_expression": handler, "best_distance": 1.5,
                        "iterations_done": 1, "handlers_scored": 10}
    return json.dumps({"jobs": jobs, "fleet": {"preemptions": 3},
                       "phase_seconds": {"exhaustive": 4.0}})


def test_read_fleet_times_jobs_by_ledger_done_timestamps(tmp_path):
    stdout = _write_fleet(tmp_path, {
        "a-reno": ("done", 110.0, "cwnd + mss"),
        "b-cubic": ("done", 120.0, "cwnd + mss"),
        "c-vegas": ("failed", 130.0, None),
        "d-westwood": ("done", 125.0, "cwnd + reno_inc"),
    })
    records, program, dsls = read_fleet(
        FLEET_MIXED, stdout, tmp_path, launched_at=100.0, wall_s=40.0
    )
    assert [r.job_s for r in records] == [10.0, 20.0, 40.0, 25.0]
    assert records[2].failures == ["ledger state 'failed'"]
    assert program["preemptions"] == 3 and program["handlers"] == 40
    assert dsls["c-vegas"] == "vegas" and dsls["a-reno"] is None


def test_handler_problem_checks_the_jobs_dsl():
    assert handler_problem("8 + ack_rate * rtt", "vegas") is None
    assert "not allowed" in handler_problem("8 + ack_rate * rtt", "reno")
    assert "does not parse" in handler_problem("cwnd +", None)
    # Without a named DSL any family may accept it.
    assert handler_problem("wmax + cube(time_since_loss)", None) is None


def _job(job_id, ratio, failures=()):
    return JobRecord(job_id, "reno", 10.0, handler="cwnd", distance=1.0,
                     heldout=2.0, heldout_ratio=ratio, failures=list(failures))


def test_heldout_ratio_is_the_worst_job_per_round():
    rounds = [
        Round([_job("a", 1.2), _job("b", 7.8)], 12.0, 90.0),
        Round([_job("a", 1.2), _job("b", 7.9)], 13.0, 95.0),
        Round([_job("a", 1.1), _job("b", 8.0)], 11.0, 80.0),
    ]
    assert heldout_ratio(rounds) == pytest.approx(7.9)
    metrics = end_to_end([0.2, 0.1, 0.3], rounds)
    assert metrics == {
        "setup_s": 0.2, "job_s": 10.0, "makespan_s": 12.0,
        "peak_rss_mb": 95.0,
    }


def test_fail_frac_counts_failed_and_incorrect_jobs():
    rounds = [Round([_job("a", 1.0), _job("b", None, ["exit status 1"])],
                    5.0, 50.0)]
    assert fail_frac(rounds) == (1, 2)
    line = json.loads(result_line(end_to_end([0.1], rounds), END_TO_END, rounds))
    assert line["correct"] is False
    assert (line["failed"], line["attempted"]) == (1, 2)
    assert set(line["metrics"]) == set(END_TO_END)


def test_a_run_without_any_handler_still_reports_a_ratio():
    rounds = [Round([JobRecord("a", "reno", 3.0, failures=["timed out"])],
                    3.0, 10.0)]
    assert heldout_ratio(rounds) == NO_HANDLER_RATIO
    assert math.isfinite(heldout_ratio(rounds))


def test_repeat_runs_of_a_seed_must_agree():
    seen = {}
    first = [_job("a", 1.0)]
    check_repeatable(first, seen, "reno_cli/1")
    assert first[0].ok
    again = [_job("a", 1.0)]
    again[0].distance = 1.0000000000000002
    check_repeatable(again, seen, "reno_cli/1")
    assert not again[0].ok
