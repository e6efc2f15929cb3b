"""The job-shaped workloads, driven through the program's CLI.

Each workload is closed loop: a round launches the workload's job(s)
from its client(s), each client waiting for one job's result before it
launches its next, and the next round starts only when every result is
in.  Inputs come only from the workload seed.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from jobbench.results import JobRecord, last_json_line

#: Mild measurement noise applied to every simulated input archive (and,
#: seeded from ``seed + 1``, to the held-out corpus): the levels the
#: repo's paper-scale benchmarks call mild (``BENCH_NOISE`` in
#: ``benchmarks/conftest.py``): 2 ms jitter, 2% dropout, 2% cwnd error.
NOISE = {"jitter": 0.002, "dropout": 0.02, "cwnd_error": 0.02}


def noise_args(seed: int) -> list[str]:
    return [
        "--jitter", str(NOISE["jitter"]),
        "--dropout", str(NOISE["dropout"]),
        "--cwnd-error", str(NOISE["cwnd_error"]),
        "--seed", str(seed),
    ]


@dataclass(frozen=True)
class JobSpec:
    """One job of a round: its id, the CCA behind its traces (whose
    held-out corpus judges it), and the DSL it names (``None`` when the
    classifier picks)."""

    job_id: str
    cca: str
    dsl: str | None


#: A set-up step or job command: program arguments after
#: ``python -m repro``.
Step = list[str]


@dataclass(frozen=True)
class Workload:
    """How to set a workload up, launch its jobs and read their results.
    Why each workload exists is recorded in ``jobbench/README.md``."""

    name: str
    jobs: tuple[JobSpec, ...]
    #: Set-up steps, given the seed and the set-up directory; one set-up
    #: runs them in order in one fresh process.
    setup: Callable[[int, Path], list[Step]]
    #: The command of job *index*, given the seed, set-up and round
    #: directories.  CLI workloads run one process per job, in order;
    #: the fleet runs one server for all of its jobs.
    command: Callable[[int, int, Path, Path], Step]
    #: Untimed per-round preparation (copying inputs a round consumes).
    prepare: Callable[[Path, Path], None]
    #: ``fleet`` reads results from the spool; ``cli`` from stdout.
    kind: str
    #: Clients running a round's CLI jobs at the same time; client *k*
    #: runs jobs ``k, k + clients, ...`` one after the other.
    clients: int = 1
    #: Set-ups per untraced run; ``setup_s`` is their median.
    setups: int = 5


def _no_prepare(inputs: Path, round_dir: Path) -> None:
    return None


# -- reno_cli ------------------------------------------------------------

#: A ``reno_cli`` round is four jobs on four noise draws (seeds
#: ``4*seed`` to ``4*seed + 3``), run by two clients at once, two jobs
#: each, one per core.  One job's time swings by about a quarter with
#: the draw and with the host's load on its core; four jobs over both
#: cores in the time two take one after the other keep ``job_s`` steady.
RENO_CLI = Workload(
    name="reno_cli",
    jobs=tuple(JobSpec(f"reno-{tag}", "reno", None) for tag in "abcd"),
    # No inputs to prepare: the set-up is one ``repro zoo``, so
    # ``setup_s`` measures program start-up (interpreter and imports).
    setup=lambda seed, where: [["zoo"]],
    command=lambda seed, index, inputs, round_dir: [
        "synthesize", "--cca", "reno", "--report", "json",
        "--workers", "1", *noise_args(4 * seed + index),
    ],
    prepare=_no_prepare,
    kind="cli",
    clients=2,
)


# -- fleet_mixed ---------------------------------------------------------

#: Fleet archives hold one environment (the middle of the default 3x3
#: matrix), which keeps the set-ups of a run inside the benchmark's
#: time budget.
FLEET_MATRIX = ["--bandwidth", "10", "--rtt", "50"]
FLEET_BUDGET = ["--max-depth", "3", "--max-nodes", "4"]
FLEET_JOBS = (
    JobSpec("a-reno", "reno", None),
    JobSpec("b-cubic", "cubic", None),
    JobSpec("c-vegas", "vegas", "vegas"),
    JobSpec("d-westwood", "westwood", "reno"),
)


def _fleet_setup(seed: int, where: Path) -> list[Step]:
    spool = str(where / "spool")
    steps: list[Step] = [
        ["collect", "--cca", cca, "--out", str(where / f"{cca}.json"),
         *FLEET_MATRIX, *noise_args(seed)]
        for cca in ("reno", "cubic", "vegas")
    ]
    steps += [
        ["submit", "--spool", spool, "--job-id", "a-reno",
         "--traces", str(where / "reno.json"), *FLEET_BUDGET],
        ["submit", "--spool", spool, "--job-id", "b-cubic",
         "--traces", str(where / "cubic.json"), *FLEET_BUDGET],
        ["submit", "--spool", spool, "--job-id", "c-vegas",
         "--traces", str(where / "vegas.json"), "--dsl", "vegas",
         *FLEET_BUDGET],
        ["submit", "--spool", spool, "--job-id", "d-westwood",
         "--cca", "westwood", "--dsl", "reno", "--duration", "10",
         "--bandwidth", "10", "--rtt", "30", "60", *FLEET_BUDGET],
    ]
    return steps


def _fleet_prepare(inputs: Path, round_dir: Path) -> None:
    """A fresh spool per round holding only the submitted specs."""
    shutil.copytree(inputs / "spool" / "queue", round_dir / "spool" / "queue")


FLEET_MIXED = Workload(
    name="fleet_mixed",
    jobs=FLEET_JOBS,
    setup=_fleet_setup,
    command=lambda seed, index, inputs, round_dir: [
        "serve", "--spool", str(round_dir / "spool"), "--workers", "2",
        "--report", "json",
    ],
    prepare=_fleet_prepare,
    kind="fleet",
    # Each set-up simulates three archives; three set-ups keep a run
    # inside the benchmark's time budget.
    setups=3,
)

WORKLOADS = {w.name: w for w in (RENO_CLI, FLEET_MIXED)}


# -- reading a round's results -------------------------------------------


def read_cli(
    spec: JobSpec, stdout: str, job_s: float
) -> tuple[list[JobRecord], dict[str, Any], dict[str, str | None]]:
    """Job record, program counters and reported DSL of one CLI job."""
    record = JobRecord(job_id=spec.job_id, cca=spec.cca, job_s=job_s)
    report = last_json_line(stdout) or {}
    record.handler = report.get("handler")
    record.distance = report.get("distance")
    program = {
        "phase_seconds": report.get("phase_seconds") or {},
        "iterations": len(report.get("iterations") or []),
        "handlers": report.get("handlers_scored") or 0,
        "preemptions": 0,
    }
    return [record], program, {spec.job_id: report.get("dsl") or spec.dsl}


def read_fleet(
    workload: Workload,
    stdout: str,
    round_dir: Path,
    launched_at: float,
    wall_s: float,
) -> tuple[list[JobRecord], dict[str, Any], dict[str, str | None]]:
    """Job records of a fleet round, timed by the ledger's ``done``
    timestamps (server launch to the job's final ledger write; the
    server's whole lifetime for a job that never got there)."""
    report = last_json_line(stdout) or {}
    snapshots = report.get("jobs") or {}
    records = []
    for spec in workload.jobs:
        ledger = _read_json(round_dir / "spool" / "state" / f"{spec.job_id}.json")
        done_at = ledger.get("updated_at")
        record = JobRecord(
            job_id=spec.job_id,
            cca=spec.cca,
            job_s=(
                done_at - launched_at
                if ledger.get("state") == "done" and done_at
                else wall_s
            ),
        )
        if ledger.get("state") != "done":
            record.failures.append(f"ledger state {ledger.get('state')!r}")
        snapshot = snapshots.get(spec.job_id) or {}
        record.handler = snapshot.get("best_expression")
        record.distance = snapshot.get("best_distance")
        records.append(record)
    program = {
        "phase_seconds": report.get("phase_seconds") or {},
        "iterations": sum(
            int(s.get("iterations_done") or 0) for s in snapshots.values()
        ),
        "handlers": sum(
            int(s.get("handlers_scored") or 0) for s in snapshots.values()
        ),
        "preemptions": (report.get("fleet") or {}).get("preemptions", 0),
    }
    return records, program, {spec.job_id: spec.dsl for spec in workload.jobs}


def _read_json(path: Path) -> dict[str, Any]:
    try:
        value = json.loads(path.read_text())
    except (OSError, ValueError):
        return {}
    return value if isinstance(value, dict) else {}
