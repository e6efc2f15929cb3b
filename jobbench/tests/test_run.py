"""The benchmark end to end against a stand-in program, and its launcher."""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from jobbench import procs
from jobbench.procs import run_process
from jobbench.workloads import RENO_CLI

ROOT = Path(__file__).resolve().parents[2]
E2E = {"setup_s", "job_s", "makespan_s", "peak_rss_mb"}


#: A stand-in ``repro`` CLI: ``zoo`` (the reno_cli set-up) works, every
#: job command fails.
FAILING_CLI = "def main(argv=None):\n    return 0 if argv == ['zoo'] else 3\n"


def _checkout(tmp_path: Path, cli: str | None) -> Path:
    """A checkout holding the benchmark and, optionally, a stand-in
    ``repro`` package whose ``cli`` module is *cli*."""
    shutil.copytree(
        ROOT / "jobbench", tmp_path / "jobbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    if cli is not None:
        package = tmp_path / "src" / "repro"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "cli.py").write_text(cli)
        (package / "__main__.py").write_text(
            "import sys\nfrom repro.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
    return tmp_path


def _bench(checkout: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "jobbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=120,
    )


def test_a_failing_job_still_prints_every_metric(tmp_path):
    checkout = _checkout(tmp_path, FAILING_CLI)
    proc = _bench(checkout, "reno_cli", 0)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is False
    # Rounds of four jobs (two clients, two jobs each) repeat until
    # --seconds has passed.
    assert result["failed"] == result["attempted"] >= len(RENO_CLI.jobs)
    assert set(result["metrics"]) == E2E
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any("fail_frac" in line and " 1 " in line for line in lines)
    assert any("heldout_ratio" in line for line in lines)
    assert "exit status 3" in proc.stdout


def test_a_failing_traced_job_still_prints_every_layer_metric(tmp_path):
    from jobbench.tracer import PER_LAYER_METRICS

    checkout = _checkout(tmp_path, FAILING_CLI)
    proc = _bench(checkout, "reno_cli", 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # The first job untraced (repeated until --seconds), then traced.
    assert result["failed"] == result["attempted"] >= 2
    assert set(result["metrics"]) == set(PER_LAYER_METRICS)


@pytest.mark.parametrize("trace", [0, 1])
def test_a_failing_setup_still_prints_every_metric(tmp_path, trace):
    from jobbench.tracer import PER_LAYER_METRICS

    checkout = _checkout(tmp_path, "def main(argv=None):\n    return 4\n")
    proc = _bench(checkout, "reno_cli", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == result["attempted"] == len(RENO_CLI.jobs)
    assert set(result["metrics"]) == (
        set(PER_LAYER_METRICS) if trace else E2E
    )
    assert "set-up failed (exit 4)" in proc.stdout


def test_without_the_program_the_benchmark_refuses(tmp_path):
    checkout = _checkout(tmp_path, None)
    proc = _bench(checkout, "reno_cli", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_a_hung_process_is_killed_at_its_timeout(tmp_path):
    outcome = run_process(
        ["sleep", "30"], cwd=tmp_path, env={"PATH": "/usr/bin:/bin"},
        stdout=tmp_path / "out", stderr=tmp_path / "err", timeout_s=0.5,
    )
    assert outcome.timed_out and outcome.returncode is None
    assert outcome.wall_s < 10


def test_a_child_that_outlives_its_job_is_counted_and_stopped(tmp_path):
    outcome = run_process(
        ["sh", "-c", "sleep 60 & exit 0"], cwd=tmp_path,
        env={"PATH": "/usr/bin:/bin"},
        stdout=tmp_path / "out", stderr=tmp_path / "err", timeout_s=30,
    )
    assert outcome.returncode == 0
    assert outcome.leaked_processes == 1


def test_reaping_orphans_leaves_a_waited_job_to_its_launcher():
    # A job that has just exited, while its launcher thread is not yet
    # back in wait4: another launcher reaping orphans must not take it.
    job = subprocess.Popen(["true"])
    with procs._LOCK:
        procs._WAITING.add(job.pid)
    try:
        deadline = time.monotonic() + 10
        while os.waitid(os.P_PID, job.pid, os.WEXITED | os.WNOWAIT | os.WNOHANG) is None:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        procs._reap_orphans()
        _, status = os.waitpid(job.pid, 0)
    finally:
        with procs._LOCK:
            procs._WAITING.discard(job.pid)
    job.returncode = os.waitstatus_to_exitcode(status)
    assert job.returncode == 0
