"""Job-level benchmark for the Abagnale reproduction (``repro``).

Usage, from the root of a checkout::

    python3 jobbench/run.py --workload reno_cli --seed 1 --seconds 10 --trace 0

One run sets the workload up several times, each in a fresh process
(``setup_s`` is the median),
then runs closed-loop rounds of the workload's job(s) through the
program's CLI until ``--seconds`` have passed (always at least one whole
round), checks every answer, and prints a metric table followed by one
JSON result line.  ``--trace 1`` instead sets up once, runs the round's
first job (or the whole fleet) untraced and then again under the
outside-in tracer (``jobbench/traced_job.py``), and reports the
per-layer metrics.

Everything a run writes stays under ``.jobbench/`` in the checkout; the
run's own directory is removed when it ends.  See ``jobbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".jobbench"

#: A run must end within this many seconds of starting.
RUN_LIMIT_S = 170.0
#: Time kept back after the last job for held-out scoring and output.
RESERVE_S = 25.0
#: Upper bound for one set-up repetition.
SETUP_TIMEOUT_S = 90.0


class Bench:
    """One benchmark run of one workload at one seed."""

    def __init__(self, workload, seed: int):
        from jobbench.heldout import HeldOut, source_digest
        from jobbench.workloads import NOISE

        self.workload = workload
        self.seed = seed
        self.work = STATE / f"run-{os.getpid()}-{time.time_ns()}"
        self.work.mkdir(parents=True)
        self.started = time.monotonic()
        # Answers and cached held-out results are only comparable for the
        # same program and benchmark code.
        digest = source_digest(SRC / "repro", ROOT / "jobbench")
        self.heldout = HeldOut(digest, STATE / "cache", seed, NOISE)
        self.answers_path = STATE / f"answers-{digest}.json"
        self.answers = _load_json(self.answers_path)
        self._rounds = 0

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.started)

    # -- set-up ------------------------------------------------------------

    def setup(self, index: int) -> tuple[Path, float, str | None]:
        """Run the set-up once, in one fresh process;
        ``(inputs, seconds, problem)``."""
        from jobbench.procs import job_env, run_process, sandbox

        where = self.work / f"setup-{index}"
        where.mkdir()
        steps = where / "steps.json"
        steps.write_text(json.dumps(self.workload.setup(self.seed, where)))
        outcome = run_process(
            [sys.executable, str(ROOT / "jobbench" / "setup_steps.py"), str(steps)],
            cwd=where,
            env=job_env(SRC, sandbox(where / "sandbox")),
            stdout=where / "stdout",
            stderr=where / "stderr",
            timeout_s=min(SETUP_TIMEOUT_S, max(self.remaining(), 1.0)),
        )
        # Process start to exit, as for jobs: the launcher's leak checks
        # after the exit are not set-up time.
        elapsed = outcome.wall_s
        if outcome.returncode != 0:
            tail = (where / "stderr").read_text(errors="replace")[-2000:]
            print(tail, file=sys.stderr)
            return where, elapsed, f"set-up failed (exit {outcome.returncode})"
        return where, elapsed, None

    # -- rounds ------------------------------------------------------------

    def round(self, inputs: Path, *, traced: bool, first_only: bool = False):
        """Run one round: ``(Round, program counters, (trace, wall))``.

        The round's CLI jobs are shared out round-robin among the
        workload's clients; each client runs its jobs one after the
        other, and the clients run at the same time.  *traced* runs the
        job(s) under the tracer; *first_only* runs only the round's first
        CLI job (the fleet always runs whole).
        """
        from jobbench.procs import remove_shm, shm_entries
        from jobbench.results import Round, check_answer
        from jobbench.workloads import read_cli, read_fleet

        self._rounds += 1
        round_dir = self.work / f"round-{self._rounds}"
        round_dir.mkdir()
        self.workload.prepare(inputs, round_dir)
        fleet = self.workload.kind == "fleet"
        count = 1 if fleet or first_only else len(self.workload.jobs)
        clients = min(count, self.workload.clients)

        def client(first: int) -> list[tuple]:
            done = []
            for index in range(first, count, clients):
                job_dir = round_dir / f"job-{index}"
                job_dir.mkdir()
                done.append((index, job_dir, *self._launch(
                    self.workload.command(self.seed, index, inputs, round_dir),
                    job_dir,
                    traced,
                )))
            return done

        shm_before = shm_entries()
        with ThreadPoolExecutor(clients) as pool:
            launched = sorted(
                (job for done in pool.map(client, range(clients)) for job in done),
                key=lambda job: job[0],
            )
        # Checked once every client has finished: a job running beside
        # another must not take the other's live segments for leaks.
        leaked_shm = remove_shm(shm_entries() - shm_before)
        records, dsls, outcomes = [], {}, []
        program, document = {}, None
        for index, job_dir, outcome, stdout in launched:
            outcomes.append(outcome)
            if fleet:
                found, program, found_dsls = read_fleet(
                    self.workload, stdout, round_dir,
                    outcome.started_at, outcome.wall_s,
                )
            else:
                found, program, found_dsls = read_cli(
                    self.workload.jobs[index], stdout, outcome.wall_s
                )
                if outcome.returncode != 0 and not outcome.timed_out:
                    found[0].failures.append(
                        f"exit status {outcome.returncode}"
                    )
            for record in found:
                if outcome.timed_out:
                    record.failures.append(
                        f"timed out after {outcome.wall_s:.0f} s"
                    )
                if outcome.leaked_processes:
                    record.failures.append(
                        f"{outcome.leaked_processes} process(es) outlived "
                        "the job"
                    )
                if leaked_shm:
                    record.failures.append(
                        f"/dev/shm entries left behind: {leaked_shm}"
                    )
            records.extend(found)
            dsls.update(found_dsls)
            if traced:
                document = _load_json(job_dir / "trace.json") or None
                if document is None:
                    for record in found:
                        record.failures.append("traced run wrote no trace")
            if any(not record.ok for record in found):
                tail = (job_dir / "stderr").read_text(errors="replace")
                print(tail[-2000:], file=sys.stderr)
        for record in records:
            if record.handler:
                try:
                    record.heldout, record.heldout_ratio = self.heldout.ratio(
                        record.cca, record.handler
                    )
                except Exception as exc:  # noqa: BLE001 - recorded as a miss
                    record.failures.append(f"held-out scoring failed: {exc}")
            check_answer(record, dsls.get(record.job_id))
        # Per client: its first launch to its last result.
        chains = [
            [outcome for index, _, outcome, _ in launched if index % clients == k]
            for k in range(clients)
        ]
        makespan = (
            max(record.job_s for record in records)
            if fleet
            else statistics.median(
                max(o.started_at + o.wall_s for o in chain)
                - min(o.started_at for o in chain)
                for chain in chains
            )
        )
        wall = sum(outcome.wall_s for outcome in outcomes)
        return (
            Round(
                jobs=records,
                makespan_s=makespan,
                peak_rss_mb=max(outcome.peak_rss_mb for outcome in outcomes),
            ),
            program,
            (document, wall),
        )

    def _launch(self, args: list[str], job_dir: Path, traced: bool):
        """Run one program process in *job_dir*; ``(Outcome, stdout)``."""
        from jobbench.procs import job_env, run_process, sandbox

        if traced:
            argv = [
                sys.executable, str(ROOT / "jobbench" / "traced_job.py"),
                "--out", str(job_dir / "trace.json"), "--", *args,
            ]
        else:
            argv = [sys.executable, "-m", "repro", *args]
        outcome = run_process(
            argv,
            cwd=job_dir,
            env=job_env(SRC, sandbox(job_dir / "sandbox")),
            stdout=job_dir / "stdout",
            stderr=job_dir / "stderr",
            timeout_s=max(self.remaining() - RESERVE_S, 5.0),
        )
        return outcome, (job_dir / "stdout").read_text(errors="replace")

    # -- the run -----------------------------------------------------------

    def run(self, seconds: int, trace: bool) -> int:
        from jobbench import results, tracer
        from jobbench.results import JobRecord, Round, check_repeatable

        setups: list[float] = []
        inputs, problem = None, None
        while not problem and len(setups) < (1 if trace else self.workload.setups):
            if inputs is not None:
                shutil.rmtree(inputs)  # only the last set-up is used
            inputs, elapsed, problem = self.setup(len(setups))
            setups.append(elapsed)
        rounds: list[Round] = []
        if problem:
            rounds.append(
                Round(
                    jobs=[
                        JobRecord(spec.job_id, spec.cca, setups[-1], failures=[problem])
                        for spec in self.workload.jobs
                    ],
                    makespan_s=setups[-1],
                    peak_rss_mb=0.0,
                )
            )
        else:
            measured = time.monotonic()
            while True:
                began = time.monotonic()
                # A traced run needs untraced times of the traced job only.
                rounds.append(
                    self.round(inputs, traced=False, first_only=trace)[0]
                )
                took = time.monotonic() - began
                if time.monotonic() - measured >= seconds:
                    break
                budget = self.remaining() - RESERVE_S
                if trace:
                    budget -= 1.5 * took  # keep room for the traced round
                if took > budget:
                    break
        traced_round, program, document, wall = None, {}, None, 0.0
        if trace and not problem:
            traced_round, program, (document, wall) = self.round(
                inputs, traced=True, first_only=True
            )
        every = rounds + ([traced_round] if traced_round else [])
        check_repeatable(
            [job for round_ in every for job in round_.jobs],
            self.answers,
            f"{self.workload.name}/{self.seed}",
        )
        _save_json(self.answers_path, self.answers)
        self.heldout.save()

        e2e = results.end_to_end(setups, rounds)
        quality = results.heldout_ratio(rounds)
        failed, attempted = results.fail_frac(every)
        jobs = sum(len(round_.jobs) for round_ in rounds)
        print(
            results.table(
                self.workload.name,
                self.seed,
                {**e2e, "heldout_ratio": quality, "fail_frac": failed / attempted},
                {**results.END_TO_END, "heldout_ratio": "ratio", "fail_frac": "fraction"},
                {
                    "setup_s": f"median of {len(setups)} set-up(s)",
                    "job_s": f"median of {jobs} job(s)",
                    "makespan_s": f"median of {len(rounds)} round(s), per client",
                    "peak_rss_mb": f"max of {len(rounds)} round(s), incl. workers",
                    "heldout_ratio": (
                        f"worst job per round, median of {len(rounds)}; "
                        "not in the result line"
                    ),
                    "fail_frac": (
                        f"{failed} of {attempted} job(s) failed or incorrect"
                    ),
                },
            )
        )
        for round_ in every:
            for job in round_.jobs:
                print(
                    f"  job {job.job_id} ({job.job_s:.2f} s): "
                    f"{job.handler!r} distance "
                    f"{job.distance} held-out {job.heldout} "
                    f"ratio {job.heldout_ratio}"
                    + (f" FAILED: {'; '.join(job.failures)}" if job.failures else "")
                )
        if not trace:
            print(results.result_line(e2e, results.END_TO_END, every))
            return 0

        if document is not None:
            layer = tracer.layer_metrics(document, program, wall)
            if document.get("missing"):
                print(f"  trace: wrappers not installed: {document['missing']}")
        else:
            layer = dict.fromkeys(tracer.PER_LAYER_METRICS, 0.0)
        layer["refine.heldout_ratio"] = quality
        # Overhead against the untraced runs of the same job(s), same input
        # (none when the set-up failed and nothing ran).
        traced_job_s = untraced_job_s = 0.0
        if traced_round is not None:
            traced_ids = {job.job_id for job in traced_round.jobs}
            traced_job_s = statistics.median(
                job.job_s for job in traced_round.jobs
            )
            untraced_job_s = statistics.median(
                job.job_s
                for round_ in rounds
                for job in round_.jobs
                if job.job_id in traced_ids
            )
            layer["trace.overhead_frac"] = traced_job_s / untraced_job_s - 1.0
        else:
            layer["trace.overhead_frac"] = 0.0
        print(
            results.table(
                self.workload.name, self.seed, layer, tracer.PER_LAYER_METRICS,
                {
                    **{
                        name: f"{value * wall:.3f} s of the traced job"
                        for name, value in layer.items()
                        if name in tracer.TIME_SHARES
                    },
                    "trace.overhead_frac": (
                        f"traced job_s {traced_job_s:.3f} s vs untraced "
                        f"{untraced_job_s:.3f} s"
                    ),
                },
            )
        )
        print(
            "  note: calls inside pool workers are invisible to this "
            "outside tracer; pooled layers report parent-side time plus "
            "the program's own counters (in-worker spans: ROADMAP 2c)"
        )
        print(results.result_line(layer, tracer.PER_LAYER_METRICS, every))
        return 0

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def _load_json(path: Path) -> dict:
    try:
        value = json.loads(path.read_text())
    except (OSError, ValueError):
        return {}
    return value if isinstance(value, dict) else {}


def _save_json(path: Path, value: dict) -> None:
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(value, sort_keys=True, indent=1))
    os.replace(tmp, path)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"error: no program source at {SRC / 'repro'}; run the "
            "benchmark from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT), str(SRC)]
    from jobbench.procs import become_subreaper
    from jobbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    become_subreaper()
    bench = Bench(WORKLOADS[args.workload], args.seed)
    try:
        return bench.run(args.seconds, bool(args.trace))
    finally:
        bench.cleanup()


if __name__ == "__main__":
    sys.exit(main())
