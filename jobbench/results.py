"""Job records, correctness checks and the end-to-end metric table.

Everything here is a pure function of job records, so the tests can
feed canned job outputs without running the program.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass, field
from typing import Any

#: End-to-end metrics in print order, with their units.  ``heldout_ratio``
#: and ``fail_frac`` are printed too but are not in the result line: the
#: first is multimodal across seeds (it is bounded per job by
#: ``HELDOUT_CEILING`` instead), the second is 0 on a healthy program.
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "job_s": "s",
    "makespan_s": "s",
    "peak_rss_mb": "MB",
}

#: Largest ``heldout_ratio`` a job may return, per CCA behind its traces.
#: The program returns one of a few handlers per CCA, depending on the
#: noise draw; each ceiling is about twice the worst ratio returned over
#: the seeds the benchmark was built on, so an answer about twice as bad
#: as any returned today fails its job (see ``jobbench/README.md``).
HELDOUT_CEILING: dict[str, float] = {
    "reno": 55.0,
    "cubic": 2.5,
    "vegas": 6.5,
    "westwood": 27.0,
}

#: ``heldout_ratio`` when no job returned a scorable handler: worse than
#: any real ratio, so such a run can never look like an improvement (it
#: is also reported with ``correct: false``).
NO_HANDLER_RATIO = 1e9


@dataclass
class JobRecord:
    """One job's outcome, as the benchmark saw it."""

    job_id: str
    cca: str
    job_s: float
    handler: str | None = None
    distance: float | None = None
    heldout: float | None = None
    heldout_ratio: float | None = None
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def answer(self) -> dict[str, Any]:
        """What must repeat bit for bit across runs of one seed."""
        return {
            "handler": self.handler,
            "distance": _bits(self.distance),
            "heldout": _bits(self.heldout),
        }


def _bits(value: float | None) -> str | None:
    return None if value is None else float(value).hex()


@dataclass
class Round:
    """One closed-loop round: its jobs, and the median over its clients
    of a client's span (first launch to last result)."""

    jobs: list[JobRecord]
    makespan_s: float
    peak_rss_mb: float


def last_json_line(text: str) -> dict[str, Any] | None:
    """The last line of *text* that parses as a JSON object."""
    for line in reversed(text.strip().splitlines()):
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            value = json.loads(line)
        except ValueError:
            continue
        if isinstance(value, dict):
            return value
    return None


def handler_problem(text: str | None, dsl: str | None) -> str | None:
    """Why *text* is not a handler of DSL *dsl* (``None`` if it is).

    With ``dsl=None`` (the classifier picked a family the job's report
    does not name) the handler must type-check in at least one family.
    A budgeted variant's name (``reno-5``) names its base family.
    """
    if not text:
        return "no handler returned"
    from repro.dsl import ast
    from repro.dsl.families import FAMILIES, family
    from repro.dsl.parser import parse
    from repro.dsl.typecheck import check_handler

    try:
        expr = parse(text)
    except Exception as exc:  # noqa: BLE001 - any parse failure is a miss
        return f"handler does not parse: {exc}"
    problems = []
    if dsl and dsl not in FAMILIES:
        dsl = dsl.rsplit("-", 1)[0]
    for name in [dsl] if dsl else sorted(FAMILIES):
        try:
            spec = family(name)
        except Exception as exc:  # noqa: BLE001 - unknown family name
            problems.append(str(exc))
            continue
        try:
            check_handler(
                expr,
                strict_units=spec.strict_units,
                allowed_signals=frozenset(spec.signals),
            )
        except Exception as exc:  # noqa: BLE001 - typecheck errors vary
            problems.append(f"{name}: {exc}")
            continue
        extra = set(ast.operators_used(expr)) - set(spec.operators)
        if extra:
            problems.append(f"{name}: operators {sorted(extra)} not in DSL")
            continue
        return None
    return "handler does not type-check in " + "; ".join(problems)


def check_answer(record: JobRecord, dsl: str | None) -> None:
    """Append every correctness miss of a finished job to its record."""
    problem = handler_problem(record.handler, dsl)
    if problem:
        record.failures.append(problem)
    if record.distance is None or not math.isfinite(record.distance):
        record.failures.append(f"reported distance {record.distance!r}")
    if record.heldout is None or not math.isfinite(record.heldout):
        record.failures.append(f"held-out distance {record.heldout!r}")
    ceiling = HELDOUT_CEILING[record.cca]
    if record.heldout_ratio is not None and not record.heldout_ratio <= ceiling:
        record.failures.append(
            f"held-out ratio {record.heldout_ratio:.4g} above the "
            f"{record.cca} ceiling {ceiling}"
        )


def check_repeatable(
    records: list[JobRecord], seen: dict[str, Any], key_prefix: str
) -> None:
    """Compare answers with every earlier run of the same seed.

    *seen* maps ``<key_prefix>/<job_id>`` to the first answer recorded;
    new keys are added, differing answers fail the job.
    """
    for record in records:
        if record.handler is None:
            continue
        key = f"{key_prefix}/{record.job_id}"
        answer = record.answer()
        first = seen.setdefault(key, answer)
        if first != answer:
            record.failures.append(
                f"answer differs from an earlier run of this seed: "
                f"{first} != {answer}"
            )


def fail_frac(rounds: list[Round]) -> tuple[int, int]:
    """``(failed, attempted)`` over every job of every round."""
    jobs = [job for round_ in rounds for job in round_.jobs]
    return sum(1 for job in jobs if not job.ok), len(jobs)


def heldout_ratio(rounds: list[Round]) -> float:
    """Median over rounds of the worst (largest) job ratio in the round."""
    per_round = []
    for round_ in rounds:
        ratios = [
            job.heldout_ratio
            for job in round_.jobs
            if job.heldout_ratio is not None
            and math.isfinite(job.heldout_ratio)
        ]
        per_round.append(max(ratios) if ratios else NO_HANDLER_RATIO)
    return statistics.median(per_round) if per_round else NO_HANDLER_RATIO


def end_to_end(setups: list[float], rounds: list[Round]) -> dict[str, float]:
    """Every end-to-end metric from set-up timings and rounds."""
    jobs = [job.job_s for round_ in rounds for job in round_.jobs]
    return {
        "setup_s": statistics.median(setups),
        "job_s": statistics.median(jobs),
        "makespan_s": statistics.median(r.makespan_s for r in rounds),
        "peak_rss_mb": max(r.peak_rss_mb for r in rounds),
    }


def result_line(
    metrics: dict[str, float], units: dict[str, str], rounds: list[Round]
) -> str:
    """The final stdout line: one JSON object."""
    failed, attempted = fail_frac(rounds)
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in metrics.items()
            },
        }
    )


def table(
    workload: str,
    seed: int,
    metrics: dict[str, float],
    units: dict[str, str],
    samples: dict[str, str],
) -> str:
    """Human-readable metric table printed before the result line."""
    lines = [f"workload {workload}  seed {seed}"]
    for name, value in metrics.items():
        lines.append(
            f"  {name:<26} {value:>14.6g} {units[name]:<8} "
            f"{samples.get(name, '')}"
        )
    return "\n".join(lines)
