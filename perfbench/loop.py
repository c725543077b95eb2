"""The closed loop: whole passes of a schedule, each call timed alone and then checked."""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

#: label of a whole pass, for schedules whose headline figure is the pass itself
PASS = "pass"


@dataclass
class LoopResult:
    durations: dict[str, list[float]] = field(default_factory=dict)  # op label -> seconds per call
    pass_times: list[float] = field(default_factory=list)
    busy_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passes(self) -> int:
        return len(self.pass_times)

    @property
    def ops_per_s(self) -> float:
        """Timed calls per second of timed calls."""
        return sum(map(len, self.durations.values())) / self.busy_s

    def samples(self, label) -> list[float]:
        return self.pass_times if label == PASS else self.durations[label]

    def p(self, label, pct) -> float:
        """The pct-th percentile of a label's call times, in seconds."""
        values = self.samples(label)
        if pct == 50 or len(values) == 1:
            return statistics.median(values)
        return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def run_pass(schedule, res: LoopResult, order_rng, tracer=None) -> None:
    """Call every op of the schedule once, timing each call and checking it after."""
    indices = list(range(len(schedule.ops)))
    if schedule.shuffle:
        order_rng.shuffle(indices)
    pass_s = 0.0
    for i in indices:
        op = schedule.ops[i]
        if tracer:
            tracer.begin_op(op.kind, op.label)
        start = time.perf_counter()
        try:
            out, error = op.call(), None
        except Exception as exc:  # a failed op is counted, the loop goes on
            out, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.end_op()
        reason = error
        if reason is None:
            try:
                reason = op.check(out)
            except Exception as exc:  # an output the check cannot even read is wrong
                reason = f"check raised {type(exc).__name__}: {exc}"
        res.attempted += 1
        if reason:
            res.failed += 1
            res.failures.append(f"{op.label}: {reason}")
        res.durations.setdefault(op.label, []).append(elapsed)
        pass_s += elapsed
    res.busy_s += pass_s
    res.pass_times.append(pass_s)


def run_loop(schedule, seconds, order_rng) -> LoopResult:
    """Whole passes until the timed calls add up to `seconds`."""
    res = LoopResult()
    while res.busy_s < seconds:
        run_pass(schedule, res, order_rng)
    return res


def run_alternating(schedule, seconds, order_rng, tracer) -> tuple[LoopResult, LoopResult]:
    """Untraced and traced passes in turn until each side has run `seconds`.

    Alternating keeps slow drifts of machine speed out of the traced/untraced
    ratio. The tracer's wrappers are installed for the traced passes only.
    """
    plain, traced = LoopResult(), LoopResult()
    while plain.busy_s < seconds or traced.busy_s < seconds:
        run_pass(schedule, plain, order_rng)
        tracer.install()
        try:
            run_pass(schedule, traced, order_rng, tracer)
        finally:
            tracer.restore()
    return plain, traced
