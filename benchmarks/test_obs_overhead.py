"""Overhead floors for the ``repro.obs`` telemetry layer.

Telemetry's contract is zero overhead when disabled and "in the noise"
when enabled: the ~200us env-step hot path budgets every instrumented
call.  Three floors guard it:

* **disabled** (<= 1% of a step): disabled instrumentation is exactly
  one ``OBS.enabled`` attribute read plus one method dispatch.  That is
  a ~30ns effect — unresolvable end to end on a ~200us step under host
  jitter — so it is measured directly with a micro-probe replicating
  the wrapper pattern (200k tight-loop calls give nanosecond
  resolution) and compared against the measured step time.
* **phase off path** (<= 1% of a step): ``with obs.phase(...)`` with
  telemetry off, timed against the bare body it wraps — the real code,
  not a replica.
* **enabled** (<= 5% of a step): recording step counters plus the
  ``env.step.seconds`` histogram, measured end to end.  Host CPU
  frequency drifts over a run (turbo ramps, throttling), so enabled and
  disabled batches are timed in *interleaved* rounds and the floor is
  asserted on a low quantile of the per-round paired ratios: adjacent
  batches share thermal state, so the pairing cancels drift, and the
  quantile rejects interrupted batches.

Shared CI runners relax the floors via ``$REPRO_OBS_FLOOR`` /
``$REPRO_OBS_DISABLED_FLOOR``.

The enabled rounds' registry and trace are written to the untracked
``results/obs_metrics.jsonl`` / ``results/obs_trace.jsonl`` — the same
files ``repro report`` consumes — so CI uploads a real telemetry
artifact; the ratio summary only prints.
"""

import os
import time

import numpy as np

from repro import obs
from repro.circuits import get_circuit
from repro.floorplan import FloorplanEnv

from _util import RESULTS_DIR, check

#: Enabled-telemetry overhead ceiling on the env step (ratio vs disabled).
OBS_ENABLED_FLOOR = float(os.environ.get("REPRO_OBS_FLOOR", "1.05"))
#: Disabled-telemetry overhead ceiling (guard cost as a fraction of a step).
OBS_DISABLED_FLOOR = float(os.environ.get("REPRO_OBS_DISABLED_FLOOR", "1.01"))

ROUNDS = 40
STEPS_PER_BATCH = 60
PROBE_CALLS = 200_000


class _GuardProbe:
    """Replicates ``FloorplanEnv.step``'s disabled-path dispatch exactly:
    one global-flag read, one delegating method call."""

    def _step(self, action):
        return action

    def step(self, action):
        if not obs.OBS.enabled:
            return self._step(action)
        raise AssertionError("probe must run with telemetry disabled")


def _guard_overhead_seconds() -> float:
    """Per-call cost of the wrapper vs calling the body directly."""
    probe = _GuardProbe()
    calls = range(PROBE_CALLS)
    for _ in range(1000):  # warm up both call paths
        probe.step(3); probe._step(3)
    t0 = time.perf_counter()
    for _ in calls:
        probe._step(3)
    direct = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in calls:
        probe.step(3)
    guarded = time.perf_counter() - t0
    return max(0.0, guarded - direct) / PROBE_CALLS


def _make_stepper():
    """Episode-walking step closure: first valid action, auto-reset."""
    env = FloorplanEnv(get_circuit("ota2"))
    state = {"obs": env.reset()}

    def step():
        action = int(np.nonzero(state["obs"].action_mask)[0][0])
        observation, _, done, _ = env.step(action)
        state["obs"] = env.reset() if done else observation

    return step


def _time_batch(step) -> float:
    t0 = time.perf_counter()
    for _ in range(STEPS_PER_BATCH):
        step()
    return time.perf_counter() - t0


def test_obs_overhead(benchmark):
    step = _make_stepper()

    def measure():
        assert not obs.is_enabled()
        obs.reset()
        guard = _guard_overhead_seconds()
        off_times, on_times = [], []
        _time_batch(step)  # warmup
        try:
            for _ in range(ROUNDS):
                off_times.append(_time_batch(step))
                obs.OBS.enabled = True
                on_times.append(_time_batch(step))
                obs.OBS.enabled = False
        finally:
            obs.OBS.enabled = False
        obs.write_metrics(os.path.join(RESULTS_DIR, "obs_metrics.jsonl"))
        obs.write_trace(os.path.join(RESULTS_DIR, "obs_trace.jsonl"))

        step_seconds = float(np.median(off_times)) / STEPS_PER_BATCH
        disabled_ratio = 1.0 + guard / step_seconds
        enabled_ratio = float(
            np.quantile(np.array(on_times) / np.array(off_times), 0.25)
        )
        lines = [
            "repro.obs env-step overhead "
            f"({ROUNDS} interleaved rounds x {STEPS_PER_BATCH} steps)",
            f"env step (telemetry off) : {1e6 * step_seconds:8.2f} us",
            f"disabled guard cost      : {1e9 * guard:8.1f} ns/step "
            f"({disabled_ratio:.4f}x, floor {OBS_DISABLED_FLOOR}x)",
            f"enabled recording        : q25 paired ratio "
            f"{enabled_ratio:.4f}x (floor {OBS_ENABLED_FLOOR}x)",
        ]
        print("\n" + "\n".join(lines))
        assert disabled_ratio <= OBS_DISABLED_FLOOR, (
            f"disabled telemetry costs {disabled_ratio:.4f}x the raw step "
            f"(floor {OBS_DISABLED_FLOOR}x): the OBS.enabled guard is no "
            "longer free — check for work outside the `if OBS.enabled` branch"
        )
        assert enabled_ratio <= OBS_ENABLED_FLOOR, (
            f"enabled telemetry costs {enabled_ratio:.4f}x the disabled step "
            f"(floor {OBS_ENABLED_FLOOR}x): per-step recording got heavier"
        )

    check(benchmark, measure)


def test_obs_disabled_records_nothing(benchmark):
    """Strict no-op while disabled: stepping leaves the registry empty."""
    env = FloorplanEnv(get_circuit("ota1"))

    def run():
        obs.reset()
        assert not obs.is_enabled()
        observation = env.reset()
        env.step(int(np.nonzero(observation.action_mask)[0][0]))
        assert obs.OBS.registry.empty
        assert not obs.OBS.tracer.events

    check(benchmark, run)


def test_phase_off_is_free(benchmark):
    """``with obs.phase(...)`` off (telemetry off) returns the shared
    null singleton and costs <= 1% of an env step."""
    step = _make_stepper()
    probe = _GuardProbe()

    def measure():
        assert not obs.is_enabled()
        # No per-call allocation: the off path hands back the singleton.
        assert obs.phase("a") is obs.phase("b") is obs.NULL_PHASE
        for _ in range(1000):  # warm up the phase path
            with obs.phase("bench.phase"):
                probe._step(3)
        t0 = time.perf_counter()
        for _ in range(PROBE_CALLS):
            probe._step(3)
        direct = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(PROBE_CALLS):
            with obs.phase("bench.phase"):
                probe._step(3)
        phased = time.perf_counter() - t0
        cost = max(0.0, phased - direct) / PROBE_CALLS
        ratio = 1.0 + cost / (_time_batch(step) / STEPS_PER_BATCH)
        print(f"\nphase off path           : {1e9 * cost:8.1f} ns/phase "
              f"({ratio:.4f}x, floor {OBS_DISABLED_FLOOR}x)")
        assert obs.OBS.registry.empty and not obs.OBS.tracer.events
        assert ratio <= OBS_DISABLED_FLOOR, (
            f"a phase costs {ratio:.4f}x the raw step with telemetry off "
            f"(floor {OBS_DISABLED_FLOOR}x): obs.phase's off path is no "
            "longer one attribute read returning NULL_PHASE"
        )

    check(benchmark, measure)
