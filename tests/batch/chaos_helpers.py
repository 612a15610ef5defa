"""Importable ``call``-kind targets for the batch chaos battery.

Batch workers resolve ``call`` tasks by importing ``module:function``,
so the misbehaving callables the supervision tests need must live in a
real module (this one — importable as ``tests.batch.chaos_helpers``
from the repo root in every worker), not in closures.  Cross-attempt
state (``fail_first_attempts``) goes through marker files because each
attempt may run in a different process.
"""

from __future__ import annotations

import os
import time

from repro.exceptions import ReproError


def ok_task(value: int = 1) -> dict:
    return {"value": value}


def emit_events(count: int) -> dict:
    """Emit ``count`` events into the task's stream, then succeed."""
    from repro.obs import get_events

    stream = get_events()
    for i in range(count):
        stream.emit("chaos.tick", i=i)
    return {"emitted": count}


def fail_first_attempts(counter_dir: str, times: int, value: int = 7) -> dict:
    """Fail the first ``times`` invocations, then succeed.

    Counts invocations via marker files in ``counter_dir`` so the count
    survives process boundaries — exactly what a retried pool task is.
    """
    os.makedirs(counter_dir, exist_ok=True)
    so_far = len(os.listdir(counter_dir))
    with open(os.path.join(counter_dir, f"call-{so_far}.{os.getpid()}"), "w"):
        pass
    if so_far < times:
        raise RuntimeError(f"transient failure {so_far + 1} of {times}")
    return {"value": value, "failed_first": times}


def raise_repro_error() -> dict:
    raise ReproError("contextual failure").with_context(
        stage="test", model="chaos", detail="x" * 500,
    )


def raise_memory_error() -> dict:
    raise MemoryError("allocation of " + "many " * 200 + "bytes failed")


def raise_system_exit() -> dict:
    raise SystemExit(42)


def raise_keyboard_interrupt() -> dict:
    raise KeyboardInterrupt()


def sleep_then_return(seconds: float, value: int = 3) -> dict:
    time.sleep(seconds)
    return {"value": value}
