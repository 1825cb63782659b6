"""One workload process: import statebc, load the channel files, run the
planned CLI commands through `statebc.cli.main(argv)`, and write a result
file. Run from the checkout root as

    python3 perfbench/worker.py PLAN.json

PLAN.json holds `commands` (argv lists), `channels` (channel files to load
during set-up), `trace` (install the layer tracer), `result` and `spans`
(output paths) and `memory_limit_bytes`. The result holds, per command, its
exit code or exception, its wall time and `reference_s`, the mean time of
the speed sampler's loop while it ran.

`statebc` is imported from `src` because it is not installed, and the CLI
module has no `__main__` guard, so `python -m statebc.cli` would do nothing.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import threading
import time
import traceback


def loop_seconds(loops: int = 8_000) -> float:
    """Time of a fixed pure-Python loop (~0.5 ms)."""
    start = time.perf_counter()
    acc = 0
    for i in range(loops):
        acc += i * i
    return time.perf_counter() - start


class SpeedSampler(threading.Thread):
    """Times `loop_seconds` every `period` seconds on the commands' CPU.

    Other tenants of the machine slow a CPU by up to ~40% for tens of seconds
    at a time, and the loop slows with it, so a command's wall time over the
    mean loop time while it ran is steady where the wall time is not. The
    sampler takes ~2% of the CPU."""

    def __init__(self, period: float = 0.025):
        super().__init__(daemon=True)
        self.period = period
        self.samples: list[tuple[float, float]] = []  # (end perf_counter, seconds)
        self._done = threading.Event()

    def run(self) -> None:
        while not self._done.wait(self.period):
            took = loop_seconds()
            self.samples.append((time.perf_counter(), took))

    def stop(self) -> None:
        self._done.set()
        self.join()

    def mean_between(self, start: float, end: float) -> float:
        window = [d for t, d in self.samples if start <= t <= end]
        return sum(window) / len(window) if window else loop_seconds()


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        plan = json.load(fh)
    # Only this process is limited: a runaway lattice fails with MemoryError
    # instead of pushing the machine into swap.
    limit = int(plan["memory_limit_bytes"])
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    sys.path.insert(0, os.path.abspath("src"))
    import statebc.channel
    import statebc.cli

    for path in plan["channels"]:
        statebc.channel.load_channel(path)
    ready = time.monotonic()

    tracer = None
    if plan["trace"]:
        from layertrace import LayerTracer

        tracer = LayerTracer()
        tracer.install()

    # One CPU for the commands and the sampler: the CPUs slow independently.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sampler = SpeedSampler()
    sampler.start()
    commands = []
    for run_id, argv in enumerate(plan["commands"]):
        if tracer is not None:
            tracer.run_id = run_id
        error = None
        code = None
        start = time.perf_counter()
        try:
            code = statebc.cli.main(argv)
        except Exception as exc:
            traceback.print_exc()
            error = "".join(traceback.format_exception_only(exc)).strip()
        end = time.perf_counter()
        commands.append({"argv": argv, "exit": code, "error": error, "wall_s": end - start,
                         "reference_s": sampler.mean_between(start, end)})
    sampler.stop()

    result = {"ready_monotonic": ready, "commands": commands}
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.write_spans(plan["spans"])
    with open(plan["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
