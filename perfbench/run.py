"""statebc benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload {region,converse,sweep} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout that holds `src/statebc`. Every measured
iteration is a fresh single-threaded Python process (perfbench/worker.py)
that imports statebc from `src` and calls `statebc.cli.main(argv)` on channel
files generated here, so lattice and indicator caches start cold as they do
for a CLI user. Iterations repeat until the next one would end after
`--seconds`; at least one always runs.

--trace 0 prints the end-to-end metrics, medians over the iterations:
  wall_rel     time to solution of the workload's commands, each command in
               units of a fixed loop timed on its CPU while it ran
               (worker.SpeedSampler). On a shared 2-vCPU Xeon VM the raw
               wall time of a run moved by 13-24% (quartile spread over 10
               runs) with other tenants' load; this ratio by 3-6%.
  setup_s      process start until statebc is imported and the channels are
               loaded (also sampled by set-up-only processes)
  peak_rss_mb  ru_maxrss of the workload process
The raw wall_s, cpu_s (user + system time of the workload process) and the
loop time are printed beside them and kept in result.json.
--trace 1 alternates untraced and traced iterations and prints the per-layer
metrics of the traced ones (perfbench/layertrace.py), plus trace.overhead_s,
the traced minus the untraced median wall time. Counts must repeat exactly.

Every output CSV is checked against references (perfbench/workloads.py) and
must be byte-identical across the run's iterations. A command fails on a
non-zero exit, an exception, a memory-limit hit, a killed process or a
failed check; `failed` / `attempted` in the result line is the failed
fraction. Details (environment, channel specs, sha256 of every CSV, per
iteration numbers) go to .perfbench-work/<workload>-seed<N>-trace<T>/result.json.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

# Workers inherit these; set before this process imports numpy for the checks.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

WORKER = Path(__file__).resolve().parent / "worker.py"
WORK_ROOT = Path(".perfbench-work")
MEMORY_LIMIT_BYTES = 1 << 30
# Set-up-only processes before each untraced iteration; spread over the run,
# they sample the same machine conditions as the iterations. Runs with few
# iterations are topped up to SETUP_SAMPLES at the end.
SETUP_PROBES = 3
SETUP_SAMPLES = 12
# Workers are killed past this point so the run ends within 180 s.
RUN_DEADLINE_S = 160.0


def git_commit() -> str:
    if not Path(".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({exc})"
    return out.stdout.strip() or "unknown"


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "threads": THREAD_ENV,
        "memory_limit_bytes": MEMORY_LIMIT_BYTES,
        "git_commit": git_commit(),
    }


class Runner:
    """Starts worker processes for one benchmark run, each under the run's
    deadline, and collects what they measured."""

    def __init__(self, work: Path):
        self.work = work
        self.started = time.monotonic()
        self.deadline = self.started + RUN_DEADLINE_S
        self.count = 0
        self.env = dict(os.environ, PYTHONHASHSEED="0")

    def spawn(self, commands: list[dict], channels: list[str], trace: bool) -> dict:
        """Run one worker process to completion; returns its measurements."""
        k = self.count
        self.count += 1
        plan = {
            "commands": [c["argv"] for c in commands],
            "channels": channels,
            "trace": trace,
            "result": str(self.work / f"worker-{k}.json"),
            "spans": str(self.work / f"spans-{k}.npz"),
            "memory_limit_bytes": MEMORY_LIMIT_BYTES,
        }
        plan_path = self.work / f"plan-{k}.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        with open(self.work / f"worker-{k}.log", "w", encoding="utf-8") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(WORKER), str(plan_path)], env=self.env, stdout=log, stderr=log
            )
            timed_out = False
            try:
                while True:
                    pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                    if pid:
                        break
                    if time.monotonic() > self.deadline:
                        timed_out = True
                        proc.kill()
                        _, status, usage = os.wait4(proc.pid, 0)
                        break
                    time.sleep(0.02)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
        rec = {
            "worker": k,
            "trace": trace,
            "exit": proc.returncode,
            "timed_out": timed_out,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
        }
        result_path = Path(plan["result"])
        if proc.returncode == 0 and result_path.is_file():
            out = json.loads(result_path.read_text(encoding="utf-8"))
            rec["setup_s"] = out["ready_monotonic"] - spawned
            rec["commands"] = out["commands"]
            rec["wall_s"] = sum(c["wall_s"] for c in out["commands"])
            # Each command's time in units of the speed sampler's loop time
            # while it ran (worker.SpeedSampler).
            rec["wall_rel"] = sum(c["wall_s"] / c["reference_s"] for c in out["commands"])
            if "layers" in out:
                rec["layers"] = out["layers"]
        return rec


def sha256(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def measure(args, runner: Runner, channel_files: list[str], inputs: Path):
    """Run iterations (untraced, or untraced + traced pairs with --trace 1)
    until another step would end past --seconds. Returns the set-up probes
    and the iterations as (worker record, commands)."""
    probes, iterations = [], []
    while True:
        step_start = time.monotonic()
        if not args.trace:
            probes += [runner.spawn([], channel_files, False) for _ in range(SETUP_PROBES)]
        for traced in (False, True) if args.trace else (False,):
            out_dir = runner.work / f"out-{len(iterations)}"
            out_dir.mkdir()
            cmds = workloads.commands(args.workload, inputs, out_dir)
            iterations.append((runner.spawn(cmds, channel_files, traced), cmds))
        now = time.monotonic()
        if now + (now - step_start) > min(runner.started + args.seconds, runner.deadline):
            break
    while not args.trace and len(probes) < SETUP_SAMPLES and time.monotonic() < runner.deadline:
        probes.append(runner.spawn([], channel_files, False))
    return probes, iterations


def check_outputs(iterations):
    """Failure messages per failed command, and the sha256 of every output.
    Each command's files must be identical in every iteration; each distinct
    content is checked once."""
    failures: list[list[str]] = []
    hashes: dict[str, dict[str, str | None]] = {}
    checked: dict[tuple, list[str]] = {}
    for rec, cmds in iterations:
        for i, cmd in enumerate(cmds):
            digests = {p.name: sha256(p) for p in cmd["outputs"]}
            ran = rec["commands"][i] if "commands" in rec else None
            problems = []
            if ran is None:
                problems.append(f"worker exit {rec['exit']}{' (timed out)' if rec['timed_out'] else ''}")
            elif ran["error"] or ran["exit"] != 0:
                problems.append(f"exit {ran['exit']}: {ran['error'] or 'non-zero exit'}")
            elif None in digests.values():
                problems.append("missing output file")
            else:
                if digests != hashes.setdefault(cmd["label"], digests):
                    problems.append("output differs from the first iteration's")
                key = (cmd["label"], tuple(digests.values()))
                if key not in checked:
                    texts = [p.read_text(encoding="utf-8") for p in cmd["outputs"]]
                    checked[key] = workloads.check(cmd, texts)
                problems += checked[key]
            if problems:
                failures.append([f"iteration {rec['worker']} {cmd['label']}: {p}" for p in problems])
    return failures, hashes


def end_to_end(probes, untraced) -> tuple[dict, dict]:
    """The gated end-to-end metrics, and the raw times reported beside them."""
    setups = [r["setup_s"] for r in probes + untraced if "setup_s" in r]
    gated = {
        "wall_rel": (statistics.median(r["wall_rel"] for r in untraced), "ref"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in untraced), "MB"),
    }
    raw = {
        "wall_s": (statistics.median(r["wall_s"] for r in untraced), "s"),
        "cpu_s": (statistics.median(r["cpu_s"] for r in untraced), "s"),
        "reference_s": (statistics.median(c["reference_s"] for r in untraced for c in r["commands"]), "s"),
    }
    return gated, raw


def per_layer(traced, untraced, failures: list[str]) -> dict:
    """Median times over the traced iterations; counts must agree exactly."""
    metrics = {}
    for key, (_, unit) in traced[0]["layers"].items():
        values = [r["layers"][key][0] for r in traced]
        if unit != "s" and len(set(values)) > 1:
            failures.append(f"{key} differs between traced iterations: {values}")
        metrics[key] = (statistics.median(values) if unit == "s" else values[0], unit)
    overhead = statistics.median(r["wall_s"] for r in traced) - statistics.median(r["wall_s"] for r in untraced)
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def run(args) -> dict:
    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    specs = workloads.channels(args.workload, args.seed)
    channel_files = []
    for cname, spec in specs.items():
        path = inputs / f"{cname}.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        channel_files.append(str(path))

    runner = Runner(work)
    probes, iterations = measure(args, runner, channel_files, inputs)
    failed_commands, hashes = check_outputs(iterations)
    failures = [msg for msgs in failed_commands for msg in msgs]

    records = [rec for rec, _ in iterations]
    untraced = [r for r in records if not r["trace"] and "wall_s" in r]
    traced = [r for r in records if r["trace"] and "layers" in r]
    metrics, raw = {}, {}
    if not untraced or (args.trace and not traced):
        failures.append("no iteration completed")
    elif args.trace:
        metrics = per_layer(traced, untraced, failures)
        # Bytes the CLI wrote, from the files of one traced iteration.
        cmds = next(cmds for rec, cmds in iterations if rec is traced[0])
        size = sum(p.stat().st_size for c in cmds for p in c["outputs"] if p.is_file())
        metrics["cli.csv_bytes"] = (size, "bytes")
    else:
        metrics, raw = end_to_end(probes, untraced)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "channels": specs,
        "csv_sha256": hashes,
        "setup_probes": probes,
        "iterations": records,
        "attempted": sum(len(cmds) for _, cmds in iterations),
        "failed": len(failed_commands),
        "failures": failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "raw_times": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        "elapsed_s": time.monotonic() - runner.started,
    }
    (work / "result.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("region", "converse", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path("src/statebc/cli.py").is_file():
        print("error: run from the root of a statebc checkout (src/statebc not found)", file=sys.stderr)
        return 2
    # The output checks use statebc.examples as their reference.
    sys.path.insert(0, os.path.abspath("src"))

    report = run(args)
    for failure in report["failures"]:
        print(f"FAIL {failure}", file=sys.stderr)
    print(
        f"{report['workload']} seed={report['seed']} trace={report['trace']}: "
        f"{len(report['iterations'])} iterations, failed {report['failed']}/{report['attempted']} "
        f"commands (failed_frac {report['failed'] / max(report['attempted'], 1):g})",
        file=sys.stderr,
    )
    for key, m in [*report["metrics"].items(), *report["raw_times"].items()]:
        print(f"  {key:40s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    result = {
        "correct": not report["failures"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
