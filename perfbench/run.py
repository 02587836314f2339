"""smplab benchmark: end-to-end throughput and latency, or traced per-layer
timings, of one workload.

    python3 perfbench/run.py --workload grid-mc --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout: it imports smplab from ./src and
nowhere else, and exits with an error when ./src/smplab is missing.  The
workloads are defined in workloads.py and their reasons in BENCHMARK.json.

Untraced (--trace 0).  Set-up makes SETUP_PASSES passes, each the import of
numpy, smplab and the workloads in a fresh interpreter followed by a warm-up
in this process, one one-trial run per distinct (protocol, n) of the
workload; setup_s is the median pass.  The timed phase then issues whole
cycles of the workload, one `harness.run` or `harness.sweep` call after
another in this one process and one BLAS thread, until the calls have taken
--seconds and at least the workload's minimum number of cycles has run.  It
reports
- trials_per_s: Monte Carlo trials per wall second of the timed phase, which
  covers everything the calls do (plan builds, trials, exact evaluators,
  lengths probes, persist);
- run_s_p50, run_s_p90: median and 90th percentile of the seconds each run
  took (one sweep point is one run), as the harness's `wall_time_s`;
- setup_s, as above; peak_rss_mb: the process's maximum resident set when
  the minimum cycles have run.  Read at exit it would grow with the number
  of cycles the host's speed allowed, since eq-qq trials add to a store
  that smplab keeps for the life of the process.
Every time is scaled to a reference host speed by the probe in hostspeed.py,
timed between calls: a call's times by the probes just before and after it,
set-up's by all the probes between its imports and warm-ups.  The shared
hosts this runs on change speed by a quarter within seconds, which the
unscaled times carry in full; the median scale and the unscaled time of the
timed phase are printed beside the metrics.
The correctness gate (gate.py) then checks every run; a run that raised or
fails the gate counts in `failed`, and failed_frac = failed / attempted is
printed beside the metrics.  So are the records digest (sha256 over the JSON
lines of the runs of the minimum cycles, which every run makes) and the
environment stamp.

Traced (--trace 1).  After one set-up pass, the minimum cycles run once
untraced and once under the tracer (tracer.py), so the counts repeat exactly
for a seed; trace.overhead_frac is the ratio of the two scaled wall times
minus 1,
and the two passes must produce the same records.  harness.pool_dispatch_s
times the workload's first run with workers=2 against the same run serially
(wall(2) - wall(1) / 2), untraced, and requires the same record from both.
The per-function table is written to .bench_out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

# One BLAS thread, set before numpy loads.  smplab's matrices are small; a
# second OpenBLAS thread gains nothing on them and spins on the host's other
# core, which would make the timed runs and the speed probe measure it.
for _threads in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_threads] = "1"

from hostspeed import HostSpeed  # noqa: E402

SETUP_PASSES = 7
OUT_DIR = ".bench_out"


def load_smplab(root: Path) -> None:
    """Make ./src/smplab of the checkout importable, and only that copy."""
    package = root / "src" / "smplab"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: {package} not found; run from the root of a smplab checkout")
    sys.path.insert(0, str(root / "src"))
    import smplab

    if Path(smplab.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported smplab from {smplab.__file__}, not {package}")


class Runner:
    """Issues steps one after another and keeps every report for the gate.
    A step that raises is kept with `None` reports and its traceback printed.
    In `run_cycles` the host speed probe runs between steps, and `scale[i]`
    turns the times of `results[i]` into reference-host times."""

    def __init__(self, scratch: str, probe: HostSpeed):
        self.scratch = scratch
        self.probe = probe
        self.results: list[tuple[int, object, list | None]] = []  # (cycle, step, reports)
        self.scale: list[float] = []
        self.unscaled_s = 0.0
        self.min_cycles_rss_mb = 0.0

    def execute(self, step, cycle: int) -> None:
        from smplab import harness

        try:
            if step.points:
                reports = harness.sweep(step.template, list(step.points))
                harness.persist(reports, os.path.join(self.scratch, f"sweep{len(self.results)}"))
            else:
                reports = [harness.run(step.template)]
        except Exception:
            traceback.print_exc(file=sys.stderr)
            reports = None
        self.results.append((cycle, step, reports))

    def run_cycles(self, workload, seed: int, cycles: int, seconds: float = 0.0) -> list[float]:
        """Whole cycles until the calls have taken `seconds` of wall time and
        at least `cycles` ran; returns the wall time each cycle spent inside
        the calls, scaled to the reference host, and notes the peak resident
        set when the `cycles`-th cycle ends."""
        walls: list[float] = []
        while len(walls) < cycles or self.unscaled_s < seconds:
            index, wall, before = len(walls), 0.0, self.probe.time()
            for step in workload.cycle(seed, index):
                start = time.perf_counter()
                self.execute(step, index)
                step_s = time.perf_counter() - start
                after = self.probe.time()
                self.scale.append(self.probe.scale([before, after]))
                wall += step_s * self.scale[-1]
                self.unscaled_s += step_s
                before = after
            walls.append(wall)
            if len(walls) == cycles:
                self.min_cycles_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return walls

    def latencies(self) -> list[float]:
        """Each run's `wall_time_s`, scaled to the reference host."""
        return [r.wall_time_s * scale
                for (_, _, reports), scale in zip(self.results, self.scale) for r in reports or ()]

    def reports(self):
        return [r for _, _, reports in self.results if reports for r in reports]

    def attempted(self) -> int:
        return sum(step.runs for _, step, _ in self.results)

    def digest(self, cycles: int) -> str:
        h = hashlib.sha256()
        for cycle, _, reports in self.results:
            if cycle < cycles:
                for r in reports or ():
                    h.update((r.json_line() + "\n").encode())
                if reports is None:
                    h.update(b"failed\n")
        return h.hexdigest()


def gate_failures(runner: Runner) -> int:
    """Runs that raised or fail the gate; the gate's reasons go to stderr."""
    import gate

    runs_gated = runner.attempted()
    failed = 0
    for _, step, reports in runner.results:
        if reports is None:
            failed += step.runs
            continue
        for report in reports:
            try:
                found = gate.problems(report, runs_gated, gate.reference_exact(report, runs_gated))
            except Exception:
                traceback.print_exc(file=sys.stderr)
                found = ["reference exact run raised"]
            if found:
                failed += 1
                print(f"gate: {report.config.to_json()}: {'; '.join(found)}", file=sys.stderr)
    return failed


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import numpy, the loaded smplab
    and the workloads."""
    import smplab

    paths = [str(Path(smplab.__file__).parents[1]), str(Path(__file__).resolve().parent)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    code = ("import time; start = time.perf_counter(); import numpy, smplab, workloads; "
            "print(time.perf_counter() - start)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)})
    return float(done.stdout)


def set_up(workload, seed: int, passes: int, scratch: str,
           probe: HostSpeed) -> tuple[list[float], Runner]:
    """Set-up passes; returns each pass's seconds scaled to the reference
    host, and the warm-up runs, which the gate checks like any other.  One
    scale serves the whole set-up: a pass is too short for the few probes
    around it to agree on the host's speed."""
    times, probes, runner = [], [probe.time()], Runner(scratch, probe)
    for p in range(passes):
        imports_s = import_seconds()
        probes.append(probe.time())
        start = time.perf_counter()
        for step in workload.warmups(seed, p):
            runner.execute(step, -1)
        times.append(imports_s + time.perf_counter() - start)
        probes.append(probe.time())
    scale = probe.scale(probes)
    return [t * scale for t in times], runner


def measure_untraced(name: str, seed: int, seconds: float, scratch: str,
                     passes: int = SETUP_PASSES, min_cycles: int | None = None) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    probe = HostSpeed()
    setups, warm_runner = set_up(workload, seed, passes, scratch, probe)
    cycles = workload.min_cycles if min_cycles is None else min_cycles
    runner = Runner(scratch, probe)
    walls = runner.run_cycles(workload, seed, cycles, seconds)
    latencies = sorted(runner.latencies())
    failed = gate_failures(runner) + gate_failures(warm_runner)
    attempted = runner.attempted() + warm_runner.attempted()
    # Every cycle has the same mix, so its throughput is one sample; the
    # median over cycles is robust to what the scaling leaves of the host's
    # slow spells.
    trials = Counter()
    for cycle, _, reports_of_step in runner.results:
        trials[cycle] += sum(r.config.trials for r in reports_of_step or () if r.p_hat is not None)
    per_cycle = [trials[c] / w for c, w in enumerate(walls)]
    metrics = {
        "trials_per_s": (statistics.median(per_cycle), "1/s"),
        "run_s_p50": (statistics.median(latencies), "s"),
        "run_s_p90": (statistics.quantiles(latencies, n=10)[-1], "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (runner.min_cycles_rss_mb, "MB"),
    }
    info = {
        "runs": len(latencies),
        "runs_beyond_p90": sum(t > metrics["run_s_p90"][0] for t in latencies),
        "cycles": len(walls),
        "trials": sum(trials.values()),
        "timed_s": sum(walls),
        "host_speed_median": statistics.median(runner.scale),
        "unscaled_timed_s": runner.unscaled_s,
        "records_sha256": runner.digest(cycles),
    }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "info": info}


def pool_dispatch(config) -> tuple[float, bool]:
    """wall(workers=2) - wall(serial) / 2 for one run, and whether both
    runs wrote the same record apart from the worker count."""
    from smplab import harness

    def timed(workers):
        start = time.perf_counter()
        report = harness.run(dataclasses.replace(config, workers=workers))
        record = report.record()
        record["config"]["workers"] = None
        return time.perf_counter() - start, record

    serial_s, serial = timed(1)
    pool_s, pooled = timed(2)
    return pool_s - serial_s / 2, pooled == serial


def measure_traced(name: str, seed: int, scratch: str, out_dir: Path,
                   min_cycles: int | None = None) -> dict:
    from smplab import qsim

    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    probe = HostSpeed()
    _, warm_runner = set_up(workload, seed, 1, scratch, probe)
    cycles = workload.min_cycles if min_cycles is None else min_cycles
    plain = Runner(scratch, probe)
    plain_s = sum(plain.run_cycles(workload, seed, cycles))
    dispatch_s, pool_equal = pool_dispatch(plain.reports()[0].config)

    tracer = Tracer()
    traced = Runner(scratch, probe)
    tracer.install()
    try:
        traced_s = sum(traced.run_cycles(workload, seed, cycles))
    finally:
        tracer.uninstall()
    # The append-only state store is slated for removal; without it nothing
    # is retained per trial and the count is 0.
    store = getattr(qsim, "DEFAULT_STORE", ())
    metrics = layer_metrics(tracer, len(store), traced_s / plain_s - 1, dispatch_s)

    failed = gate_failures(traced) + gate_failures(warm_runner)
    attempted = traced.attempted() + warm_runner.attempted()
    same_records = plain.digest(cycles) == traced.digest(cycles)
    trace_path = out_dir / f"trace-{name}-seed{seed}.json"
    trace_path.write_text(json.dumps(tracer.table(), indent=1) + "\n")
    info = {
        "traced_records_equal_untraced": same_records,
        "pool_records_equal_serial": pool_equal,
        "records_sha256": traced.digest(cycles),
        "trace_table": os.path.relpath(trace_path),
    }
    return {"correct": failed == 0 and same_records and pool_equal,
            "attempted": attempted, "failed": failed, "metrics": metrics, "info": info}


def git_sha(root: Path) -> str:
    """HEAD's commit read from .git files, or "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, workload: str, seed: int) -> dict:
    import numpy

    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "workload": workload,
        "seed": seed,
    }


def report(result: dict, env: dict) -> None:
    """Human-readable lines, then the result line the contract asks for."""
    print(f"# environment {json.dumps(env, sort_keys=True)}")
    failed_frac = result["failed"] / result["attempted"]
    for name, (value, unit) in {**result["metrics"], "failed_frac": (failed_frac, "ratio")}.items():
        print(f"{name:40s} {value:>14.6g} {unit}")
    for key, value in result["info"].items():
        print(f"# {key} {value}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    load_smplab(root)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as scratch:
        if args.trace:
            result = measure_traced(args.workload, args.seed, scratch, out_dir)
        else:
            result = measure_untraced(args.workload, args.seed, args.seconds, scratch)
    report(result, environment(root, args.workload, args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
