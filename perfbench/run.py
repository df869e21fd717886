"""The oqst benchmark: closed-loop runs of one workload, with correctness checks.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cavity_workers2 --seed 1 --seconds 40 --trace 0

One client runs the workload again and again, each run in a fresh child
process started only after the previous one ended, for about ``--seconds``:
it stops when the next run would end more than half a run past it (at
least one run).  Every run's outputs are checked.  The last line of
standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` (correctness checks) and ``metrics``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` as
medians over the runs.  ``--trace 1`` makes the same untraced runs, then
one traced run of the same inputs, and reports the per-layer metrics plus
the tracing overhead (traced minus untraced median ``wall_s``).  The
trace is written to ``perfbench/traces/``.  Layers the workload never
enters report 0.

Workloads are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = HERE / ".work"
TRACE_DIR = HERE / "traces"
SEED_POOL = HERE / "seeds.json"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
from tracer import merge  # noqa: E402

STEPS = 220
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 170
VERIFY_CHECKS = 13
# Trajectory-steps one `oqst verify` samples: 20000 x 2 (sampler against the
# outcome tree), 100 x 60 (cavity laws), 2 x 3 x 50 (population against dense).
VERIFY_TRAJ_STEPS = 20000 * 2 + 100 * 60 + 2 * 3 * 50


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str            # "cli" or "library"
    trajectories: int    # per run; 0 for verify
    workers: int = 1

    @property
    def traj_steps(self) -> int:
        return self.trajectories * STEPS if self.trajectories else VERIFY_TRAJ_STEPS

    def spec(self, seed: int, out_dir: Path) -> dict:
        if self.mode == "library":
            return {"mode": "library", "cavity": {
                "dense": True, "steps": STEPS, "trajectories": self.trajectories, "seed": seed,
            }}
        if self.name == "verify":
            argv = ["verify", "--seed", str(seed), "--out", str(out_dir)]
        else:
            argv = ["run", "cavity", "--steps", str(STEPS), "--traj", str(self.trajectories),
                    "--workers", str(self.workers), "--seed", str(seed), "--out", str(out_dir)]
        return {"mode": "cli", "argv": argv}


WORKLOADS = {w.name: w for w in (
    Workload("cavity", "cli", trajectories=100),
    Workload("cavity_workers2", "cli", trajectories=100, workers=2),
    Workload("dense_cavity", "library", trajectories=100),
    Workload("verify", "cli", trajectories=0),
)}


class Tally:
    """Correctness checks attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list = []

    def add(self, label: str, failures: list, attempted: int = 1):
        self.attempted += attempted
        self.failed += min(len(failures), attempted)
        self.messages += [f"{label}: {f}" for f in failures]


# -- child processes ---------------------------------------------------------


def spawn(spec: dict, work: Path, tag: str) -> dict:
    """Run child.py on ``spec``; wall, set-up, CPU and peak RSS of that child only."""
    spec = {**spec, "result": str(work / f"{tag}.result.json"),
            "stdout": str(work / f"{tag}.stdout")}
    env = {**os.environ, **BLAS_THREADS, "PYTHONPATH": str(SRC)}
    stderr_path = work / f"{tag}.stderr"
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                                cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err, start_new_session=True)
        # On timeout, kill the child's whole session, pool workers included.
        timer = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        duration = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"child {tag} exited {proc.returncode}:\n{stderr_path.read_text()[-3000:]}")
    result = json.loads(Path(spec["result"]).read_text())
    result.update(
        setup_s=result["ready"] - t0,
        duration_s=duration,
        cpu_s=usage.ru_utime + usage.ru_stime,  # includes reaped pool workers
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # KiB; max over the child and its workers
    )
    return result


def check_run(w: Workload, run: dict, out_dir: Path, first: tuple | None, tally: Tally):
    """Checks on one run's outputs; ``first`` is the first run's (run, out_dir)."""
    if w.mode == "library":
        tally.add("law flags", checks.check_flags(run["flags"], checks.LAW_FLAGS),
                  len(checks.LAW_FLAGS))
        if first is not None:
            tally.add("repeat run", [] if run["records"] == first[0]["records"]
                      else ["records differ from the first run"])
        return
    tally.add("exit code", [] if run["exit_code"] == 0 else [f"exit {run['exit_code']}"])
    if not (out_dir / "summary.json").is_file():  # the run raised before writing it
        return
    if w.name == "verify":
        tally.add("verify flags", checks.check_verify_summary(out_dir, VERIFY_CHECKS), VERIFY_CHECKS)
        if first is not None:
            same = (checks.summary_core(checks.read_summary(out_dir))
                    == checks.summary_core(checks.read_summary(first[1])))
            tally.add("repeat run", [] if same else ["summary differs from the first run"])
        return
    tally.add("law flags", checks.check_cavity_summary(out_dir), len(checks.LAW_FLAGS))
    if first is not None:
        tally.add("repeat run", checks.check_same_outputs(first[1], out_dir))


def check_workload(w: Workload, seed: int, first: tuple, work: Path, tally: Tally):
    """Checks made once per benchmark run, against the reference paths."""
    run, out_dir = first
    if w.mode == "library":
        failures = checks.check_dense_against_population(run, w.spec(seed, out_dir)["cavity"])
        tally.add("dense vs population", failures, w.trajectories)
    elif w.name != "verify":
        tally.add("trajectory 0 vs dense replay", checks.check_trajectory_replay(out_dir))
    if w.workers > 1:
        ref_out = work / "reference-workers1"
        ref_spec = Workload(w.name, w.mode, w.trajectories, workers=1).spec(seed, ref_out)
        spawn(ref_spec, work, "reference")
        tally.add("workers 2 vs workers 1", checks.check_same_outputs(out_dir, ref_out))


def timed_runs(w: Workload, seed: int, seconds: float, work: Path, tally: Tally) -> list:
    runs: list = []
    first = None
    start = time.perf_counter()
    while True:
        out_dir = work / f"out{len(runs)}"
        run = spawn(w.spec(seed, out_dir), work, f"run{len(runs)}")
        check_run(w, run, out_dir, first, tally)
        if first is None:
            first = (run, out_dir)
        runs.append(run)
        # Stop once the next run would end more than half a run past --seconds.
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(r["duration_s"] for r in runs) / 2 > seconds:
            return runs


# -- metrics -----------------------------------------------------------------


def end_to_end(w: Workload, runs: list, setups: list, tally: Tally) -> dict:
    med = lambda key: statistics.median(r[key] for r in runs)  # noqa: E731
    return {
        "wall_s": med("wall_s"),
        "setup_s": statistics.median(setups),
        "cpu_s": med("cpu_s"),
        "peak_rss_mb": med("peak_rss_mb"),
        "traj_steps_per_s": w.traj_steps / med("wall_s"),
        "pass_frac": (tally.attempted - tally.failed) / tally.attempted,
    }


def per_layer(trace: dict, check_names, traced_wall: float, untraced_wall: float) -> dict:
    stats, extra = trace["stats"], trace["extra"]

    def get(name, key):
        return stats.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    chunk_s = get("cavity._diagonal_chunk", "incl_s") + get("cavity._dense_chunk", "incl_s")
    chunk_steps = get("cavity._diagonal_chunk", "units") + get("cavity._dense_chunk", "units")
    engine_steps = get("trajectory.sample_trajectory", "units")
    metrics = {
        "cavity.sample.s": chunk_s,
        "cavity.sample.us_per_traj_step": 1e6 * ratio(chunk_s, chunk_steps),
        "thermo.entropy_production_step.calls": get("thermo.entropy_production_step", "calls"),
        "thermo.entropy_production_step.self_s": get("thermo.entropy_production_step", "self_s"),
        "qmath.shannon_entropy.calls": get("qmath.shannon_entropy", "calls"),
        "qmath.shannon_entropy.self_s": get("qmath.shannon_entropy", "self_s"),
        "cavity.reduce.s": get("cavity._build_report", "incl_s"),
        "cavity.pool.result_mb": get("cavity.pool.result", "units") / 1e6,
        "cavity.pool.transfer_s": get("cavity.pool.result", "incl_s"),
        "cli.emit.s": get("cli.emit_outputs", "incl_s"),
        "cli.emit.bytes": extra["emit_bytes"],
        "trajectory.sample_trajectory.calls": get("trajectory.sample_trajectory", "calls"),
        "trajectory.sample_trajectory.us_per_step":
            1e6 * ratio(get("trajectory.sample_trajectory", "incl_s"), engine_steps),
        "trajectory.enumerate_tree.s": get("trajectory.enumerate_tree", "incl_s"),
        "channels.verify_instrument.calls_per_step":
            ratio(get("channels.verify_instrument", "calls"), engine_steps),
        "qmath.DensityOperator.validations_per_step":
            ratio(get("qmath.DensityOperator.validate", "calls"), engine_steps),
        "thermo.control_energetics.calls_per_step":
            ratio(get("thermo.control_energetics", "calls"), engine_steps),
        "thermo.control_energetics.self_s": get("thermo.control_energetics", "self_s"),
        "qmath.von_neumann_entropy.self_s": get("qmath.von_neumann_entropy", "self_s"),
        "lindblad.ThermalGenerator.apply.self_s": get("lindblad.ThermalGenerator.apply", "self_s"),
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    for name in check_names:
        metrics[f"verify.{name}.s"] = get(f"verify.{name}", "incl_s")
    return metrics


def traced_run(w: Workload, seed: int, first: tuple, work: Path, tally: Tally, label: str) -> tuple:
    """One traced run of the same inputs; returns (merged trace, traced wall_s)."""
    part_dir = work / "trace-parts"
    part_dir.mkdir()
    raw_path = work / "trace-main.json"
    out_dir = work / "out-traced"
    spec = {**w.spec(seed, out_dir), "trace": {
        "trace_id": label, "part_dir": str(part_dir), "path": str(raw_path)}}
    run = spawn(spec, work, "traced")
    check_run(w, run, out_dir, first, tally)  # tracing must not change the outputs
    parts = [json.loads(p.read_text()) for p in sorted(part_dir.iterdir())]
    main = json.loads(raw_path.read_text())
    trace = merge(main, parts)
    trace["extra"] = main["extra"]
    return trace, run["wall_s"]


# -- run ---------------------------------------------------------------------


def manifest() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        ref_path = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_path.read_text().strip() if ref_path and ref_path.is_file() else ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "oqst").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "commit": commit, "src_sha256": digest.hexdigest(),
    }


def program_seed(w: Workload, seed: int) -> int:
    """The seed the program gets: ``seed`` itself, or for ``verify`` its entry in the pool.

    The pool holds the seeds on which ``oqst verify`` passes (see seeds.py).
    """
    if w.name != "verify":
        return seed
    pool = json.loads(SEED_POOL.read_text())["seeds"]
    return pool[seed % len(pool)]


def declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def verify_check_names() -> list:
    from oqst.verify import ALL_CHECKS

    return [check.__name__ for check in ALL_CHECKS]


def run_benchmark(w: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    tally = Tally()
    # Byte-compile and fill the page cache, which users do not pay on every run.
    spawn({**w.spec(seed, work / "warmup"), "setup_only": True}, work, "warmup")
    runs = timed_runs(w, seed, seconds, work, tally)
    first = (runs[0], work / "out0")
    check_workload(w, seed, first, work, tally)
    untraced_wall = statistics.median(r["wall_s"] for r in runs)
    print(f"{w.name} seed={seed}: {len(runs)} runs, median wall {untraced_wall:.4f} s")
    if trace:
        label = f"{w.name}-seed{seed}-{os.getpid()}-{time.time_ns()}"
        trace_data, traced_wall = traced_run(w, seed, first, work, tally, label)
        TRACE_DIR.mkdir(exist_ok=True)
        trace_path = TRACE_DIR / f"{w.name}-seed{seed}.json"
        trace_path.write_text(json.dumps({**trace_data, "manifest": manifest()}))
        print(f"trace written to {trace_path.relative_to(ROOT)}")
        values = per_layer(trace_data, verify_check_names(), traced_wall, untraced_wall)
    else:
        setups = [r["setup_s"] for r in runs]
        while len(setups) < SETUP_SAMPLES:
            setup_spec = {**w.spec(seed, work / "setup"), "setup_only": True}
            setups.append(spawn(setup_spec, work, f"setup{len(setups)}")["setup_s"])
        print(f"medians of {len(runs)} runs; setup_s of {len(setups)} spawns")
        values = end_to_end(w, runs, setups, tally)
    for message in tally.messages:
        print(f"FAILED {message}")
    return {"values": values, "tally": tally}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update(BLAS_THREADS)  # before numpy loads here, for the reference checks
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "oqst" / "__init__.py").is_file():
        print(f"error: no oqst sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    units = declared_metrics(bool(args.trace))
    print("manifest " + json.dumps(manifest(), sort_keys=True))

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        w = WORKLOADS[args.workload]
        seed = program_seed(w, args.seed)
        print(f"benchmark seed {args.seed} -> program seed {seed}")
        outcome = run_benchmark(w, seed, args.seconds, bool(args.trace), work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values, tally = outcome["values"], outcome["tally"]
    if set(values) != set(units):
        print(f"error: metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    for name in units:
        print(f"{name}: {values[name]!r} {units[name]}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
