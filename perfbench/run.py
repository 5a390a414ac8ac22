"""patclass benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root (or anywhere: paths resolve from this file).
The workload's input is generated from the seed and written as an SPMF file;
patclass sees only that file. The command is then called through its public
entry point (`cli.run_pipeline`, `cli.run_gold`, `cli.run_properties`) in a
closed loop, one invocation after another in this process, for about
`--seconds`, and every invocation's artifacts are checked (see checks.py).

With `--trace 0` the last stdout line reports the end-to-end metrics:
wall_s (median wall time of one invocation, scaled to a reference host
speed; see CAL_REFERENCE_S), setup_s (median time, over several fresh
processes, from process start until the command would be called) and
peak_rss_mb (peak resident memory of this process).
With `--trace 1` the first half of the run is untraced and the second half
traced; the line reports per-layer metrics, each the median over the traced
invocations (see spans.py), and trace.overhead_s, the traced minus the
untraced wall_s. Lines before it give the same numbers for people, plus the run's
environment and input digest; WORK_DIR/<workload>/result.json keeps all of
it, and spans.jsonl every span of a traced run.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import generate
from spans import COMMAND_SPAN, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench-work"
REFERENCE = HERE / "reference.json"

SETUP_PROBES = 5
MIN_INVOCATIONS = 2     # byte-identity across invocations needs two
PROBE_TIMEOUT_S = 60
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10
# Host-speed calibration. On a shared host other tenants slow this process
# 1.5-2x for minutes at a time (CPU time grows with wall time, so it is
# slower execution, not waiting), which moves the median call time far more
# than any program change worth measuring. A fixed kernel that does not use
# patclass runs before every call. wall_s is scaled by CAL_REFERENCE_S over
# the run's median kernel time: seconds at the host speed where the kernel
# takes CAL_REFERENCE_S (its time on an unloaded 2-vCPU Xeon). On the same
# code this cut the 10-seed IQR/median of wall_s from 0.21 to 0.16 on
# pipeline-cluster. setup_s stays raw: its short probes ran before the
# kernel samples, and scaling made it noisier. Raw times are printed and
# kept in result.json.
CAL_REFERENCE_S = 0.02


def load_workloads() -> dict:
    return json.loads((HERE / "workloads.json").read_text())["workloads"]


def prepare(spec: dict, seed: int, work: Path):
    """Generate the input, write it, and build the command's config.

    Returns (config, entry point, dataset path or None). This is the part of
    set-up that a fresh process repeats in every setup probe.
    """
    from patclass import cli

    overrides = [f"{k}={v}" for k, v in spec["config"].items()]
    overrides.append(f"out={work / 'out'}")
    dataset = None
    if spec["generator"] is not None:
        dataset = work / "dataset.spmf"
        text = getattr(generate, spec["generator"])(seed, spec["n_graphs"])
        work.mkdir(parents=True, exist_ok=True)
        dataset.write_text(text)
        overrides.append(f"dataset={dataset}")
    cfg = cli.load_config(None, overrides)
    return cfg, getattr(cli, f"run_{spec['command']}"), dataset


def setup_probe(workload: str, seed: int, work: Path) -> None:
    """Child side of a setup probe: set up, then print the monotonic clock."""
    prepare(load_workloads()[workload], seed, work)
    print(time.monotonic())


def measure_setup(workload: str, seed: int, work: Path) -> list[float]:
    """Seconds from spawning a fresh interpreter until it could call the
    command (imports, input generation, dataset write, config), per probe."""
    samples = []
    for i in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe", str(work / f"probe{i}")],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return samples


def calibration_kernel() -> float:
    """Seconds for a fixed mix of interpreter and numpy work."""
    import numpy as np
    t0 = time.perf_counter()
    table: dict[tuple[int, int], int] = {}
    for i in range(60_000):
        key = ((i * 7919) % 1009, i % 7)
        table[key] = table.get(key, 0) + i
    sorted(table.items(), key=lambda kv: (-kv[1], kv[0]))
    a = np.arange(250_000, dtype=np.int64)
    b = a[::-1].copy()
    for _ in range(20):
        np.maximum(a, b, out=b)
    return time.perf_counter() - t0


def blas_threads() -> str:
    """OpenBLAS thread count of the loaded numpy, or 'unknown'."""
    import numpy
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def environment() -> dict:
    import numpy
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "nproc": nproc, "blas_threads": blas_threads(), "callers": 1}


def input_record(dataset: Path | None) -> dict:
    if dataset is None:
        return {"dataset": None}
    from patclass import graphdata
    data = dataset.read_bytes()
    st = graphdata.dataset_stats(graphdata.parse_spmf(data.decode()))
    return {"dataset": dataset.name, "sha256": checks.sha256(data),
            "graphs": st.n_graphs, "avg_vertices": st.avg_vertices,
            "avg_edges": st.avg_edges}


def full_set_f1(cfg, dataset: Path):
    """CV F1 of the given mined-pattern columns, computed without the CLI."""
    from patclass import classify, footprints, graphdata, miner

    def f1(pattern_ids: list[int]) -> float:
        ds = graphdata.parse_spmf(dataset.read_text())
        if cfg.balance and ds.n_pos != ds.n_neg:
            ds = graphdata.balance_undersample(ds, seed=cfg.seed)
        patterns = miner.mine_frequent(ds, cfg.resolve_min_support(len(ds)),
                                       max_patterns=cfg.max_patterns,
                                       max_edges=cfg.max_edges)
        view = classify.FeatureView.from_matrix(
            footprints.build_matrix(patterns, ds), pattern_ids)
        return classify.cross_validate(view, k=cfg.k_folds, c=cfg.c, seed=cfg.seed).f1
    return f1


class Run:
    """The closed loop of one run and the checks on what it wrote."""

    def __init__(self, workload: str, spec: dict, seed: int, cfg, entry, dataset):
        self.workload, self.spec, self.seed = workload, spec, seed
        self.cfg, self.entry, self.dataset = cfg, entry, dataset
        self.out = Path(cfg.out)
        # The first complete output, kept for the invariant checks in
        # `finish`; running them there keeps their memory out of peak RSS.
        self.kept = self.out.with_name("first-out")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.kernels: list[float] = []
        self._digests: dict[str, str] | None = None

    def invoke(self, tracer=None) -> float:
        """Call the command once; returns its wall time in seconds."""
        shutil.rmtree(self.out, ignore_errors=True)
        error = None
        t0 = time.perf_counter()
        span = tracer.open(COMMAND_SPAN, "cli") if tracer is not None else None
        try:
            self.entry(self.cfg)
        except Exception:   # a failed invocation is counted, not fatal
            error = traceback.format_exc()
        finally:
            if span is not None:
                tracer.close(span)
        wall = time.perf_counter() - t0
        self.attempted += 1
        if error is None:
            digests = checks.artifact_digests(self.out)
            if self._digests is None:
                self._digests = digests
                self.out.rename(self.kept)
            elif digests != self._digests:
                changed = sorted(k for k in digests.keys() | self._digests.keys()
                                 if digests.get(k) != self._digests.get(k))
                error = f"artifacts differ from the run's first output: {changed}"
        if error is not None:
            self.failed += 1
            self.problems.append(error)
        return wall

    def finish(self) -> None:
        """Check the kept output against pins and invariants; when that
        fails, every invocation (all wrote the same bytes) counts as failed."""
        from patclass import properties
        if self._digests is None:
            return
        pinned = json.loads(REFERENCE.read_text()).get(self.workload, {})
        pins = pinned.get("any") or pinned.get(str(self.seed)) or {}
        problems = checks.pinned_mismatches(self._digests, pins)
        command = self.spec["command"]
        if command == "pipeline":
            problems += checks.pipeline_invariants(self.kept)
        elif command == "gold":
            problems += checks.gold_invariants(self.kept, full_set_f1(self.cfg, self.dataset))
        elif command == "properties":
            problems += checks.properties_invariants(
                self.kept, len(self.cfg.measures), len(properties.PROPERTIES))
        if problems:
            self.failed = self.attempted
            self.problems += problems

    def loop(self, seconds: float, tracer=None) -> list[float]:
        """Invoke until the next invocation would end after `seconds`."""
        walls: list[float] = []
        start = time.perf_counter()
        while True:
            if tracer is not None:
                tracer.run = self.attempted
            self.kernels.append(calibration_kernel())
            walls.append(self.invoke(tracer))
            elapsed = time.perf_counter() - start
            if len(walls) >= MIN_INVOCATIONS and elapsed + statistics.median(walls) > seconds:
                return walls


def tail(samples: list[float]):
    """(percentile, value) for the highest percentile with at least ten
    samples beyond it, or None."""
    ordered = sorted(samples)
    for q in TAIL_PERCENTILES:
        if len(ordered) * (100.0 - q) / 100.0 >= TAIL_MIN_BEYOND:
            return q, ordered[math.ceil(q / 100.0 * len(ordered)) - 1]
    return None


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name == "shapley.max_std_error":
        return "f1"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "patclass" / "cli.py").is_file():
        print(f"error: patclass sources not found under {SRC}", file=sys.stderr)
        return 2
    workloads = load_workloads()
    if args.workload == "all":
        for name in workloads:   # one at a time, each in its own process
            subprocess.run([sys.executable, str(Path(__file__).resolve()),
                            "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)],
                           check=True)
        return 0
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe(args.workload, args.seed, Path(args.setup_probe))
        return 0

    spec = workloads[args.workload]
    work = WORK_DIR / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup_samples = [] if args.trace else measure_setup(args.workload, args.seed, work)
    cfg, entry, dataset = prepare(spec, args.seed, work)
    run = Run(args.workload, spec, args.seed, cfg, entry, dataset)

    if args.trace:
        untraced = run.loop(args.seconds / 2)
        tracer = Tracer()
        with tracer.installed():
            first = run.attempted
            traced = run.loop(args.seconds / 2, tracer)
        per_run = [tracer.metrics(r) for r in range(first, run.attempted)]
        metrics = {name: statistics.median(m[name] for m in per_run) for name in per_run[0]}
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        tracer.dump(work / "spans.jsonl")
        walls = untraced
    else:
        walls = run.loop(args.seconds)
        speed = CAL_REFERENCE_S / statistics.median(run.kernels)
        metrics = {"wall_s": statistics.median(walls) * speed,
                   "setup_s": statistics.median(setup_samples),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    run.finish()

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment(), "input": input_record(dataset),
              "parameters": spec, "wall_s_samples": walls,
              "calibration_s_samples": run.kernels,
              "setup_s_samples": setup_samples, "attempted": run.attempted,
              "failed": run.failed, "problems": run.problems, "metrics": metrics}
    (work / "result.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 caller")
    print("environment " + "  ".join(f"{k} {v}" for k, v in record["environment"].items()))
    print("input " + "  ".join(f"{k} {v}" for k, v in record["input"].items()))
    print(f"invocations {len(walls)}  raw median {statistics.median(walls):.4f} s  "
          f"fastest {min(walls):.4f} s  calibration kernel median "
          f"{statistics.median(run.kernels):.4f} s (reference {CAL_REFERENCE_S} s)"
          + ("" if tail(walls) is None else "  p{:g} {:.4f} s".format(*tail(walls))))
    print(f"fail_ratio {run.failed / run.attempted:g} ({run.failed} of {run.attempted})")
    for problem in run.problems:
        print(f"check failed: {problem.strip()}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {unit_of(name)}")
    if args.trace:
        for num, base in (("footprints.distinct", "miner.patterns"),
                          ("shapley.char_evals", "shapley.char_calls"),
                          ("measures.distinct_tables", "measures.score_calls")):
            if metrics[base]:
                print(f"{num} / {base} = {metrics[num] / metrics[base]:.4f} "
                      f"(base {metrics[base]:g})")
    print(json.dumps({
        "correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
