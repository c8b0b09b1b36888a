#!/usr/bin/env python3
"""Run one eqcolor benchmark workload and print its metrics.

    python3 bench/run.py --workload grid-sweep --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --workload all --seed 1      # each workload in its own interpreter

The package is imported from ``src/`` beside this directory; nothing needs
installing.  One run of a workload, in a fresh single-threaded interpreter
with one closed-loop caller, goes:

1. set-up: import the package afresh and build the inputs from ``--seed``;
2. a reference run on small fixed-seed inputs whose outputs are hashed and
   compared with ``digests.json``; it also warms the interpreter up;
3. workload runs, with garbage collected before each, until ``--seconds``
   of them and at least ``min_runs`` have been measured.  Set-up is timed
   again after each, and ``setup_s`` is the median of all set-ups.

Every time is taken on a ``clock.Clock``: a calibration loop is sampled
from a timer signal while the work runs, and each stretch of work is
scaled to the host speed at which that loop takes ``clock.NOMINAL_S``.
This cancels the shared host's drift in speed; the raw figures go into
the provenance line.

With ``--trace 0`` nothing is wrapped and the end-to-end metrics are
printed; with ``--trace 1`` untraced and traced workload runs alternate and
the per-layer metrics are printed, the spans going to
``.bench_out/trace-<workload>.json``.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer as tracing
from clock import Clock
from workloads import GridSweep, PartitionSearch, PlantedMix, WideGridCli

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# Set-up is sampled before the first workload run and after every one,
# each time repeated for SETUP_SLOT seconds (at most SETUP_MAX times), so
# that its samples are spread over the run like the workload runs are.
SETUP_SLOT, SETUP_MAX = 0.2, 10
REF_SEED = 0
WORKLOADS = ["grid-sweep", "wide-grid-cli", "planted-mix", "partition-search"]


def make_workload(name: str, workdir: Path):
    if name == "wide-grid-cli":
        return WideGridCli(workdir)
    return {"grid-sweep": GridSweep, "planted-mix": PlantedMix, "partition-search": PartitionSearch}[name]()


class Recorder:
    """Item timings, attempted and failed counts, and benchmark-side counters."""

    def __init__(self, clock: Clock) -> None:
        self.clock = clock
        self.items: list[tuple[float, float]] = []  # work-clock start and end of each item
        self.attempted = 0
        self.failed = 0
        self.counts: dict[str, int] = {}
        self.notes: list[str] = []
        self.tracer: tracing.Tracer | None = None

    def item(self, kind: str, fn, *args) -> None:
        """Run one item, time it, and count it failed unless it returns True."""
        tr = self.tracer
        idx = tr.open("item." + kind) if tr else -1
        start = self.clock.now()
        try:
            ok = fn(*args)
        except Exception:  # a raising item is a failed item; the run goes on
            ok = False
            self.note(traceback.format_exc(limit=-3))
        self.items.append((start, self.clock.now()))
        if tr:
            tr.close(idx)
        self.verdict(ok, kind)

    def count(self, name: str, value: int) -> None:
        """Keep the latest value of a counter and, when traced, its sum per run."""
        self.counts[name] = value
        if self.tracer:
            self.tracer.counters[name] += value

    def verdict(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.note(f"failed: {what}")

    def note(self, message: str) -> None:
        if len(self.notes) < 20:
            self.notes.append(message)


def import_package(extra: tuple[str, ...]):
    """Import eqcolor from scratch, dropping any copy already loaded."""
    for name in [m for m in sys.modules if m.split(".")[0] == "eqcolor"]:
        del sys.modules[name]
    eqc = importlib.import_module("eqcolor")
    for name in extra:
        importlib.import_module(name)
    return eqc


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "eqcolor").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def set_up(workload, seed: int, tracer, spans: list):
    """Import eqcolor afresh and build the inputs."""
    eqc = import_package(workload.modules)
    if tracer:
        tracer.install()
    inputs = workload.make_inputs(eqc, seed, ref=False)
    if tracer:
        tracer.uninstall()
        spans.append(tracer.take())
    return eqc, inputs


def sample_setup(workload, seed: int, tracer, clock: Clock, times: list, spans: list):
    """Set up repeatedly for SETUP_SLOT seconds; return the last package and inputs."""
    spent = 0.0
    reps = 0
    while reps == 0 or (spent < SETUP_SLOT and reps < SETUP_MAX):
        start = clock.now()
        eqc, inputs = set_up(workload, seed, tracer, spans)
        times.append((start, clock.now()))
        spent += times[-1][1] - start
        reps += 1
    return eqc, inputs


def measure(workload, clock: Clock, tracer, args) -> int:
    setup_times: list[tuple[float, float]] = []  # work-clock start and end of each set-up
    setup_spans: list = []
    eqc, inputs = sample_setup(workload, args.seed, tracer, clock, setup_times, setup_spans)
    if Path(eqc.__file__).resolve().parent != (SRC / "eqcolor").resolve():
        print(f"imported eqcolor from {eqc.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    in_use = {name: mod for name, mod in sys.modules.items() if name.split(".")[0] == "eqcolor"}

    # Reference run: fixed seed, small inputs, outputs hashed.
    ref = Recorder(clock)
    digest = hashlib.sha256()
    workload.run_pass(eqc, workload.make_inputs(eqc, REF_SEED, ref=True), ref, digest)
    committed = json.loads((BENCH / "digests.json").read_text()).get(workload.name)
    ref.verdict(
        digest.hexdigest() == committed,
        f"output digest {digest.hexdigest()} differs from committed {committed}",
    )

    rec = Recorder(clock)
    plain: list[tuple[float, float]] = []  # work-clock start and end of each workload run
    traced: list[tuple[float, float]] = []
    plain_items: list[tuple[int, int]] = []  # first and end item of each, in rec.items
    traced_spans = []
    min_runs = max(workload.min_runs, 2 if tracer else 1)
    measured = 0.0
    while measured < args.seconds or len(plain) + len(traced) < min_runs:
        trace_now = tracer is not None and len(plain) > len(traced)
        gc.collect()
        if trace_now:
            tracer.install()
            rec.tracer = tracer
        wall = time.perf_counter()
        start, first_item = clock.now(), len(rec.items)
        workload.run_pass(eqc, inputs, rec, None)
        (traced if trace_now else plain).append((start, clock.now()))
        measured += time.perf_counter() - wall
        if not trace_now:
            plain_items.append((first_item, len(rec.items)))
        if trace_now:
            tracer.uninstall()
            rec.tracer = None
            traced_spans.append(tracer.take())
        # More set-up samples, spread over the run; the package and inputs
        # the workload runs use are put back afterwards.
        sample_setup(workload, args.seed, tracer, clock, setup_times, setup_spans)
        sys.modules.update(in_use)
    workload.check(eqc, inputs, rec)

    walls = [clock.scaled(*run) for run in plain]
    setups = [clock.scaled(*setup) for setup in setup_times]
    if tracer is None:
        # Every workload run makes the same items in the same order; an
        # item's latency is its median over the runs.
        every = [clock.scaled(*item) for item in rec.items]
        lat = [statistics.median(runs) for runs in zip(*(every[a:b] for a, b in plain_items))]
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "items_per_s": (len(lat) / statistics.median(walls), "1/s"),
            "item_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "item_p99_ms": (statistics.quantiles(lat, n=100, method="inclusive")[98] * 1e3, "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    else:
        metrics = tracing.layer_metrics(traced_spans, setup_spans, rec.counts, workload.doubling_pair)
        traced_walls = [clock.scaled(*run) for run in traced]
        metrics["trace.overhead_ratio"] = (statistics.median(traced_walls) / statistics.median(walls), "ratio")
        write_spans(workload.name, args.seed, setup_spans, traced_spans)

    attempted = ref.attempted + rec.attempted
    failed = ref.failed + rec.failed
    for message in ref.notes + rec.notes:
        print(message, file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{workload.name} {name} {value:.10g} {unit}")
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "workload_runs": len(plain) + len(traced),
        "workload_run_s": [round(x, 4) for x in walls],
        "workload_run_raw_s": [round(end - start, 4) for start, end in plain],
        "traced_run_raw_s": [round(end - start, 4) for start, end in traced],
        "setup_raw_s": statistics.median([end - start for start, end in setup_times]),
        # Factor by which the workload runs' raw times were scaled; below 1 on a slow host.
        "time_scale": statistics.median([w / (end - start) for w, (start, end) in zip(walls, plain)]),
        "calibration_samples": len(clock.at),
        "items_attempted": attempted,
        "items_failed": failed,
        "failed_ratio": failed / attempted,
        "items_per_run": plain_items[0][1] - plain_items[0][0] if plain_items else 0,
        "item_samples": sum(b - a for a, b in plain_items),
        "setup_reps": len(setup_times),
        "digest": digest.hexdigest(),
    }
    print(json.dumps({"provenance": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def write_spans(workload: str, seed: int, setup, runs) -> None:
    names: dict[str, int] = {}

    def pack(spans):
        return [[names.setdefault(s[0], len(names)), s[1], s[2], s[3]] for s in spans]

    doc = {
        "workload": workload,
        "seed": seed,
        "span_fields": ["name", "start_ns", "end_ns", "parent"],
        "setup": [pack(spans) for spans, _ in setup],
        "runs": [{"spans": pack(spans), "counters": counters} for spans, counters in runs],
    }
    doc["names"] = list(names)
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / f"trace-{workload}.json").write_text(json.dumps(doc))


def run_one(args) -> int:
    if not (SRC / "eqcolor" / "__init__.py").is_file():
        print(f"no eqcolor sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    scratch = ROOT / ".bench_tmp"
    workdir = scratch / f"{args.workload}-{os.getpid()}"
    clock = Clock()
    tracer = tracing.Tracer(clock.now_ns) if args.trace else None
    clock.start()
    try:
        return measure(make_workload(args.workload, workdir), clock, tracer, args)
    finally:
        clock.stop()
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        if scratch.is_dir() and not any(scratch.iterdir()):
            scratch.rmdir()


def run_all(args) -> int:
    """Each workload in a fresh interpreter, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=12, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
