"""aoisched benchmark: four closed-loop workloads, checked and timed.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The library is imported from ``src/`` next to
this directory; without it the benchmark exits non-zero before measuring.

A run builds the workload's inputs from the seed, then repeats passes over
its items until ``--seconds`` have elapsed (always at least one whole pass).
Every item's output is checked against the library's invariants; later
passes must reproduce the first pass bit for bit, and at the default seed the
first pass must match ``pins.json``. A failed check or an exception fails
that item and the run goes on.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:

    wall_s       median pass time
    setup_s      median time of fresh processes that import the library,
                 load the configs and generate the inputs
    peak_rss_mb  the run's high-water resident set
    item_p50_s   median item time (each item timed as its median over passes)
    item_tail_s  the item time at the highest percentile with ten items
                 beyond it (the maximum when a workload has fewer than 11)

The times are scaled to the baseline host's speed: a fixed pure-Python
kernel is timed every 0.2 s through each pass (and around each set-up
process), and each item's time is multiplied by the kernel's nominal time
over its median time within 0.5 s of the item. A pass's time is the sum of
its items' times. The unscaled times are kept in the run's details file.

With ``--trace 1`` the run makes its untraced passes, then one traced set-up
and pass with every public library function wrapped (see tracer.py), and
reports per-layer metrics. The spans are written to ``perfbench/results/``.
``--workload all`` runs each workload in its own process in turn.
"""

from __future__ import annotations

import os

# Single-threaded BLAS: the DP forward audit's dot must not oversubscribe.
# Set before numpy is imported; child processes inherit it.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
PINS = HERE / "pins.json"
DEFAULT_SEED = 20250117  # the bundled configs' own seed; outputs pinned in pins.json
WORKLOADS = ("dp_lossy_e2", "mc_lossy", "index_sweep", "reliable_cert")
SETUP_SAMPLES = 5
# The host's speed drifts by up to ~1.8x over tens of seconds (other tenants),
# so timings are scaled by a reference kernel's speed measured alongside them
REF_ITERATIONS = 60_000
REF_NOMINAL_S = 4.0e-3  # the reference kernel's typical time on the baseline host
SAMPLE_EVERY_S = 0.2
WINDOW_S = 0.5  # an item is scaled by the samples taken within this of it
TAIL_BEYOND = 10
E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "item_p50_s": "s",
    "item_tail_s": "s",
}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name == "dp.escaped_mass":
        return "probability"
    if name == "dp.final_a_max":
        return "age"
    return "count"


def import_workloads():
    """Import the benchmark's workloads against the library in ../src."""
    if not (SRC / "aoisched" / "__init__.py").is_file():
        sys.exit(f"run.py: library source not found at {SRC / 'aoisched'}")
    sys.path.insert(0, str(SRC))
    import aoisched
    import workloads

    if Path(aoisched.__file__).resolve().parent != SRC / "aoisched":
        sys.exit(f"run.py: imported aoisched from {aoisched.__file__}, not {SRC}")
    # DP boxes that stay above the truncation level warn; the report is
    # checked as data instead
    warnings.filterwarnings("ignore", message="truncation report", category=RuntimeWarning)
    return workloads


def machine_info() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


# -- host speed ------------------------------------------------------------------


def reference_kernel():
    """A fixed pure-Python loop, the host-speed yardstick."""
    acc = 0
    for i in range(REF_ITERATIONS):
        acc += i * i
    return acc


class SpeedProbe:
    """Times the reference kernel every SAMPLE_EVERY_S seconds while active.

    The samples are taken from a SIGALRM handler, so they land between the
    library's bytecodes all through a pass, long calls included. `spent`
    totals the time they took, which run_pass subtracts from the items
    they interrupted."""

    def __init__(self):
        self.at = []  # start of each sample
        self.took = []  # its duration
        self.spent = 0.0

    def sample(self, signum=None, frame=None):
        t0 = perf_counter()
        reference_kernel()
        took = perf_counter() - t0
        self.at.append(t0)
        self.took.append(took)
        self.spent += took

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        """Nominal over median kernel time for the samples taken within
        WINDOW_S of [start, end] (the nearest one if none): a time taken
        then, multiplied by it, reads as seconds at the baseline host's
        usual speed."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        took = self.took[lo:hi] or [self.took[min(lo, len(self.took) - 1)]]
        return REF_NOMINAL_S / statistics.median(took)


# -- passes and checks -----------------------------------------------------------


def run_pass(items, tracer=None, probe=None):
    """Run every item once, in order; returns (item times, (start, end) of
    each item, outputs, error strings). Times exclude the probe's samples."""
    times, spans, outs, errors = [], [], [], []
    for item in items:
        held = probe.spent if probe else 0.0
        s = perf_counter()
        try:
            if tracer is None:
                out = item.run()
            else:
                with tracer.span("bench.item"):
                    out = item.run()
            err = None
        except Exception:
            out, err = None, traceback.format_exc(limit=-3)
        e = perf_counter()
        times.append(e - s - ((probe.spent - held) if probe else 0.0))
        spans.append((s, e))
        outs.append(out)
        errors.append(err)
    return times, spans, outs, errors


def normalize(digest):
    return json.loads(json.dumps(digest))


def check_pass(items, outs, errors, reference, pins):
    """(label, failure message or None) per item, and the digests.

    Without a reference the outputs are checked against the invariants and,
    when given, the pins; with one they must reproduce it exactly."""
    failures, digests = [], []
    for i, (item, out, err) in enumerate(zip(items, outs, errors)):
        digest, problem = None, err
        if problem is None:
            try:
                digest = normalize(item.digest(out))
                if reference is not None:
                    if digest != reference[i]:
                        problem = "output differs from the first pass"
                else:
                    found = item.check(out)
                    if pins is not None and digest != pins.get(item.label):
                        found.append(f"output {digest} != pinned {pins.get(item.label)}")
                    problem = "; ".join(found) or None
            except Exception:
                problem = "check raised: " + traceback.format_exc(limit=-3)
        failures.append((item.label, problem))
        digests.append(digest)
    return failures, digests


def load_pins(workload: str, seed: int):
    if seed != DEFAULT_SEED:
        return None
    with open(PINS, encoding="utf-8") as fh:
        return json.load(fh)["workloads"].get(workload, {})


def tail(values):
    """(value, percentile) at the highest percentile with TAIL_BEYOND items
    beyond it; the maximum (p100) when there are too few items."""
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    rank = n - TAIL_BEYOND  # 1-based
    return xs[rank - 1], 100.0 * rank / n


# -- one workload ----------------------------------------------------------------


def measure_setup(args) -> tuple:
    """Wall time of fresh processes that import, load configs and build
    inputs, raw and scaled by the reference kernel timed around each."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    raw, scaled = [], []
    probe = SpeedProbe()
    for _ in range(SETUP_SAMPLES):
        for _ in range(3):
            probe.sample()
        t0 = perf_counter()
        subprocess.run(cmd, check=True, timeout=120, stdout=subprocess.DEVNULL)
        t1 = perf_counter()
        for _ in range(3):
            probe.sample()
        raw.append(t1 - t0)
        scaled.append(raw[-1] * probe.scale(t0, t1))
    return raw, scaled


def timed_passes(items, seconds, pins):
    """Repeat passes until `seconds` have elapsed; check each. Returns raw
    and speed-scaled pass and item times."""
    raw = {"passes": [], "items": [[] for _ in items]}
    scaled = {"passes": [], "items": [[] for _ in items]}
    failures, reference = [], None
    t0 = perf_counter()
    with SpeedProbe() as probe:
        while True:
            times, spans, outs, errors = run_pass(items, probe=probe)
            fails, digests = check_pass(items, outs, errors, reference, pins)
            if reference is None:
                reference = digests
            times_scaled = [t * probe.scale(*span) for t, span in zip(times, spans)]
            raw["passes"].append(math.fsum(times))
            scaled["passes"].append(math.fsum(times_scaled))
            for acc_r, acc_s, t, ts in zip(raw["items"], scaled["items"], times, times_scaled):
                acc_r.append(t)
                acc_s.append(ts)
            failures.append(fails)
            if perf_counter() - t0 >= seconds:
                return raw, scaled, failures, reference


def run_workload(args) -> int:
    wl = import_workloads()
    setup_raw, setup_scaled = ([], []) if args.trace else measure_setup(args)
    pins = load_pins(args.workload, args.seed)
    RESULTS.mkdir(exist_ok=True)
    tmp_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RESULTS)
    try:
        items = wl.build(args.workload, args.seed, tmp_dir)
        raw, scaled, failures, reference = timed_passes(
            items, args.seconds, pins and pins.get("items")
        )
        report = {}
        if args.trace:
            untraced = statistics.median(scaled["passes"])
            report = traced_pass(args, wl, tmp_dir, reference, pins, failures, untraced)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)

    attempted = sum(len(f) for f in failures)
    failed_msgs = [(label, msg) for fails in failures for label, msg in fails if msg]
    for label, msg in failed_msgs:
        print(f"FAILED {args.workload}/{label}: {msg}", file=sys.stderr)
    item_med = [statistics.median(t) for t in scaled["items"]]
    raw_med = [statistics.median(t) for t in raw["items"]]
    tail_value, tail_pct = tail(item_med)
    e2e = {
        "wall_s": statistics.median(scaled["passes"]),
        "setup_s": statistics.median(setup_scaled) if setup_scaled else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "item_p50_s": statistics.median(item_med),
        "item_tail_s": tail_value,
    }
    unscaled = {
        "wall_s": statistics.median(raw["passes"]),
        "setup_s": statistics.median(setup_raw) if setup_raw else None,
        "item_p50_s": statistics.median(raw_med),
        "item_tail_s": tail(raw_med)[0],
    }
    machine = machine_info()
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "machine": machine,
        "passes_s": scaled["passes"],
        "passes_unscaled_s": raw["passes"],
        "items": len(items),
        "item_tail_percentile": tail_pct,
        "attempted": attempted,
        "failed": len(failed_msgs),
        "failed_frac": len(failed_msgs) / attempted,
        "end_to_end": e2e,
        "end_to_end_unscaled": unscaled,
        "per_layer": report,
        "item_median_s": {it.label: t for it, t in zip(items, item_med)},
        "item_median_unscaled_s": {it.label: t for it, t in zip(items, raw_med)},
    }
    suffix = "-trace" if args.trace else ""
    with open(RESULTS / f"{args.workload}-seed{args.seed}{suffix}.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)

    print(f"machine {json.dumps(machine)}")
    print(
        f"{args.workload} seed={args.seed}: {len(raw['passes'])} pass(es), {len(items)} items per pass, "
        f"{attempted} attempted, {len(failed_msgs)} failed"
    )
    for name, value in e2e.items():
        if value is None:
            continue
        note = ""
        if name == "item_tail_s":
            note = f"  (p{tail_pct:.1f} of {len(items)} items)"
        print(f"  {name:<12} {value:12.6f} {E2E_UNITS[name]}{note}")
    print(f"  {'failed_frac':<12} {len(failed_msgs) / attempted:12.6f}  ({len(failed_msgs)}/{attempted})")
    if args.trace:
        for name, value in report.items():
            print(f"  {name:<28} {value:16.6f} {layer_unit(name)}")
        metrics = report
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics, units = e2e, E2E_UNITS
    print(
        json.dumps(
            {
                "correct": not failed_msgs,
                "attempted": attempted,
                "failed": len(failed_msgs),
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


def traced_pass(args, wl, tmp_dir, reference, pins, failures, untraced_scaled) -> dict:
    """One traced set-up and pass; its outputs must equal the untraced ones.
    Its times are not scaled; the untraced pass time it is compared with is
    brought to the host speed measured around it."""
    from tracer import Tracer

    tracer = Tracer()
    probe = SpeedProbe()
    for _ in range(3):
        probe.sample()
    tracer.install()
    try:
        with tracer.span("bench.setup"):
            items = wl.build(args.workload, args.seed, tmp_dir)
        with tracer.span("bench.pass"):
            times, spans, outs, errors = run_pass(items, tracer)
    finally:
        tracer.uninstall()
    for _ in range(3):
        probe.sample()
    wall = math.fsum(times)
    fails, _ = check_pass(items, outs, errors, reference, None)
    boxes = [list(b) for b in tracer.boxes]
    failures.append(fails)
    if pins is not None and boxes != pins.get("dp_boxes"):
        failures.append([("dp_boxes", f"DP boxes {boxes} != pinned {pins.get('dp_boxes')}")])
    metrics = tracer.layer_metrics(untraced_scaled / probe.scale(probe.at[0], probe.at[-1]), wall)
    tracer.save(
        RESULTS / f"spans-{args.workload}-seed{args.seed}.json.gz",
        {"workload": args.workload, "seed": args.seed},
    )
    return metrics


# -- all workloads ---------------------------------------------------------------


def run_all(args) -> int:
    """Each workload in its own process; prints their reports and a summary."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900, check=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, value in res["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        wl = import_workloads()
        wl.build(args.workload, args.seed, None)
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
