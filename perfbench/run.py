"""spiraldet benchmark: time to verdict on four verify workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

One process runs one workload with one client in a closed loop: a pass runs
the workload's calls one after another, checks every verdict, and the next
pass starts when it ends.  Passes repeat until the next one would overrun
``--seconds`` (at least three).  The program is imported from ``src/`` of the
checkout; without it the benchmark exits 2 and prints no result.

The end-to-end times are given at a fixed reference speed of the CPU (see
``speed.py``), because the speed of a small shared host drifts.  The raw wall
times are printed too.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The lines before it print every metric
by name with its unit, and the run's environment.  Results and spans are also
written to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
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

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import speed  # noqa: E402
from layertrace import COUNTERS, NAMED_LAYERS, Tracer, install  # noqa: E402
from workloads import WORKLOADS, Tally  # noqa: E402

#: Per-layer count of the known wedge refusals, taken from the workload's probe.
PROBE_COUNTER = "determinant_engine.wedge.failed"
#: A seed never used while this benchmark was written; re-check claims with it.
HOLDOUT_SEED = 60493
MIN_PASSES = 3
#: Untraced pass k runs with program seed PASS_SEEDS * seed + k (k below
#: PASS_SEEDS), so that a run's median spans several sets of random points:
#: the time of a randomized check depends on the size of its points by 10-20%.
PASS_SEEDS = 100
SETUP_SAMPLES = 15
#: Calibrations run between two set-up interpreters.
SETUP_CALIBRATIONS = 5
# Timed in a fresh interpreter: import of spiraldet (with mpmath) and parser
# construction, before any check.
_SETUP_CODE = ("import sys, time\n"
               "t = time.perf_counter()\n"
               "sys.path.insert(0, sys.argv[1])\n"
               "import spiraldet.cli\n"
               "spiraldet.cli.build_parser()\n"
               "print(time.perf_counter() - t)\n")


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _source_digest() -> str:
    digest = hashlib.sha256()
    package = os.path.join(SRC, "spiraldet")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()[:16]


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; else "unknown"."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(seed: int) -> dict:
    import mpmath

    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "mpmath": mpmath.__version__, "seed": seed, "holdout_seed": HOLDOUT_SEED,
            "git_commit": _git_commit(), "source_sha256": _source_digest()}


def _setup_times() -> tuple[list[float], list[float]]:
    """Set-up time of fresh interpreters, raw and at the reference speed.

    One untimed warm-up writes bytecode caches; calibrations run between the
    interpreters.
    """
    def calibrations():
        return [speed.calibrate() for _ in range(SETUP_CALIBRATIONS)]

    raw, scaled = [], []
    after = calibrations()
    for i in range(SETUP_SAMPLES + 1):
        done = subprocess.run([sys.executable, "-I", "-c", _SETUP_CODE, SRC],
                              capture_output=True, text=True, timeout=120, check=True)
        before, after = after, calibrations()
        if i:
            raw.append(float(done.stdout.strip().splitlines()[-1]))
            scaled.append(speed.at_reference(raw[-1], before + after))
    return raw, scaled


def _tail(samples: list[float]):
    """Highest percentile with ten samples above it: (percentile, value), or None."""
    ordered = sorted(samples)
    k = len(ordered) - 11
    if k < 0:
        return None
    return 100.0 * k / (len(ordered) - 1), ordered[k]


def _run_passes(sd, workload, seed: int, seconds: float, traced: bool, out: str):
    """Closed loop of passes.

    Returns the untraced passes as (wall seconds, seconds at the reference
    speed), the traced passes as (wall seconds, tracer), and the tally.
    """
    tally = Tally()
    plain, traced_passes, durations = [], [], []

    def one_pass(steps):
        for step in steps:
            step(sd, tally, out)

    started = time.perf_counter()
    while True:
        # det_cofactor's memo sits in a reference cycle, so only the cyclic
        # collector frees it; collecting here makes each pass start alike.
        gc.collect()
        # A traced run keeps one seed, so that its counters repeat exactly.
        pass_seed = seed if traced else seed * PASS_SEEDS + len(plain) % PASS_SEEDS
        steps = workload.steps(pass_seed)
        t0 = time.perf_counter()
        if traced and len(plain) > len(traced_passes):
            tracer = Tracer()
            uninstall = install(tracer)
            try:
                t1 = time.perf_counter()
                tracer.run_root(lambda: one_pass(steps))
                traced_passes.append((time.perf_counter() - t1, tracer))
            finally:
                uninstall()
        else:
            plain.append(speed.timed(lambda: one_pass(steps)))
        durations.append(time.perf_counter() - t0)
        done = (len(plain) + len(traced_passes) >= MIN_PASSES
                and (not traced or len(traced_passes) >= 2))
        if done and time.perf_counter() - started + statistics.median(durations) > seconds:
            return plain, traced_passes, tally


def _end_to_end(plain, tally, setup) -> dict:
    run_s = statistics.median(scaled for _, scaled in plain)
    return {
        "run_s": (run_s, "s"),
        "checks_per_s": (tally.ok / len(plain) / run_s, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
    }


def _per_layer(plain, traced_passes) -> tuple[dict, dict, list[str]]:
    """Layer metrics averaged over traced passes, the counters, and counter mismatches."""
    count = len(traced_passes)
    selfs: dict[str, float] = {}
    for _, tracer in traced_passes:
        for layer, seconds in tracer.self_times().items():
            selfs[layer] = selfs.get(layer, 0.0) + seconds / count
    counters = {name: traced_passes[0][1].counters.get(name, 0) for name in COUNTERS}
    mismatches = [f"{name}: pass 1 {counters[name]} != pass {i + 2} {t.counters.get(name, 0)}"
                  for i, (_, t) in enumerate(traced_passes[1:])
                  for name in COUNTERS if t.counters.get(name, 0) != counters[name]]
    traced_run_s = sum(t for t, _ in traced_passes) / count
    metrics = {f"{layer}.self_s": (selfs.get(layer, 0.0), "s") for layer in NAMED_LAYERS}
    metrics["other.self_s"] = (sum(v for k, v in selfs.items() if k.endswith(".other")), "s")
    metrics["perfbench.self_s"] = (selfs.get(Tracer.ROOT, 0.0), "s")
    metrics.update({name: (value, "count") for name, value in counters.items()})
    metrics["trace.run_s"] = (traced_run_s, "s")
    # Both in wall seconds: the traced passes run without calibration.
    metrics["trace.overhead_s"] = (traced_run_s - statistics.median(t for t, _ in plain), "s")
    return metrics, counters, mismatches


def _check_against_previous(path: str, env: dict, counters: dict) -> list[str]:
    """Counters of an earlier traced run at this seed and source must repeat exactly."""
    try:
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            record = json.load(handle)
        if record["environment"]["source_sha256"] != env["source_sha256"]:
            return []
        previous = record["counters"]
    except (OSError, ValueError, KeyError):
        return []
    return [f"{name}: earlier run {previous.get(name)} != {value}"
            for name, value in counters.items() if previous.get(name) != value]


def _write_spans(path: str, env: dict, counters: dict, traced_passes) -> None:
    names: dict[str, int] = {}
    passes = []
    for _, tracer in traced_passes:
        passes.append([[names.setdefault(layer, len(names)), start, end, parent]
                       for layer, start, end, parent in tracer.spans])
    record = {"environment": env, "counters": counters, "layers": list(names),
              "span_fields": ["layer", "start_ns", "end_ns", "parent"], "passes": passes}
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        json.dump(record, handle)


def _print_metrics(metrics: dict) -> None:
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:.6g} {unit}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not os.path.isfile(os.path.join(SRC, "spiraldet", "__init__.py")):
        _fail(f"no spiraldet sources under {SRC}")
    setup_raw, setup = ([], []) if trace else _setup_times()
    sys.path.insert(0, SRC)
    import spiraldet
    import spiraldet.cli  # noqa: F401  (binds spiraldet.cli)

    if os.path.dirname(os.path.abspath(spiraldet.__file__)) != os.path.join(SRC, "spiraldet"):
        _fail(f"imported spiraldet from {spiraldet.__file__}, not from {SRC}")
    workload = WORKLOADS[name]
    env = _environment(seed)
    os.makedirs(OUT, exist_ok=True)
    scratch = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        controls = Tally()
        try:
            workload.control(spiraldet, seed, controls)
        except Exception:  # a crashed control is a missed one
            controls.refuse(1, f"control: {traceback.format_exc(limit=3)}")
        # Known refusals are reported, not counted: a fix shows as answers here.
        probe = workload.probe(spiraldet) if workload.probe else Tally()
        plain, traced_passes, tally = _run_passes(
            spiraldet, workload, seed, seconds, trace, os.path.join(scratch, "out"))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = tally.attempted + controls.attempted + probe.ok + probe.wrong
    failed = tally.failed + controls.failed + probe.wrong
    mismatches: list[str] = []
    print(f"perfbench workload={name} seed={seed} seconds={seconds} trace={int(trace)}")
    print(f"  environment: {json.dumps(env)}")
    if trace:
        metrics, counters, mismatches = _per_layer(plain, traced_passes)
        counters[PROBE_COUNTER] = probe.refused
        metrics[PROBE_COUNTER] = (probe.refused, "count")
        spans_path = os.path.join(OUT, f"spans-{name}-seed{seed}.json.gz")
        mismatches += _check_against_previous(spans_path, env, counters)
        _write_spans(spans_path, env, counters, traced_passes)
        inclusive = traced_passes[0][1].inclusive_times()
        shares = sorted(((seconds / traced_passes[0][0], layer)
                         for layer, seconds in inclusive.items()
                         if layer in NAMED_LAYERS and layer != "cli.main"), reverse=True)
        print("  inclusive share of the first traced pass: "
              + ", ".join(f"{layer} {share:.0%}" for share, layer in shares if share >= 0.01))
        print(f"  untraced passes (s): {' '.join(f'{t:.4f}' for t, _ in plain)}")
        print(f"  traced passes (s):   {' '.join(f'{t:.4f}' for t, _ in traced_passes)}; "
              f"spans in {os.path.relpath(spans_path, ROOT)}")
    else:
        metrics = _end_to_end(plain, tally, setup)
        tail = _tail([scaled for _, scaled in plain])
        print(f"  passes at the reference speed (s): "
              f"{' '.join(f'{scaled:.4f}' for _, scaled in plain)}")
        print(f"  passes, wall (s): {' '.join(f'{t:.4f}' for t, _ in plain)}; "
              f"median {statistics.median(t for t, _ in plain):.6g}")
        print(f"  setup, wall (s): median {statistics.median(setup_raw):.6g} "
              f"of {len(setup_raw)} interpreters")
        print("  run_s.tail    " + (f"p{tail[0]:.1f} = {tail[1]:.6g} s of {len(plain)} samples"
                                     if tail else f"n/a: needs 11 passes, had {len(plain)}"))
        print(f"  failed_ops    {failed}/{attempted} = {failed / attempted:.6g} "
              f"({tally.wrong} wrong, {tally.refused} refused, "
              f"{controls.failed}/{controls.attempted} controls missed)")
    _print_metrics(metrics)
    for note in sorted(set(tally.notes + controls.notes + mismatches)):
        print(f"  note: {note}")
    for note in sorted(set(probe.notes)):
        print(f"  known defect: {note}")
    if probe.ok:
        print(f"  known defect probe: {probe.ok} of {probe.attempted} now answered correctly")
    correct = tally.wrong == 0 and controls.failed == 0 and probe.wrong == 0 and not mismatches
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(os.path.join(OUT, f"result-{name}-seed{seed}-trace{int(trace)}.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"environment": env, **result}, handle, indent=1)
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in a fresh process; prints their reports and a combined last line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        if done.returncode:
            print(done.stdout, end="")
            return done.returncode
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            {f"{name}.{metric}": value for metric, value in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
