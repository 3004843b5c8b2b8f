#!/usr/bin/env python3
"""symphot benchmark.

    python3 bench/run.py --workload {design,scan,cold-cli,pairs,all} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  A run repeats whole passes over the workload's seeded operations
until ``--seconds`` have elapsed (at least two passes), checks every output
(see checker.py) and prints a readable summary followed, as the last line,
by one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Timings are calibrated against a fixed loop run next to
each timed interval (see CAL_NOMINAL_S), and each operation counts with its
median over the passes; the summary also prints the wall-clock values.
With ``--trace 0`` the metrics are the end-to-end ones, measured without any
wrapper installed; with ``--trace 1`` passes alternate between untraced and
traced, and the metrics are the per-layer ones taken from the traced passes
plus the tracing overhead.  ``--workload all`` runs the four workloads one
after another, each in its own process.  Full results and spans are written
under ``.bench_out/``.

``correct`` is false when an operation fails that the generator did not
mark as a known defect of the current code (ROADMAP items 1 and 4); known
defects still count in ``failed``.
"""

from __future__ import annotations

import argparse
import contextlib
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
from pathlib import Path

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
#: Fresh interpreters timed for setup_s.
SETUP_SPAWNS = 7
#: Tail percentile: the highest of these with at least ten samples beyond it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: Commands whose per-command median each workload reports.
COMMAND_METRICS = {
    "design": ("synthesize", "classify"),
    "scan": ("simulate", "rates"),
    "cold-cli": ("synthesize", "classify", "simulate", "identity-check", "self-test"),
    "pairs": ("pair_plan",),
}


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_program() -> float:
    """Import symphot.cli from the checkout's src/; returns the seconds it took."""
    package = ROOT / "src" / "symphot"
    if not (package / "__init__.py").is_file():
        fail(f"no symphot package under {ROOT / 'src'}; run from a source checkout")
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import symphot.cli
    seconds = time.perf_counter() - start
    if Path(symphot.cli.__file__).resolve().parent != package.resolve():
        fail(f"imported symphot from {symphot.cli.__file__}, not from {package}")
    return seconds


# ----------------------------------------------------------- calibration
#
# Other tenants of the host slow this machine's cores by up to 1.8x, in
# stretches that can cover whole runs.  Every timed interval is therefore
# bracketed by a fixed piece of pure-Python work, and its time is scaled by
# CAL_NOMINAL_S / (mean bracket time).  On a quiet core the two agree and
# the value is plain wall-clock time.

#: Seconds calibration_loop takes on an uncontended core of the machine the
#: benchmark was written on (2-vCPU Intel Xeon VM, 2.0 GHz, Python 3.11).
CAL_NOMINAL_S = 0.0007


def calibration_loop() -> float:
    """Seconds taken by fixed work: tuple keys, dict updates, bit counts, complex sums."""
    start = time.perf_counter()
    terms = {}
    for i in range(1000):
        key = (i & 31, i >> 5, bin(i).count("1"))
        terms[key] = terms.get(key, 0j) + complex(i, -i) * 0.5
    return time.perf_counter() - start


def calibrated(seconds: float, cal_s: float) -> float:
    return seconds * CAL_NOMINAL_S / cal_s


# ------------------------------------------------------------------ loop


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path):
    """Repeat the pass until `seconds` elapsed, at least twice.

    Returns ([(traced, [OpResult])], tracer).  With tracing, passes
    alternate untraced/traced starting untraced, which also fills caches.
    """
    tracer = tracing.Tracer() if trace else None
    specs = workload.ops(seed)
    passes = []
    op_id = 0
    start = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - start < seconds:
        traced = trace and len(passes) % 2 == 1
        scope = tracer.installed() if traced and workload.in_process else contextlib.nullcontext()
        results = []
        with scope:
            for spec in specs:
                if tracer is not None:
                    tracer.op_id = op_id
                before = calibration_loop()
                result = workload.run(spec, traced, op_id, workdir)
                result.cal_s = (before + calibration_loop()) / 2
                results.append(result)
                op_id += 1
        passes.append((traced, results))
    return passes, tracer


def measure_setup(env: dict) -> tuple:
    """Median (calibrated, wall-clock) seconds to import symphot.cli in a fresh interpreter."""
    times, raw = [], []
    for _ in range(SETUP_SPAWNS):
        before = calibration_loop()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import symphot.cli"], env=env, cwd=ROOT,
                       check=True, capture_output=True, timeout=60)
        raw.append(time.perf_counter() - start)
        times.append(calibrated(raw[-1], (before + calibration_loop()) / 2))
    return statistics.median(times), statistics.median(raw)


# --------------------------------------------------------------- metrics


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(values):
    """(percentile, value, samples beyond it) for the highest ladder rung with >= 10 beyond."""
    n = len(values)
    q = next((q for q in TAIL_LADDER if n * (1 - q / 100.0) >= 10), 50.0)
    value = percentile(values, q)
    return q, value, sum(1 for v in values if v > value)


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def per_op(passes, value=lambda r: calibrated(r.latency_s, r.cal_s)) -> list:
    """Each operation's median calibrated time over the passes.

    The passes repeat one list of operations, so position i is the same
    operation in every pass.  The median ignores the short spikes that hit
    one timed interval but not the loops around it.
    """
    return [statistics.median(value(results[i]) for results in passes)
            for i in range(len(passes[0]))]


def _op_metrics(times):
    q, tail_s, beyond = tail(times)
    metrics = {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
    }
    return metrics, {"tail_percentile": q, "tail_samples": len(times), "tail_beyond": beyond}


def end_to_end(name: str, passes: list, setup: tuple, in_process: bool):
    """(final-line metrics, per-command medians, details including the raw wall-clock values)."""
    runs = [rs for _, rs in passes]
    ops, details = _op_metrics(per_op(runs))
    metrics = {"setup_s": (setup[0], "s"), **ops, "peak_rss_mb": (peak_rss_mb(in_process), "MB")}
    raw, _ = _op_metrics(per_op(runs, lambda r: r.latency_s))
    details["wall_clock"] = {"setup_s": setup[1], **{k: v for k, (v, _) in raw.items()}}
    per_command = {}
    for command in COMMAND_METRICS[name]:
        ops = [i for i, r in enumerate(runs[0]) if any(c == command for c, _ in r.commands)]
        times = per_op([[rs[i] for i in ops] for rs in runs], lambda r: calibrated(
            sum(s for c, s in r.commands if c == command), r.cal_s))
        if command == "self-test":
            per_command["self_test_s"] = (statistics.median(times), "s")
        else:
            per_command[f"{command.replace('-', '_')}_p50_ms"] = (statistics.median(times) * 1e3, "ms")
    return metrics, per_command, details


def _layer_totals(spans):
    own = tracing.self_times(spans)
    totals = {}
    for span, self_ns in zip(spans, own):
        entry = totals.setdefault(span[0], {"ns": 0, "self_ns": 0, "calls": 0, "attrs": []})
        entry["ns"] += span[2] - span[1]
        entry["self_ns"] += self_ns
        entry["calls"] += 1
        if span[6] is not None:
            entry["attrs"].append((span[4], span[6]))
    return totals


def per_layer(passes, tracer, import_s: float):
    traced = [r for t, rs in passes if t for r in rs]
    spans = list(tracer.spans) if tracer is not None else []
    for r in traced:  # child-process spans, re-based onto one list
        offset = len(spans)
        spans += [s[:3] + [s[3] + offset if s[3] >= 0 else -1] + s[4:] for s in r.spans]
    totals = _layer_totals(spans)
    ops = len(traced)
    truths = {}
    op_id = 0
    for _, rs in passes:
        for r in rs:
            truths[op_id] = r.truth
            op_id += 1

    def entry(name):
        return totals.get(name, {"ns": 0, "self_ns": 0, "calls": 0, "attrs": []})

    def ms(name):
        return entry(name)["ns"] / ops / 1e6

    def attr_sum(name, key):
        return sum(a[key] for _, a in entry(name)["attrs"])

    classified = [(op, a["configuration"]) for op, a in entry("slocc.classify_params")["attrs"]
                  if truths.get(op) is not None]
    correct = sum(1 for op, config in classified if tuple(config) == truths[op])
    kept_in = attr_sum("multiport.postselect", "terms_in")
    cache = [r.cache_entries for r in traced if r.cache_entries is not None]
    imports = [s[2] - s[1] for s in spans if s[0] == "process.import"]
    import_ms = statistics.mean(imports) / 1e6 if imports else import_s * 1e3
    traced_times = per_op([rs for t, rs in passes if t])
    untraced_times = per_op([rs for t, rs in passes if not t])
    traced_rate = len(traced_times) / sum(traced_times)
    untraced_rate = len(untraced_times) / sum(untraced_times)

    return {
        "cli.self_ms": (entry("cli.main")["self_ns"] / ops / 1e6, "ms/op"),
        "cli.stdout_bytes": (sum(r.stdout_bytes for r in traced) / ops, "bytes/op"),
        "symmetric.roots.ms": (ms("symmetric.roots"), "ms/op"),
        "symmetric.roots.calls": (entry("symmetric.roots")["calls"] / ops, "count/op"),
        "symmetric.params_from_coefficients.self_ms": (
            entry("symmetric.params_from_coefficients")["self_ns"] / ops / 1e6, "ms/op"),
        "symmetric.output_state.ms": (ms("symmetric.output_state"), "ms/op"),
        "symmetric.output_state.calls": (entry("symmetric.output_state")["calls"] / ops, "count/op"),
        "symmetric.output_state.amplitudes": (
            attr_sum("symmetric.output_state", "amplitudes") / ops, "count/op"),
        "symmetric.coefficients_from_params.ms": (ms("symmetric.coefficients_from_params"), "ms/op"),
        "symmetric.normalization_squared.ms": (ms("symmetric.normalization_squared"), "ms/op"),
        "slocc.classify_params.ms": (ms("slocc.classify_params"), "ms/op"),
        "slocc.pairs_compared": (attr_sum("slocc.classify_params", "pairs") / ops, "count/op"),
        "slocc.correct_share": (correct / len(classified) if classified else 0.0, "share"),
        "fock.product_state.ms": (ms("fock.product_state"), "ms/op"),
        "fock.product_state.terms": (attr_sum("fock.product_state", "terms") / ops, "count/op"),
        "fock.apply_creation.calls": (entry("fock.apply_creation")["calls"] / ops, "count/op"),
        "multiport.distribute.ms": (ms("multiport.distribute"), "ms/op"),
        "multiport.distribute.terms_out": (attr_sum("multiport.distribute", "terms") / ops, "count/op"),
        "multiport.apply_mode_isometry.ms": (ms("multiport.apply_mode_isometry"), "ms/op"),
        "multiport.postselect.ms": (ms("multiport.postselect"), "ms/op"),
        "multiport.postselect.kept_term_share": (
            attr_sum("multiport.postselect", "kept") / kept_in if kept_in else 0.0, "share"),
        "multiport.expansion_cache.entries": (statistics.mean(cache) if cache else 0.0, "count"),
        "schemes.ncl_joint_state.ms": (ms("schemes.ncl_joint_state"), "ms/op"),
        "schemes.project_onto.ms": (ms("schemes.project_onto"), "ms/op"),
        "schemes.dicke_2n_construction.ms": (ms("schemes.dicke_2n_construction"), "ms/op"),
        "schemes.dicke_2n_construction.terms": (
            attr_sum("schemes.dicke_2n_construction", "terms") / ops, "count/op"),
        "schemes.rates.ms": (ms("schemes.rates"), "ms/op"),
        "process.import_ms": (import_ms, "ms"),
        "trace.traced_ops_per_s": (traced_rate, "1/s"),
        "trace.untraced_ops_per_s": (untraced_rate, "1/s"),
        "trace.overhead_pct": ((untraced_rate / traced_rate - 1.0) * 100.0, "%"),
    }, spans


# ----------------------------------------------------------- environment


def environment(workload: str, attempted: int) -> dict:
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "workload": workload,
        "operations": attempted,
    }


# ------------------------------------------------------------------ main


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import_s = import_program()
    # one core for the benchmark and its children, so each calibration loop
    # runs on the core whose speed it stands for
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = workloads.make(name, ROOT)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir()
    try:
        passes, tracer = measure(workload, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    results = [r for _, rs in passes for r in rs]
    failures = [r for r in results if r.failure]
    report = {
        "correct": all(r.known_defect for r in failures),
        "attempted": len(results),
        "failed": len(failures),
    }
    detail = {"failed_share": len(failures) / len(results), "passes": len(passes),
              "failures": sorted({f"{r.failure} [{r.known_defect or 'unexpected'}]"
                                  for r in failures})}
    if trace:
        metrics, spans = per_layer(passes, tracer, import_s)
        spans_path = OUT / f"spans-{name}-seed{seed}.jsonl"
        tracing.write_spans(spans_path, spans)
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        setup = measure_setup(workloads.child_env(ROOT))
        metrics, per_command, extra = end_to_end(name, passes, setup, workload.in_process)
        detail.update(extra)
        detail["per_command"] = {k: {"value": v, "unit": u} for k, (v, u) in per_command.items()}
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    detail["environment"] = environment(name, len(results))
    with open(OUT / f"{name}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump({**report, "detail": detail}, fh, indent=2)

    print(f"# workload {name}  seed {seed}  trace {int(trace)}  passes {len(passes)}")
    for key, (value, unit) in metrics.items():
        print(f"#   {key:44s} {value:14.6g} {unit}")
    for key, entry in detail.get("per_command", {}).items():
        print(f"#   {key:44s} {entry['value']:14.6g} {entry['unit']}")
    if not trace:
        print(f"#   tail = p{detail['tail_percentile']:g} of {detail['tail_samples']} samples,"
              f" {detail['tail_beyond']} beyond")
        print("#   wall clock, not calibrated: " + ", ".join(
            f"{k} {v:.6g}" for k, v in detail["wall_clock"].items()))
    print(f"#   {'failed_share':44s} {detail['failed_share']:14.6g} share"
          f"  ({report['failed']} of {report['attempted']})")
    for line in detail["failures"]:
        print(f"#   failure: {line}")
    print("# environment " + json.dumps(detail["environment"], sort_keys=True))
    return report


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in its own process, so caches and peak memory stay apart."""
    summary = {}
    for name in workloads.NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            fail(f"workload {name} exited with {proc.returncode}")
        summary[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "correct": all(r["correct"] for r in summary.values()),
        "attempted": sum(r["attempted"] for r in summary.values()),
        "failed": sum(r["failed"] for r in summary.values()),
        "metrics": {f"{name}.{k}": v for name, r in summary.items() for k, v in r["metrics"].items()},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if args.workload == "all":
        report = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        report = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report))


if __name__ == "__main__":
    main()
