"""Run one hopfglue benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tuple-sweep --seed 0 --seconds 40 --trace 0

Run from the repository root.  Workloads: tuple-sweep, matrix-certify, cli
(see perfbench/README.md).  Each op is checked against independent
arithmetic; a failed op or a digest mismatch makes the run exit 1.

--trace 0 measures the end-to-end metrics with no wrappers installed.
--trace 1 spends half of --seconds on untraced ops, then runs three traced
passes over the input pool, each after an untraced one, and reports the
per-layer metrics.

End-to-end times are scaled to a fixed machine speed by an interleaved
reference burst (see REF_NOMINAL_S); the raw times are printed as raw_*.

Human-readable lines come first; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"} holding exactly the
metrics BENCHMARK.json declares for the mode.  Details (provenance, input
properties, digests, sample counts) go to perfbench/results/, spans of a
traced run to perfbench/results/spans-*.csv.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tracer_mod
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_PROBES = 7
TRACE_PROBES = 3
CLI_PROBES = 5
TRACE_PASSES = 3

# Machine-speed reference.  On a shared machine, throughput drifts with
# other tenants' load for minutes at a time, and the drift is common to
# all pure-Python work.  So the loop times a fixed reference burst every
# REF_EVERY_S, and each reported time is scaled by REF_NOMINAL_S over the
# burst's median call time: it reads as measured on a machine where one
# reference call takes REF_NOMINAL_S.  Raw times are printed as well.
REF_CALLS = 5
REF_EVERY_S = 0.5
REF_NOMINAL_S = 0.0025


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="internal: time this interpreter's set-up and exit")
    return ap.parse_args(argv)


def setup_probe(workload, seed):
    """Set up as a run does, in this fresh interpreter; print the phases."""
    import_s = workloads.import_for(workload)
    gluing = sys.modules["hopfglue.gluing"]
    start = time.perf_counter()
    gluing.calibrated_zeta_variant()
    calibration_s = time.perf_counter() - start
    start = time.perf_counter()
    workloads.WORKLOADS[workload](seed)
    inputs_s = time.perf_counter() - start
    print(json.dumps({"import_s": import_s, "calibration_s": calibration_s,
                      "inputs_s": inputs_s}))


def reference_work():
    """Fixed pure-Python integer work that never calls hopfglue.

    It allocates no containers, so it never triggers the garbage collector,
    whose cost would depend on the workload's heap.
    """
    acc = 0
    for i in range(1, 3000):
        a, b = i * 7919 + 13, i * 104729 + 7
        while b:
            a, b = b, a % b
        acc = (acc * 31 + a) & 0xFFFFFFFF
    return acc


def speed_scale():
    """Factor that scales a time measured now to the reference machine speed."""
    times = []
    for _ in range(REF_CALLS):
        start = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - start)
    return REF_NOMINAL_S / statistics.median(times)


def measure_setup(workload, seed, count):
    """Wall time from spawning a fresh interpreter to set-up done, ``count``
    times: (raw seconds, seconds scaled to reference speed, phases)."""
    walls, scaled, phases = [], [], []
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--setup-probe"]
    for _ in range(count):
        scale = speed_scale()
        start = time.perf_counter()
        code, out, _ = workloads.run_child(argv)
        walls.append(time.perf_counter() - start)
        scaled.append(walls[-1] * scale)
        if code != 0:
            raise RuntimeError(f"set-up probe exited with {code}")
        phases.append(json.loads(out.splitlines()[-1]))
    return walls, scaled, phases


def wall_of(argv, env):
    """Wall seconds of running ``argv`` to completion."""
    start = time.perf_counter()
    code, _, _ = workloads.run_child(argv, env)
    if code != 0:
        raise RuntimeError(f"{argv} exited with {code}")
    return time.perf_counter() - start


class Loop:
    """Closed loop, one client: the next op starts when the last has been checked."""

    def __init__(self, wl):
        self.wl = wl
        self.first_digest = {}
        self.errors = []
        self.attempted = 0
        self.failed = 0

    def op(self, index, run, span):
        """Run and check pool entry ``index``; return (seconds, items, counters)
        or None if the op failed."""
        self.attempted += 1
        entry = self.wl.pool[index]
        try:
            start = time.perf_counter()
            out = run(entry, span)
            elapsed = time.perf_counter() - start
            items, digest, counters = self.wl.check(index, out)
        except Exception as exc:  # every failure of an op is counted, not fatal
            self.fail(f"op {index}: {type(exc).__name__}: {exc}")
            return None
        known = self.first_digest.setdefault(index, digest)
        if known != digest:
            self.fail(f"op {index}: output digest changed between passes")
            return None
        return elapsed, items, counters

    def fail(self, message):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def timed(self, seconds, run=None):
        """Run ops for ``seconds``, and at least one full pass over the pool.

        Returns (raw op seconds, op seconds scaled to reference speed,
        items); the scale is re-measured every REF_EVERY_S.
        """
        run = run or self.wl.run
        pool = len(self.wl.pool)
        latencies, scaled, items = [], [], 0
        deadline = time.perf_counter() + seconds
        next_ref = 0.0
        i = 0
        while i < pool or time.perf_counter() < deadline:
            if time.perf_counter() >= next_ref:
                scale = speed_scale()
                next_ref = time.perf_counter() + REF_EVERY_S
            done = self.op(i % pool, run, workloads.direct)
            if done is not None:
                latencies.append(done[0])
                scaled.append(done[0] * scale)
                items += done[1]
            i += 1
        return latencies, scaled, items

    def pass_digest(self):
        pool = len(self.wl.pool)
        if len(self.first_digest) < pool:
            return None
        return hashlib.sha256("".join(self.first_digest[i] for i in range(pool)).encode()).hexdigest()


def rate(amount, per):
    return amount / per if per else 0.0


def p90(values):
    return statistics.quantiles(values, n=10)[8]


def provenance(args, wl):
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hopfglue").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "seconds": args.seconds,
        "workload": args.workload,
        "sizes": wl.sizes,
    }


def declared_metrics(trace):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def timing_metrics(setup, latencies, items):
    return {
        "setup_s": statistics.median(setup),
        "items_per_s": items / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": p90(latencies) * 1e3,
    }


def end_to_end(args, wl, loop, report):
    walls, scaled_walls, phases = measure_setup(args.workload, args.seed, SETUP_PROBES)
    report["setup_probes"] = {"wall_s": walls, "scaled_s": scaled_walls, "phases": phases}
    latencies, scaled, items = loop.timed(args.seconds)
    if isinstance(wl, workloads.Cli):
        rss_kib = wl.max_rss_kib
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report["op_samples"] = len(latencies)
    report["items"] = items
    if len(latencies) < 2:
        return None
    report["raw"] = timing_metrics(walls, latencies, items)
    return dict(timing_metrics(scaled_walls, scaled, items), peak_rss_mib=rss_kib / 1024)


def cli_layer(wl, loop, seconds, extra):
    """The cli workload's layer probes, written into ``extra``.

    ``CLI_PROBES`` rounds of subprocesses, each a bare interpreter, an
    import and one pass over the pool, give interpreter start, import and
    per-command wall time as medians.  Then ``main()`` runs in this process
    for ``seconds``, after a warm-up pass, for the per-command in-process
    time and stdout size.
    """
    interp, imported, commands = [], [], {}
    for _ in range(CLI_PROBES):
        interp.append(wall_of([sys.executable, "-c", "pass"], wl.env))
        imported.append(wall_of([sys.executable, "-c", "import hopfglue.cli"], wl.env))
        for kind, walls in by_kind(wl, loop, wl.run).items():
            commands.setdefault(kind, []).extend(walls)
    interp, imported = statistics.median(interp), statistics.median(imported)
    extra["cli.interpreter_ms"] = interp * 1e3
    extra["cli.import_ms"] = (imported - interp) * 1e3
    for kind, walls in commands.items():
        extra[f"cli.command_ms.{kind}"] = (statistics.median(walls) - imported) * 1e3

    loop.timed(0, wl.run_inprocess)  # warm-up
    times = {}
    deadline = time.perf_counter() + seconds
    while True:
        for kind, walls in by_kind(wl, loop, wl.run_inprocess).items():
            times.setdefault(kind, []).extend(walls)
        if time.perf_counter() >= deadline:
            break
    for kind, walls in times.items():
        extra[f"cli.main_inprocess_us.{kind}"] = statistics.median(walls) * 1e6
    for entry in wl.pool:
        extra[f"cli.stdout_bytes.{entry[0]}"] += len(wl.run_inprocess(entry).stdout)


def by_kind(wl, loop, run):
    """One pass over the cli pool; successful op seconds grouped by command kind."""
    walls = {}
    for i, entry in enumerate(wl.pool):
        done = loop.op(i, run, workloads.direct)
        if done is not None:
            walls.setdefault(entry[0], []).append(done[0])
    return walls


def per_layer(args, wl, loop, report):
    _, _, phases = measure_setup(args.workload, args.seed, TRACE_PROBES)
    extra = {"gluing.calibrated_zeta_variant.first_call_ms":
             statistics.median(p["calibration_s"] for p in phases) * 1e3,
             "cli.interpreter_ms": 0, "cli.import_ms": 0, "cli.document_roundtrip.total_ms": 0}
    for k in workloads.CLI_KINDS:
        for metric in ("command_ms", "main_inprocess_us", "stdout_bytes"):
            extra[f"cli.{metric}.{k}"] = 0

    # Untraced ops for half the run; then TRACE_PASSES traced passes over
    # the pool, each right after an untraced pass, so that the overhead
    # ratio compares neighbours in time and every count is a fixed amount
    # of work.
    if isinstance(wl, workloads.Cli):
        run = wl.run_inprocess
        cli_layer(wl, loop, args.seconds / 2, extra)
    else:
        run = wl.run
        loop.timed(args.seconds / 2)

    tracer = tracer_mod.Tracer()

    def traced_run(entry, span):
        return tracer.call("bench.op", run, entry, span)

    plain, traced, counters = [0, 0.0], [0, 0.0], {}
    for _ in range(TRACE_PASSES):
        for i in range(len(wl.pool)):
            done = loop.op(i, run, workloads.direct)
            if done is not None:
                plain[0] += done[1]
                plain[1] += done[0]
        tracer.install()
        try:
            for i in range(len(wl.pool)):
                tracer.op_id += 1
                done = loop.op(i, traced_run, tracer.call)
                if done is None:
                    continue
                traced[0] += done[1]
                traced[1] += done[0]
                for key, value in done[2].items():
                    counters[key] = counters.get(key, 0) + value
        finally:
            tracer.uninstall()
    if not tracer.all_original():
        loop.fail("tracer left a wrapped attribute behind")

    grid = counters.get("cells_grid", 0)
    evaluated = counters.get("cells_evaluated", 0)
    extra.update({
        "sweep.cells_grid": grid,
        "sweep.cells_evaluated": evaluated,
        "sweep.evaluated_ratio": rate(evaluated, grid),
        "gluing.certificate_factors": counters.get("certificate_factors", 0),
        "trace.overhead_ratio": rate(rate(*traced), rate(*plain)),
    })
    extra.update(tracer_mod.zero_metrics())
    extra.update(tracer.counts)
    for name, (calls, total, self_s) in tracer.stats.items():
        extra[f"{name}.calls"] = calls
        extra[f"{name}.total_ms"] = total * 1e3
        extra[f"{name}.self_ms"] = self_s * 1e3

    expected_zero = {"tuple-sweep": "linalg.random_sl3.calls",
                     "matrix-certify": "linalg.smith_normal_form.calls"}.get(args.workload)
    if expected_zero and extra.get(expected_zero, 0) != 0:
        loop.fail(f"{expected_zero} is {extra[expected_zero]}, expected 0")

    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"spans-{args.workload}-seed{args.seed}.csv"
    tracer.write_spans(spans_path)
    report["spans_file"] = str(spans_path.relative_to(ROOT))
    report["span_count"] = len(tracer.spans)
    return extra


def find_sources():
    """Put src/ on sys.path; False if the hopfglue sources are missing."""
    if not (workloads.SRC / "hopfglue" / "__init__.py").is_file():
        sys.stderr.write(f"error: no hopfglue sources under {workloads.SRC}\n")
        return False
    sys.path.insert(0, str(workloads.SRC))
    return True


def main(argv=None):
    args = parse_args(argv)
    if not find_sources():
        return 2
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}\n")
        return 2
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    workloads.import_for(args.workload)
    sys.modules["hopfglue.gluing"].calibrated_zeta_variant()
    baseline = tracer_mod.Tracer()
    wl = workloads.WORKLOADS[args.workload](args.seed)
    loop = Loop(wl)
    report = {"provenance": provenance(args, wl)}
    measure = per_layer if args.trace else end_to_end
    metrics = measure(args, wl, loop, report)
    if metrics is None:
        for err in loop.errors:
            print(f"error: {err}", file=sys.stderr)
        print(f"error: {loop.failed} of {loop.attempted} ops failed; no metrics", file=sys.stderr)
        return 1
    if not baseline.all_original():
        loop.fail("a wrapped hopfglue attribute is not the original object")

    digest = loop.pass_digest()
    with open(HERE / "digests.json", encoding="utf-8") as fh:
        recorded = json.load(fh).get(args.workload, {}).get(str(args.seed))
    if digest is None:
        loop.fail("the run did not complete one pass over the input pool")
    elif recorded is not None and recorded != digest:
        loop.fail(f"pass digest {digest} differs from the recorded {recorded}")

    declared = declared_metrics(args.trace)
    missing = set(declared) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    out = {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()}

    report.update({
        "digest": digest,
        "recorded_digest": recorded,
        "input_properties": wl.properties(),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "error_rate": loop.failed / max(loop.attempted, 1),
        "errors": loop.errors,
        "metrics": out,
    })
    RESULTS.mkdir(exist_ok=True)
    result_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} -> {result_path.relative_to(ROOT)}")
    print("provenance " + json.dumps(report["provenance"], sort_keys=True))
    print("input_properties " + json.dumps(report["input_properties"], sort_keys=True))
    if "op_samples" in report:
        print(f"op_samples {report['op_samples']} ({wl.item}: {report['items']})")
        print(f"{wl.item}_per_s {metrics['items_per_s']!r} 1/s")
        for name, value in report["raw"].items():
            print(f"raw_{name} {value!r} (unscaled)")
    for name, m in out.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(f"error_rate {report['error_rate']!r} ratio ({loop.failed}/{loop.attempted})")
    print(f"digest {digest} recorded {recorded}")
    for err in loop.errors:
        print(f"error: {err}", file=sys.stderr)
    correct = loop.failed == 0
    print(json.dumps({"correct": correct, "attempted": loop.attempted, "failed": loop.failed,
                      "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
