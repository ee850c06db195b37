"""Kaskade benchmark: one workload, end to end or layer by layer.

    python3 perfbench/run.py --workload prov-kaskade --seed 1 --seconds 10 --trace 0

Run from the repository root; the program is imported from ``src/``.
One process drives a closed loop with one client and one driver thread
on ``local[N]`` Spark (N = min(4, cores)), configured like the test
fixture: 64 shuffle partitions, broadcast joins off, driver memory from
``SPARK_DRIVER_MEM`` or else half the machine's memory within [2, 8] GiB;
the JVM compiles with C1 only (see ``configure``).

A run has four phases:

1. set-up (``setup_s``): Spark session up, dataset generated from the
   seed and pinned; done ``SETUP_REPS`` times (the session restarted
   each time), median reported;
2. preparation, cold: the Kaskade loop until the view can be queried;
3. one untimed warm-up pass of the mix on each plan;
4. timed cycles for ``--seconds`` (at least ``MIN_CYCLES``): the previous
   views unpersisted, preparation again (``prepare_s``), then one pass
   on each plan, the baseline/view order alternating from cycle to
   cycle; ``prepare_s``, ``baseline_plan_s`` and ``view_plan_s`` are
   medians over the cycles.

Every result is checked; a query that raises or fails its check counts
in ``failed``. With ``--trace 1`` spans and Spark counters are recorded
and the per-layer metrics are reported instead. Every metric is printed
as ``name value unit``; the last line of standard output is the JSON
result. A full record (machine, settings, all metrics, spans) is written
to ``.bench_build/perfbench/``. Exits non-zero when a check fails.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

from spans import MB, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_build" / "perfbench"

SETUP_REPS = 5
WORKERS = min(4, os.cpu_count() or 1)
MIN_CYCLES = 2
SHUFFLE_PARTITIONS = 64


def mem_total_kib() -> int | None:
    try:
        with open("/proc/meminfo") as f:
            return next(int(line.split()[1]) for line in f if line.startswith("MemTotal:"))
    except (OSError, StopIteration, ValueError):
        return None


def driver_memory() -> str:
    """``SPARK_DRIVER_MEM``, else half the machine's memory within [2, 8]
    GiB: the rule the test suite's Spark session is launched with."""
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    kib = mem_total_kib() or 0
    return f"{min(8, max(2, kib // (2 << 20)))}g"


def configure(master: str, driver_mem: str) -> None:
    """Environment read when pyspark launches the JVM: every scratch file
    stays inside the checkout."""
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    # C1 only: at these sizes a pass is bound by per-job overhead, and C2
    # would still be compiling Spark's code paths when a run ends, so the
    # timed passes would measure the compiler's progress.
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:TieredStopAtLevel=1 -XX:-UsePerfData"
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"  # no /tmp/hsperfdata_*
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master {master} --driver-memory {driver_mem} "
        f"--driver-java-options {shlex.quote(java_opts)} "
        f"--conf {shlex.quote(f'spark.local.dir={tmp}')} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false pyspark-shell"
    )
    sys.path.insert(0, str(ROOT / "src"))


def session(trace: bool):
    from pyspark.sql import SparkSession

    b = (
        SparkSession.builder.appName("kaskade-bench")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        # One sorted shuffle file per map task instead of one file per
        # reduce partition (64) concatenated afterwards: the file churn
        # kept task threads in the kernel for two thirds of their time,
        # so timings followed the disk rather than the program.
        .config("spark.shuffle.sort.bypassMergeThreshold", "1")
    )
    if trace:
        # Write every task event to the status store at once, so that
        # counters read after an action are exact.
        b = b.config("spark.ui.liveUpdate.period", "0")
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def shutdown(spark) -> None:
    """Stop Spark and wait for the JVM it launched to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()
        proc.wait(timeout=60)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


class Mix:
    """Runs passes of a workload's query mix and checks every result."""

    def __init__(self, wl, prepared, tracer):
        self.wl, self.p, self.tracer = wl, prepared, tracer
        self.values = defaultdict(list)  # (query, plan) -> checked values
        self.seconds = defaultdict(list)  # (query, plan) -> timed seconds
        self.pass_s = {"base": [], "view": []}
        self.attempted = self.broken = 0
        self.errors: list[str] = []

    def run_pass(self, plan: str, timed: bool) -> None:
        from workloads import CheckFailed, timed as timed_call

        scratch: dict = {}
        with self.tracer.span(f"pass.{plan}" if timed else f"warmup.{plan}"):
            t0 = time.perf_counter()
            for step in self.wl.steps:
                self.attempted += 1
                try:
                    val, secs = timed_call(
                        self.tracer,
                        f"workload.{step.name}_{plan}",
                        lambda: step.run(plan, self.p, scratch),
                    )
                except Exception as e:  # counted, reported, and the run goes on
                    traceback.print_exc()
                    self.broken += 1
                    self.errors.append(f"{step.name}/{plan}: {type(e).__name__}: {e}")
                    continue
                if step.verify is not None:
                    try:
                        step.verify(plan, self.p, val)
                    except CheckFailed as e:
                        self.broken += 1
                        self.errors.append(f"{step.name}/{plan}: {e}")
                        continue
                self.values[(step.name, plan)].append(val)
                if timed:
                    self.seconds[(step.name, plan)].append(secs)
            if timed:
                self.pass_s[plan].append(time.perf_counter() - t0)

    def check(self) -> int:
        """Executions whose value differs from the first of its (query,
        plan), or, for ``same`` queries, from the baseline's."""
        bad = 0
        for step in self.wl.steps:
            base = self.values[(step.name, "base")]
            ref = {"base": base[:1], "view": base[:1] if step.same else None}
            for plan in ("base", "view"):
                vals = self.values[(step.name, plan)]
                want = ref[plan] or vals[:1]
                wrong = [v for v in vals if [v] != want]
                if wrong:
                    self.errors.append(
                        f"{step.name}/{plan}: {len(wrong)} results differ from {want}"
                    )
                bad += len(wrong)
        return bad


def log(msg: str) -> None:
    print(f"[{time.strftime('%H:%M:%S')}] {msg}", file=sys.stderr, flush=True)


def measure(args, wl, tracer, live: list) -> dict:
    """Set-up, preparation, warm-up and timed passes of one workload.
    ``live`` holds the current Spark session, for the caller to stop."""
    from workloads import CheckFailed, plan_bytes, probes, timed

    seed = args.seed % (1 << 32)
    out = {"errors": [], "attempted": 0, "failed": 0, "metrics": {}, "cycles": 0}
    med = statistics.median

    # 1. set-up
    setup_s = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        if live:
            live.pop().stop()
        spark = session(tracer.enabled)
        live.append(spark)
        tracer.attach(spark)
        graph, _ = timed(tracer, "datasets.generate", lambda: wl.generate(spark, seed))
        setup_s.append(time.perf_counter() - t0)
    log(f"set-up {[round(t, 2) for t in setup_s]}")
    out["java"] = spark._jvm.java.lang.System.getProperty("java.version")
    n_edges = graph.edge_count()

    # 2. preparation, cold, whose views serve the warm-up; 3. warm-up
    def prepare():
        out["attempted"] += 1
        try:
            return wl.prepare(graph, tracer)
        except CheckFailed as e:
            out["failed"] += 1
            out["errors"].append(f"prepare: {e}")
            return None

    if (prepared := prepare()) is None:
        return out
    mix = Mix(wl, prepared, tracer)
    for plan in ("base", "view"):
        mix.run_pass(plan, timed=False)
    log("warm-up done")

    # 4. timed cycles: the views rebuilt (the previous ones unpersisted
    # first), then one pass on each plan. A cycle starts only if one of
    # the median length still ends before the deadline, so a run never
    # measures past ``--seconds``.
    prepare_s: list[float] = []
    cycle_s: list[float] = []
    deadline = time.perf_counter() + args.seconds
    while len(cycle_s) < MIN_CYCLES or time.perf_counter() + med(cycle_s) <= deadline:
        prepared.release()
        t0 = time.perf_counter()
        if (prepared := prepare()) is None:
            return out
        prepare_s.append(time.perf_counter() - t0)
        mix.p = prepared
        for plan in ("view", "base") if len(cycle_s) % 2 == 0 else ("base", "view"):
            mix.run_pass(plan, timed=True)
        cycle_s.append(time.perf_counter() - t0)
    log(f"prepare {[round(t, 2) for t in prepare_s]}")
    view_mem_mb = (plan_bytes(prepared.view.vertices) + plan_bytes(prepared.view.edges)) / MB
    log(f"timed passes {dict(mix.pass_s)}")
    out["failed"] += mix.broken + mix.check()
    out["attempted"] += mix.attempted
    out["errors"] += mix.errors
    out["cycles"] = len(cycle_s)

    metrics = out["metrics"]
    metrics.update(
        setup_s=(med(setup_s), "s"),
        prepare_s=(med(prepare_s), "s"),
        baseline_plan_s=(med(mix.pass_s["base"]), "s"),
        view_plan_s=(med(mix.pass_s["view"]), "s"),
        view_mem_mb=(view_mem_mb, "MB"),
    )
    for (q, plan), secs in sorted(mix.seconds.items()):
        metrics[f"workload.{q}_{plan}_s"] = (med(secs), "s")
    if tracer.enabled:
        metrics.update(layer_metrics(prepared, tracer, n_edges, probes))
    return out


def main() -> int:
    args = parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    master = f"local[{WORKERS}]"
    driver_mem = driver_memory()
    configure(master, driver_mem)

    import pyspark
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    tracer = Tracer(args.trace == 1)
    live: list = []
    try:
        out = measure(args, wl, tracer, live)
    finally:
        if live:
            shutdown(live[0])

    metrics, failed, attempted = out["metrics"], out["failed"], out["attempted"]
    failed_frac = failed / max(1, attempted)
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_frac {failed_frac:.6g} ratio ({failed}/{attempted})")
    print(f"timed cycles {out['cycles']}")
    for e in out["errors"]:
        print(f"FAILED {e}")

    record = {
        "machine": {
            "cores": os.cpu_count(),
            "memory_gib": round((mem_total_kib() or 0) / (1 << 20), 1),
            "spark": pyspark.__version__,
            "java": out.get("java"),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "settings": {
            "workload": wl.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "master": master,
            "driver_memory": driver_mem,
            "shuffle_partitions": SHUFFLE_PARTITIONS,
            "broadcast_joins": False,
            "setup_reps": SETUP_REPS,
            "warmup_pairs": 1,
            "timed_cycles": out["cycles"],
            "params": wl.params,
        },
        "failed_frac": failed_frac,
        "errors": out["errors"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "spans": tracer.to_json(),
    }
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))

    correct = failed == 0
    wanted = spec["per_layer" if tracer.enabled else "end_to_end"]
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
            for m in wanted
            if m["name"] in metrics
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


def layer_metrics(p, tracer, n_edges, probes) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of a traced run, plus direct
    probe calls into each layer the workload exercises."""
    med = statistics.median

    def secs(name):
        return med(s.seconds for s in tracer.named(name))

    def counter(name, key):
        return med(s.counters[key] for s in tracer.named(name))

    out: dict[str, tuple[float, str]] = {
        "datasets.generate_s": (secs("datasets.generate"), "s"),
        "datasets.edges": (n_edges, "count"),
        "summarizers.edges_out": (p.base.edge_count(), "count"),
        "enumerator.candidates": (p.candidates, "count"),
        "selection.chosen": (p.chosen, "count"),
        "connectors.view_edges": (p.view.edge_count(), "count"),
        "connectors.shuffle_mb": (
            counter("connectors.materialize", "shuffle_bytes") / MB, "MB"
        ),
    }
    for layer in (
        "summarizers.keep_vertex_types",
        "estimator.collect_stats",
        "enumerator.enumerate",
        "selection.select",
        "rewriter.rewrite",
        "connectors.materialize",
    ):
        if tracer.named(layer):
            out[f"{layer}_s"] = (secs(layer), "s")
    for plan in ("base", "view"):
        out[f"spark.jobs_{plan}"] = (counter(f"pass.{plan}", "jobs"), "count")
        out[f"spark.tasks_{plan}"] = (counter(f"pass.{plan}", "tasks"), "count")
        out[f"spark.shuffle_mb_{plan}"] = (
            counter(f"pass.{plan}", "shuffle_bytes") / MB, "MB"
        )
    for name, v in probes(p, tracer).items():
        out[name] = (v, "s" if name.endswith("_s") else "count")
    out["spark.cached_mb_end"] = (tracer.counters()["storage_bytes"] / MB, "MB")
    return out


if __name__ == "__main__":
    sys.exit(main())
