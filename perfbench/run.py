"""SimPush query benchmark: closed-loop, single-client workloads.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Each run sets up one workload (graph, engine), runs warm-up queries, then
sends one query at a time for ``--seconds`` seconds, in whole rounds over
the workload's query list. Every answer is checked against a computation
made apart from SimPush (``truth.py``). The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` —
the end-to-end metrics with ``--trace 0``, the per-layer metrics (from
spans around each layer's functions, ``layers.py``) with ``--trace 1``.
Run it from the root of a checkout; see perfbench/README.md.
"""
from __future__ import annotations

import os

# One BLAS / OpenMP thread: the figures then do not depend on what else the
# machine runs. Must be set before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, fields  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

C, DELTA, TOP_K = 0.6, 1e-4, 50
DEFAULT_SEED = 2020
LIST_SEED = 7            # draws each workload's query nodes (fixed)
DIRTY_SEED = 11          # draws the dirty edge list (fixed)
SPARK_CORES = 4
POOL, PAIR_SAMPLES = 80, 8000   # twitter-coarse pooling: candidates, pairs
KNOWN_FAULT = ("GraphFrames.build keeps duplicate edges and self-loops, "
               "which csr.from_edges drops")


@dataclass(frozen=True)
class Workload:
    dataset: str
    eps: float
    engine: str          # "local" (simpush_local) or "df" (simpush_df)
    n_queries: int       # distinct query nodes; one round runs each once
    warmup: int          # untimed queries before the timed loop
    setup_repeats: int   # set-ups per run; setup_s is their median


WORKLOADS = {
    "web-in2004": Workload("in2004_analog", 0.05, "local", 24, 4, 20),
    "social-pokec": Workload("pokec_analog", 0.025, "local", 6, 2, 20),
    "twitter-coarse": Workload("twitter_analog", 0.2, "local", 16, 4, 6),
    "df-in2004": Workload("in2004_analog", 0.1, "df", 1, 1, 1),
}

END_TO_END = {"setup_s": "s", "query_ms.p50": "ms", "queries_per_s": "1/s",
              "avg_error_at_50": "score", "precision_at_50": "fraction",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "graphs.generate_s": "s", "graphs.csr_build_s": "s", "graphs.csr_mb": "MB",
    "walks.ms": "ms", "walks.n_walks": "count", "walks.L": "levels",
    "walks.useful_level_ratio": "ratio",
    "source_push.ms": "ms", "source_push.gu_nodes": "count",
    "source_push.gu_edges": "count", "source_push.attention": "count",
    "hitting.ms": "ms", "hitting.live_edge_ratio": "ratio",
    "last_meeting.ms": "ms",
    "reverse_push.ms": "ms", "reverse_push.edges_pushed": "count",
    "df.detect_L_df.ms": "ms", "df.source_push_df.ms": "ms",
    "df.hitting_df.ms": "ms", "df.reverse_push_df.ms": "ms",
    "df.driver.ms": "ms", "df.jobs": "count", "df.stages": "count",
    "df.tasks": "count", "df.failed_tasks": "count",
    "df.graphframes_build_s": "s",
    "trace.query_ms": "ms", "trace.coverage": "ratio",
}
# Share of a traced local query that the layers' self times must cover.
COVERAGE_TOLERANCE = 0.05


# ------------------------------------------------------------------ oracles
@dataclass
class Check:
    ok: bool
    why: str
    avg_error: float
    precision: float


class ExactOracle:
    """Rows of the exact SimRank matrix; Theorem 1: -1e-9 <= s - s~ <= eps."""

    def __init__(self, g, dataset: str, eps: float, nodes) -> None:
        import truth
        diag = truth.load_diag(dataset, g)
        nodes = sorted(set(nodes))
        self.rows = dict(zip(nodes, truth.exact_rows(g, diag, nodes)))
        self.eps = eps

    def check(self, u: int, scores) -> Check:
        from repro.eval import metrics
        row = self.rows[u]
        diff = row - scores
        vk = metrics.top_k(row, u, TOP_K)
        why = ""
        if scores[u] != 1.0:
            why = f"s~(u,u) = {scores[u]!r}"
        elif diff.min() < -1e-9:
            why = f"s~ exceeds exact s by {-diff.min():.4g}"
        elif diff.max() > self.eps:
            why = f"s - s~ = {diff.max():.4g} > eps"
        return Check(not why, why, metrics.avg_error_at_k(scores, row, vk),
                     metrics.precision_at_k(scores, u, vk))


class PairWalkOracle:
    """The paper's pooling: SimPush's top POOL nodes scored by coupled
    pair walks; each pooled node must satisfy Theorem 1 widened by the
    Hoeffding slack of its estimate."""

    def __init__(self, g, eps: float) -> None:
        import truth
        self.g, self.eps = g, eps
        self.slack = truth.pairwalk_slack(PAIR_SAMPLES)
        self.memo: dict[tuple, object] = {}

    def check(self, u: int, scores) -> Check:
        from repro.eval import metrics
        pool = metrics.top_k(scores, u, POOL)
        key = (u, pool.tobytes())
        if key not in self.memo:
            self.memo[key] = metrics.pooled_ground_truth(
                self.g, u, [scores], POOL, c=C, n_samples=PAIR_SAMPLES, seed=u)
        gt = self.memo[key]
        diff = gt.scores[pool] - scores[pool]
        why = ""
        if scores[u] != 1.0:
            why = f"s~(u,u) = {scores[u]!r}"
        elif diff.min() < -self.slack:
            why = f"s~ exceeds the pair-walk estimate by {-diff.min():.4g}"
        elif diff.max() > self.eps + self.slack:
            why = f"pair-walk s - s~ = {diff.max():.4g} > eps + slack"
        vk = gt.vk[:TOP_K]
        return Check(not why, why, metrics.avg_error_at_k(scores, gt.scores, vk),
                     metrics.precision_at_k(scores, u, vk))


# ---------------------------------------------------------------- the loop
@dataclass
class Op:
    label: str
    u: int
    run: object          # () -> scores as a dense numpy vector
    oracle: object
    expect_fail: bool = False


@dataclass
class Outcome:
    op: Op
    ms: float
    check: Check


def query_list(g, w: Workload, seed: int) -> list[tuple[int, int]]:
    """The workload's query nodes, each with the seed of its MC walks.

    The nodes are fixed (drawn with LIST_SEED from nodes with an
    in-neighbour), so runs with different seeds time the same work; the
    walk seeds are drawn from ``seed``."""
    import numpy as np
    cand = np.flatnonzero(g.in_deg > 0)
    nodes = np.random.default_rng(LIST_SEED).choice(cand, w.n_queries,
                                                    replace=False)
    walk_seeds = np.random.default_rng(seed).integers(0, 2**31 - 1, w.n_queries)
    return [(int(u), int(s)) for u, s in zip(nodes, walk_seeds)]


def timed_loop(ops: list[Op], seconds: float, tracer, probe) -> tuple[list, float]:
    """Run whole rounds of ``ops`` until ``seconds`` of query time have
    passed. Checking and trace bookkeeping are paused out of the clock."""
    outcomes: list[Outcome] = []
    paused = 0.0
    start = time.perf_counter()
    while True:
        for op in ops:
            if tracer is not None:
                tracer.qid = len(outcomes)
                probe.start_query()
                idx = tracer.open("query", label=op.label, u=op.u)
            t0 = time.perf_counter()
            scores = op.run()
            ms = (time.perf_counter() - t0) * 1e3
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.close(idx)
                probe.finish_query()
            outcomes.append(Outcome(op, ms, op.oracle.check(op.u, scores)))
            paused += time.perf_counter() - t1
        if time.perf_counter() - start - paused >= seconds:
            return outcomes, time.perf_counter() - start - paused


# --------------------------------------------------------------- workloads
def make_graph(dataset: str):
    from repro.graphs import datasets
    from repro.graphs.csr import from_edges
    t0 = time.perf_counter()
    src, dst, spec = datasets.edge_arrays(dataset)
    t1 = time.perf_counter()
    g = from_edges(src, dst, n=spec.n)
    return g, t1 - t0, time.perf_counter() - t1


@dataclass
class RunResult:
    g: object
    setup: dict          # per-repeat timings: setup, gen, csr[, build]
    probe: object        # LayerProbe, or None when untraced
    warm_checks: list
    outcomes: list
    wall: float          # seconds of the timed loop, checks excluded


def run_local(w: Workload, seed: int, seconds: float, tracer) -> RunResult:
    from layers import LayerProbe
    from repro.core.simpush_local import simpush_local
    setup = {"setup": [], "gen": [], "csr": []}

    def set_up(times: int):
        for _ in range(times):
            t0 = time.perf_counter()
            g, gen_s, csr_s = make_graph(w.dataset)
            setup["setup"].append(time.perf_counter() - t0)
            setup["gen"].append(gen_s)
            setup["csr"].append(csr_s)
        return g

    # Half the set-ups run before the timed loop and half after it, so
    # their median spans the run rather than one moment of it.
    g = set_up(w.setup_repeats - w.setup_repeats // 2)
    queries = query_list(g, w, seed)
    if w.dataset in ("in2004_analog", "pokec_analog"):
        oracle = ExactOracle(g, w.dataset, w.eps, [u for u, _ in queries])
    else:
        oracle = PairWalkOracle(g, w.eps)

    def query(u, s):
        return lambda: simpush_local(g, u, c=C, eps=w.eps, delta=DELTA,
                                     seed=s).scores

    ops = [Op("query", u, query(u, s), oracle) for u, s in queries]
    warm = [ops[i % len(ops)] for i in range(w.warmup)]
    warm_checks = [op.oracle.check(op.u, op.run()) for op in warm]
    probe = LayerProbe(tracer) if tracer is not None else None
    if probe is not None:
        probe.install()
    outcomes, wall = timed_loop(ops, seconds, tracer, probe)
    set_up(w.setup_repeats // 2)
    return RunResult(g, setup, probe, warm_checks, outcomes, wall)


def start_spark():
    """Local Spark matching the test suite's session: local[4], 64 shuffle
    partitions, broadcast joins off. All scratch files stay under OUT."""
    scratch = OUT / "spark"
    scratch.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(scratch)
    os.environ["SPARK_LOCAL_DIRS"] = str(scratch)
    # Read by every JVM spark-submit starts, the launcher's included.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={scratch} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{SPARK_CORES}]", "--driver-memory 2g",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        "pyspark-shell"])
    from pyspark.sql import SparkSession
    spark = (SparkSession.builder.appName("perfbench")
             .config("spark.sql.shuffle.partitions", "64")
             .config("spark.sql.execution.arrow.pyspark.enabled", "true")
             .config("spark.sql.autoBroadcastJoinThreshold", -1)
             .config("spark.sql.warehouse.dir", str(scratch / "warehouse"))
             .getOrCreate())
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop Spark and wait for its JVM to exit."""
    from pyspark import SparkContext
    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()       # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def build_frames(spark, src, dst):
    """The edge DataFrame and its ``GraphFrames.build``, with every cached
    frame materialised."""
    import pandas as pd
    from pyspark.sql import DataFrame
    from repro.core.simpush import GraphFrames
    edges = spark.createDataFrame(pd.DataFrame({"src": src, "dst": dst}))
    gf = GraphFrames.build(edges)
    for f in fields(gf):
        frame = getattr(gf, f.name)
        if isinstance(frame, DataFrame):
            frame.count()
    return edges, gf


def dirty_edges(g):
    """The graph's edge list as a user might hand it over: 5% of edges
    repeated and 30 self-loops added (fixed draw, independent of --seed)."""
    import numpy as np
    src = np.repeat(np.arange(g.n, dtype=np.int64), g.out_deg)
    dst = g.out_idx
    rng = np.random.default_rng(DIRTY_SEED)
    dup = rng.choice(src.size, src.size // 20, replace=False)
    loops = rng.choice(g.n, 30, replace=False)
    return (np.concatenate([src, src[dup], loops]),
            np.concatenate([dst, dst[dup], loops]))


def run_df(w: Workload, seed: int, seconds: float, tracer) -> RunResult:
    import numpy as np
    import pandas as pd
    from layers import LayerProbe
    from repro.core.simpush import simpush_df
    t0 = time.perf_counter()
    spark = start_spark()
    try:
        g, gen_s, csr_s = make_graph(w.dataset)
        src = np.repeat(np.arange(g.n, dtype=np.int64), g.out_deg)
        tb = time.perf_counter()
        edges, gf = build_frames(spark, src, g.out_idx)
        build_s = time.perf_counter() - tb
        dirty_src, dirty_dst = dirty_edges(g)
        dirty = spark.createDataFrame(pd.DataFrame({"src": dirty_src,
                                                    "dst": dirty_dst}))
        queries = query_list(g, w, seed)

        def query(frame, u, s, frames=None):
            def run():
                pdf = simpush_df(spark, frame, u, c=C, eps=w.eps, delta=DELTA,
                                 seed=s, gf=frames).toPandas()
                scores = np.zeros(g.n)
                scores[pdf["v"].to_numpy(np.int64)] = pdf["s"].to_numpy()
                return scores
            return run

        warm = [queries[i % len(queries)] for i in range(w.warmup)]
        warm_out = [query(edges, u, s, gf)() for u, s in warm]
        setup_s = time.perf_counter() - t0
        oracle = ExactOracle(g, w.dataset, w.eps, [u for u, _ in queries])
        warm_checks = [oracle.check(u, out) for (u, _), out in zip(warm, warm_out)]
        ops = [Op("query", u, query(edges, u, s, gf), oracle) for u, s in queries]
        # One dirty-input query per round, on the first query node, given
        # the raw edge list as a user would (simpush_df builds its frames).
        u = queries[0][0]
        ops.append(Op("dirty-input", u, query(dirty, u, DIRTY_SEED), oracle, True))
        probe = LayerProbe(tracer, spark) if tracer is not None else None
        if probe is not None:
            probe.install()
        outcomes, wall = timed_loop(ops, seconds, tracer, probe)
    finally:
        stop_spark(spark)
    setup = {"setup": [setup_s], "gen": [gen_s], "csr": [csr_s],
             "build": [build_s]}
    return RunResult(g, setup, probe, warm_checks, outcomes, wall)


# ------------------------------------------------------------------ report
def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: {ROOT / 'src' / 'repro'} not found; run from the "
              "root of a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)

    from spans import Tracer
    w = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    run = run_df if w.engine == "df" else run_local
    r = run(w, args.seed, args.seconds, tracer)
    if tracer is not None:
        tracer.restore()
    outcomes, setup = r.outcomes, r.setup

    failed = [o for o in outcomes if not o.check.ok]
    correct = (all(o.op.expect_fail for o in failed)
               and all(c.ok for c in r.warm_checks))
    for o in {(o.op.label, o.op.u, o.check.why): o for o in failed}.values():
        note = f" (known fault: {KNOWN_FAULT})" if o.op.expect_fail else ""
        print(f"failed: {args.workload} {o.op.label} u={o.op.u}: "
              f"{o.check.why}{note}")
    for c in r.warm_checks:
        if not c.ok:
            print(f"failed: {args.workload} warm-up query: {c.why}")
    good = [o for o in outcomes if o.check.ok]
    times = sorted(o.ms for o in good)

    if args.trace:
        units = PER_LAYER
        m = dict.fromkeys(PER_LAYER, 0.0)
        traced = r.probe.metrics([i for i, o in enumerate(outcomes) if o.check.ok])
        m.update({k: v for k, v in traced.items() if k in m})
        m["graphs.generate_s"] = statistics.median(setup["gen"])
        m["graphs.csr_build_s"] = statistics.median(setup["csr"])
        m["graphs.csr_mb"] = r.g.nbytes / 1e6
        if "build" in setup:
            m["df.graphframes_build_s"] = statistics.median(setup["build"])
        if w.engine == "local" and m["trace.coverage"] < 1 - COVERAGE_TOLERANCE:
            print(f"trace: layer self times cover only {m['trace.coverage']:.3f} "
                  "of the traced query time")
        if tracer.absent:
            print("absent (not traced): " + ", ".join(tracer.absent))
        path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.dump(path)
        print(f"spans: {path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    else:
        units = END_TO_END
        m = {
            "setup_s": statistics.median(setup["setup"]),
            "query_ms.p50": statistics.median(times) if times else 0.0,
            "queries_per_s": len(outcomes) / r.wall,
            "avg_error_at_50": statistics.fmean(o.check.avg_error for o in good)
            if good else 0.0,
            "precision_at_50": statistics.fmean(o.check.precision for o in good)
            if good else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        if len(times) >= 40:   # tail: the highest percentile with 10 beyond it
            pct = 100.0 * (1 - 10 / len(times))
            print(f"query_ms.tail: p{pct:.1f} = {times[-11]:.3f} ms "
                  f"over {len(times)} queries")
    report = {
        "correct": correct,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in m.items()},
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
