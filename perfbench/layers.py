"""Which program functions the traced run wraps, and the per-layer metrics
read from their arguments and results.

Every layer is a module of ``repro``; each wrapper times the function
where ``simpush_local`` / ``simpush_df`` look it up (a module attribute).
Counts are taken after the span closes, and the costlier ones (the live
share of ``G_u``, Spark job counts) after the whole query, so they do not
add to any layer's self time.
"""
from __future__ import annotations

import functools
import inspect
import statistics

import numpy as np

from spans import Tracer

# (module, function, span name). Span names are the metric prefixes; the
# two Reverse-Push entry points share one.
LOCAL_LAYERS = [
    ("repro.core.walks", "detect_L", "walks"),
    ("repro.core.source_push", "source_push", "source_push"),
    ("repro.core.hitting", "attention_hitting_matrix", "hitting"),
    ("repro.core.last_meeting", "gammas", "last_meeting"),
    ("repro.core.reverse_push", "seed_residues", "reverse_push"),
    ("repro.core.reverse_push", "reverse_push", "reverse_push"),
]
DF_LAYERS = [
    ("repro.core.simpush", "detect_L_df", "df.detect_L_df"),
    ("repro.core.simpush", "source_push_df", "df.source_push_df"),
    ("repro.core.simpush", "hitting_df", "df.hitting_df"),
    ("repro.core.simpush", "reverse_push_df", "df.reverse_push_df"),
]
QUERY = "query"
# Per-query self-time metrics: span name -> metric name.
SELF_TIMES = {
    "walks": "walks.ms", "source_push": "source_push.ms",
    "hitting": "hitting.ms", "last_meeting": "last_meeting.ms",
    "reverse_push": "reverse_push.ms",
    "df.detect_L_df": "df.detect_L_df.ms",
    "df.source_push_df": "df.source_push_df.ms",
    "df.hitting_df": "df.hitting_df.ms",
    "df.reverse_push_df": "df.reverse_push_df.ms",
}


@functools.lru_cache(maxsize=None)
def _signature(fn) -> inspect.Signature:
    return inspect.signature(fn)


def _bound(fn, args, kwargs) -> dict:
    try:
        return _signature(fn).bind(*args, **kwargs).arguments
    except TypeError:
        return {}


def live_edge_ratio(gu, att) -> float | None:
    """Share of ``G_u`` edges whose child lies on a path (deeper, inside
    ``G_u``) to an attention target, i.e. edges Alg. 3 pushes a nonzero
    value along. Targets are attention entries at levels >= 2."""
    total = gu.n_edges
    if total == 0:
        return None
    live, fed = 0, np.zeros(0, dtype=np.int64)
    for lvl in range(gu.L, 0, -1):
        targets = att.nodes[att.levels == lvl] if lvl >= 2 else fed[:0]
        live_here = np.union1d(targets, fed)
        children, parents = gu.edges[lvl - 1]
        mask = np.isin(children, live_here)
        live += int(mask.sum())
        fed = np.unique(parents[mask])
    return live / total


class LayerProbe:
    """Installs the wrappers and turns spans and counts into metrics."""

    def __init__(self, tracer: Tracer, spark=None) -> None:
        self.tracer = tracer
        self.spark = spark
        self.stats: dict[int, dict] = {}

    def _q(self) -> dict:
        return self.stats.setdefault(self.tracer.qid, {})

    # ------------------------------------------------------------ install
    def install(self) -> None:
        t = self.tracer
        hooks = {"walks": self._after_walks,
                 "source_push": self._after_source_push,
                 "hitting": self._after_hitting}
        for module, fn, span in LOCAL_LAYERS:
            t.wrap(module, fn, span, after=hooks.get(span))
        t.wrap("repro.graphs.csr", "CSRGraph.push_to_out_neighbors", None,
               after=self._after_out_push)
        if self.spark is not None:
            for module, fn, span in DF_LAYERS:
                t.wrap(module, fn, span, before=self._job_group(span),
                       after=self._back_to_driver)

    def _after_walks(self, fn, args, kwargs, result, span) -> None:
        q = self._q()
        params = _bound(fn, args, kwargs).get("params")
        if params is not None:
            q["walks.n_walks"] = params.n_walks
        q["walks.L"] = int(result[0])

    def _after_source_push(self, fn, args, kwargs, result, span) -> None:
        q = self._q()
        gu, att = result
        q["source_push.gu_nodes"] = gu.n_nodes
        if hasattr(gu, "edges"):
            q["source_push.gu_edges"] = gu.n_edges
        q["source_push.attention"] = att.size
        q["_deepest"] = int(att.levels.max()) if att.size else 0

    def _after_hitting(self, fn, args, kwargs, result, span) -> None:
        b = _bound(fn, args, kwargs)
        if hasattr(b.get("gu"), "edges") and b.get("att") is not None:
            self._q()["_live"] = (b["gu"], b["att"])

    def _after_out_push(self, fn, args, kwargs, result, span) -> None:
        if self.tracer.current != "reverse_push":
            return
        b = _bound(fn, args, kwargs)
        g, active = b["self"], b.get("active")
        if active is None:
            active = np.flatnonzero(b["r"])
        q = self._q()
        q["reverse_push.edges_pushed"] = (q.get("reverse_push.edges_pushed", 0)
                                          + int(g.out_deg[active].sum()))

    def _group(self, name: str) -> str:
        return f"q{self.tracer.qid}:{name}"

    def _job_group(self, name: str):
        def before() -> None:
            self.spark.sparkContext.setJobGroup(self._group(name), name)
        return before

    def _back_to_driver(self, fn, args, kwargs, result, span) -> None:
        self.spark.sparkContext.setJobGroup(self._group("driver"), "driver")

    # ------------------------------------------------------------- queries
    def start_query(self) -> None:
        if self.spark is not None:
            self._back_to_driver(None, (), {}, None, None)

    def finish_query(self) -> None:
        """Derive the per-query figures that need the whole query."""
        q = self._q()
        live = q.pop("_live", None)
        if live is not None:
            ratio = live_edge_ratio(*live)
            if ratio is not None:
                q["hitting.live_edge_ratio"] = ratio
        deepest = q.pop("_deepest", None)
        if deepest is not None and q.get("walks.L", 0) > 0:
            q["walks.useful_level_ratio"] = deepest / q["walks.L"]
        if self.spark is not None:
            q.update(self._spark_counts())

    def _spark_counts(self) -> dict:
        sc = self.spark.sparkContext
        try:  # let the status store see the last job's events
            sc._jsc.sc().listenerBus().waitUntilEmpty()
        except Exception:  # noqa: BLE001 - internal API; counts may lag
            pass
        st = sc.statusTracker()
        prefix = self._group("")
        per_group: dict[str, int] = {}
        jobs = stages = tasks = failed = 0
        for name in ["driver"] + [s for _, _, s in DF_LAYERS]:
            ids = st.getJobIdsForGroup(prefix + name)
            per_group[name] = len(ids)
            jobs += len(ids)
            for j in ids:
                info = st.getJobInfo(j)
                for sid in (info.stageIds if info else []):
                    si = st.getStageInfo(sid)
                    if si is None or si.numCompletedTasks + si.numFailedTasks == 0:
                        continue  # skipped: its shuffle output was reused
                    stages += 1
                    tasks += si.numCompletedTasks + si.numFailedTasks
                    failed += si.numFailedTasks
        per_group[QUERY] = per_group.pop("driver")
        for span in self.tracer.spans:
            if span.qid == self.tracer.qid and span.name in per_group:
                span.attrs["jobs"] = per_group[span.name]
        return {"df.jobs": jobs, "df.stages": stages, "df.tasks": tasks,
                "df.failed_tasks": failed}

    # ------------------------------------------------------------- metrics
    def metrics(self, qids: list[int]) -> dict[str, float]:
        """Per-query medians over ``qids`` of every recorded figure."""
        per: dict[str, list[float]] = {}
        for qid in qids:
            selfs = self.tracer.self_ms(qid)
            q = dict(self.stats.get(qid, {}))
            total = sum(s.ms for s in self.tracer.spans
                        if s.qid == qid and s.name == QUERY)
            for span, metric in SELF_TIMES.items():
                q[metric] = selfs.get(span, 0.0)
            q["trace.query_ms"] = total
            if total > 0:
                q["trace.coverage"] = 1.0 - selfs.get(QUERY, 0.0) / total
            if self.spark is not None:
                q["df.driver.ms"] = selfs.get(QUERY, 0.0)
            for k, v in q.items():
                per.setdefault(k, []).append(float(v))
        return {k: statistics.median(v) for k, v in per.items()}
