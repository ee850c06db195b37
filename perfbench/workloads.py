"""The benchmark's workloads: set-up, Kaskade preparation, query mix and
per-layer probes, each a sequence of calls into the program's public
functions.

Every lazy DataFrame a timed call returns is forced inside the timer by
:func:`checksum`: row count plus ``sum(xxhash64(all columns))``, which is
independent of row order and, unlike ``count()``, keeps every column
alive so Catalyst cannot prune work the query asked for.

- ``prov-kaskade``: the whole Kaskade loop on the provenance graph
  (summarizer, stats, enumeration, knapsack selection, rewriting,
  connector), then Q1 on the summarized graph and on the chosen view.
- ``roadnet-lpa``: the road graph with the forced ≤2-hop connector; Q5,
  Q6 (no rewriting) and Q7 then Q8 (label propagation, half the rounds
  on the view).
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core.cost import CostModel
from repro.core.enumerator import ConnectorCandidate, ViewEnumerator
from repro.core.estimator import collect_stats, estimate_khop_paths
from repro.core.pattern import PatternVertex, QueryPattern, VarLengthPath
from repro.core.rewriter import best_rewriting, rewrite_with_connector
from repro.core.selection import ViewSelector
from repro.datasets import prov_raw, roadnet
from repro.engine.pattern_exec import execute_pattern
from repro.engine.traversal import khop_pairs, khop_pairs_with_max, var_length_pairs
from repro.views.algorithms import label_propagation, largest_community
from repro.views.connectors import khop_connector, materialize, upto_khop_connector
from repro.views.summarizers import keep_vertex_types
from repro.workload.queries import (
    homogeneous_spec,
    prov_spec,
    q1_blast_radius,
    q1_blast_radius_view,
    q1_pattern,
    q5_edge_count,
    q6_vertex_count,
    q7_communities,
    q8_largest_community,
)

# Dataset scales and label-propagation rounds. The repository's "bench"
# profile (scale 1.0, 12 rounds) needs minutes per pass on four cores;
# at these sizes a whole run takes about a minute, and each pass still
# runs every Spark job of the bench-scale pass.
PROV_SCALE = 0.25
ROADNET_SCALE = 0.25
LPA_ROUNDS = 2  # baseline; the view runs half (§ VII-C)
MAX_HOPS = 4  # Q2–Q4's hop bound (queries.py default)
Q1_MID_HOPS = 2  # Lst. 1 uses 8; 2 leaves a file path of *0..2, *1..2 on the view
ALPHA = 95  # the paper's degree percentile (§ V-A)
# Space budget as a multiple of |E|, the default of
# repro.workload.experiments.end_to_end_selection_rows.
BUDGET_FRAC = 200.0


class CheckFailed(Exception):
    """A result differs from its check."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def checksum(df: DataFrame) -> tuple[int, int]:
    """(rows, sum of xxhash64 over all columns), forcing ``df`` fully.
    Doubles are rounded to 6 places first, so that plans summing floats
    in another order give the same checksum."""
    cols = [
        F.round(F.col(f.name), 6) if isinstance(f.dataType, T.DoubleType)
        else F.col(f.name)
        for f in df.schema.fields
    ]
    row = df.agg(
        F.count(F.lit(1)).alias("n"),
        F.sum(F.xxhash64(*cols).cast("decimal(38,0)")).alias("h"),
    ).collect()[0]
    return int(row["n"]), int(row["h"] or 0)


def plan_bytes(df: DataFrame) -> int:
    """Catalyst's ``sizeInBytes`` of ``df``'s optimized plan; for a
    persisted and materialized DataFrame, its in-memory size."""
    return int(df._jdf.queryExecution().optimizedPlan().stats().sizeInBytes())


def timed(tracer, name: str, fn):
    """Run ``fn`` inside a span; returns (result, seconds)."""
    with tracer.span(name):
        t0 = time.perf_counter()
        out = fn()
        return out, time.perf_counter() - t0


@dataclass
class Prepared:
    """What preparation hands to the query mix and the probes."""

    base: object  # PropertyGraph the baseline plan runs on
    view: object  # the materialized connector
    stats: object
    candidates: int
    chosen: int
    anchor: str | None  # vertex type Q8 counts
    pattern_base: QueryPattern  # the pattern selection was asked about
    pattern_view: QueryPattern  # the same pattern over the view
    owned: list  # graphs preparation materialized

    def release(self) -> None:
        for g in self.owned:
            g.unpersist()


@dataclass
class Step:
    """One query of the mix. ``run(plan, prepared, scratch)`` is timed and
    returns the value to check; ``same`` means the view plan must return
    exactly the baseline's result (§ V-C); ``verify(plan, prepared,
    value)``, untimed, raises :class:`CheckFailed` on a wrong value."""

    name: str
    run: Callable
    same: bool
    verify: Callable | None = None


@dataclass
class Workload:
    name: str
    generate: Callable  # (spark, seed) -> pinned PropertyGraph
    prepare: Callable  # (graph, tracer) -> Prepared
    steps: list[Step]
    params: dict


def _select(stats, schema, pattern, tracer):
    """Enumerate, price and knapsack-select views for ``pattern``."""
    enum = ViewEnumerator(schema)
    cands, _ = timed(tracer, "enumerator.enumerate", lambda: enum.enumerate(pattern))
    cm = CostModel(schema=schema, alpha=ALPHA)
    res, _ = timed(
        tracer,
        "selection.select",
        lambda: ViewSelector(enum, cm).select(
            [pattern], stats, budget=BUDGET_FRAC * stats.n_edges
        ),
    )
    return cands, res, cm


def _graph(plan: str, p: Prepared):
    return p.base if plan == "base" else p.view


# ---------------------------------------------------------------------------
# prov-kaskade
# ---------------------------------------------------------------------------

PROV = prov_spec()


def _prov_generate(spark, seed: int):
    return materialize(prov_raw(spark, scale=PROV_SCALE, seed=seed))


def _prov_prepare(raw, tracer) -> Prepared:
    summ, _ = timed(
        tracer,
        "summarizers.keep_vertex_types",
        lambda: materialize(keep_vertex_types(raw, {"Job", "File"})),
    )
    stats, _ = timed(tracer, "estimator.collect_stats", lambda: collect_stats(summ))
    pattern = q1_pattern(PROV, Q1_MID_HOPS)
    cands, res, cm = _select(stats, PROV.schema, pattern, tracer)
    want = ConnectorCandidate("q_j1", "q_j2", "Job", "Job", 2)
    check(res.chosen == [want], f"selection chose {res.chosen}, expected {want}")
    rw, _ = timed(
        tracer,
        "rewriter.rewrite",
        lambda: best_rewriting(
            pattern, res.chosen, PROV.schema, lambda r: cm.rewritten_eval_cost(stats, r)
        ),
    )
    check(rw is not None and rw.view == want, "Q1 must rewrite over the 2-hop Job connector")
    conn, _ = timed(
        tracer,
        "connectors.materialize",
        lambda: materialize(khop_connector(summ, want.k, want.src_type, want.dst_type)),
    )
    return Prepared(
        base=summ, view=conn, stats=stats, candidates=len(cands),
        chosen=len(res.chosen), anchor="Job",
        pattern_base=pattern, pattern_view=rw.rewritten, owned=[summ, conn],
    )


def _q1(plan: str, p: Prepared, scratch):
    if plan == "base":
        return checksum(q1_blast_radius(p.base, PROV, Q1_MID_HOPS))
    return checksum(q1_blast_radius_view(p.view, PROV, Q1_MID_HOPS))


PROV_KASKADE = Workload(
    name="prov-kaskade",
    generate=_prov_generate,
    prepare=_prov_prepare,
    steps=[Step("q1", _q1, True)],
    params={"dataset": "prov_raw", "scale": PROV_SCALE, "summarizer": ["Job", "File"],
            "q1_mid_hops": Q1_MID_HOPS, "alpha": ALPHA, "budget_frac": BUDGET_FRAC},
)


# ---------------------------------------------------------------------------
# roadnet-lpa
# ---------------------------------------------------------------------------

ROAD = homogeneous_spec("roadnet")


def _reach_pattern(max_hops: int) -> QueryPattern:
    """Q2's ≤max_hops reachability on a one-type graph."""
    return QueryPattern(
        vertices=(PatternVertex("a", "Vertex"), PatternVertex("b", "Vertex")),
        edges=(),
        paths=(VarLengthPath("a", "b", 1, max_hops, None),),
        returns=(("a", "v"), ("b", "w")),
    )


def _road_generate(spark, seed: int):
    return materialize(roadnet(spark, scale=ROADNET_SCALE, seed=seed))


def _road_prepare(g, tracer) -> Prepared:
    """No summarizer applies to a one-type graph. Selection and the
    rewriter are asked about reachability and their answers recorded;
    the ≤2-hop connector is Fig. 7's forced view, built regardless."""
    stats, _ = timed(tracer, "estimator.collect_stats", lambda: collect_stats(g))
    pattern = _reach_pattern(MAX_HOPS)
    cands, res, _ = _select(stats, ROAD.schema, pattern, tracer)
    timed(
        tracer,
        "rewriter.rewrite",
        lambda: rewrite_with_connector(
            pattern, ConnectorCandidate("a", "b", "Vertex", "Vertex", 2), ROAD.schema
        ),
    )
    conn, _ = timed(
        tracer, "connectors.materialize", lambda: materialize(upto_khop_connector(g, 2))
    )
    return Prepared(
        base=g, view=conn, stats=stats, candidates=len(cands),
        chosen=len(res.chosen), anchor=None,
        pattern_base=pattern, pattern_view=_reach_pattern(MAX_HOPS // 2), owned=[conn],
    )


def _rounds(plan: str) -> int:
    return LPA_ROUNDS if plan == "base" else LPA_ROUNDS // 2


def _q5(plan: str, p: Prepared, scratch):
    return checksum(q5_edge_count(p.base))


def _q6(plan: str, p: Prepared, scratch):
    return checksum(q6_vertex_count(p.base))


def _q7(plan: str, p: Prepared, scratch):
    g = _graph(plan, p)
    labels = q7_communities(g, _rounds(plan))
    row = labels.agg(
        F.count(F.lit(1)).alias("n"),
        F.countDistinct("id").alias("ids"),
        F.sum(F.xxhash64("id", "community").cast("decimal(38,0)")).alias("h"),
    ).collect()[0]
    scratch["labels"] = labels
    return int(row["n"]), int(row["ids"]), int(row["h"])


def _q7_covers(plan: str, p: Prepared, value) -> None:
    rows, ids, _ = value
    n = _graph(plan, p).vertex_count()
    check(rows == ids == n, f"Q7 labels {rows} rows, {ids} ids for {n} vertices")


def _q8(plan: str, p: Prepared, scratch):
    (row,) = q8_largest_community(scratch.pop("labels"), _graph(plan, p), ROAD).collect()
    return tuple(row)


def _q8_nonempty(plan: str, p: Prepared, value) -> None:
    check(value[1] >= 1, f"Q8 community {value[0]} has no vertices")


ROADNET_LPA = Workload(
    name="roadnet-lpa",
    generate=_road_generate,
    prepare=_road_prepare,
    steps=[
        Step("q5", _q5, True),
        Step("q6", _q6, True),
        Step("q7", _q7, False, _q7_covers),
        Step("q8", _q8, False, _q8_nonempty),
    ],
    params={"dataset": "roadnet", "scale": ROADNET_SCALE, "lpa_rounds_base": LPA_ROUNDS,
            "lpa_rounds_view": LPA_ROUNDS // 2, "view": "upto_khop_connector(k=2)",
            "alpha": ALPHA, "budget_frac": BUDGET_FRAC},
)

WORKLOADS = {w.name: w for w in (PROV_KASKADE, ROADNET_LPA)}


# ---------------------------------------------------------------------------
# Per-layer probes (traced runs only)
# ---------------------------------------------------------------------------


def probes(p: Prepared, tracer) -> dict[str, float]:
    """Direct calls into each engine layer on both plans' graphs, timed
    with their results forced:

    - ``pattern_exec``: the pattern selection was asked about, and its
      form over the view;
    - ``traversal``: Q2's reachability and Q4's max-``ts`` paths within
      ``MAX_HOPS`` (half on the view), and the distinct k-hop pairs
      (``khop_pairs``) next to the Eq. 2/3 estimate for k = 1..4;
    - ``algorithms``: label propagation (0 rounds, the baseline's and
      the view's) and the largest community with its subgraph.
    """
    out: dict[str, float] = {}
    for plan, pattern, hops in (
        ("base", p.pattern_base, MAX_HOPS),
        ("view", p.pattern_view, MAX_HOPS // 2),
    ):
        g = _graph(plan, p)
        for name, fn in (
            ("pattern_exec.pattern", lambda: execute_pattern(g, pattern)),
            ("traversal.reach", lambda: var_length_pairs(g.edges, 1, hops)),
            ("traversal.maxpath", lambda: khop_pairs_with_max(g.edges, 1, hops)),
        ):
            _, out[f"{name}_{plan}_s"] = timed(
                tracer, f"{name}_{plan}", lambda: checksum(fn())
            )
    for k in range(1, MAX_HOPS + 1):
        out[f"estimator.hop{k}_est"] = estimate_khop_paths(p.stats, k, ALPHA)
        out[f"traversal.hop{k}_rows"], _ = timed(
            tracer, f"traversal.hop{k}", lambda: khop_pairs(p.base.edges, k).count()
        )
    _, lpa0 = timed(tracer, "algorithms.lpa_zero", lambda: label_propagation(p.base, 0))
    for plan in ("base", "view"):
        g = _graph(plan, p)
        labels, out[f"algorithms.lpa_{plan}_s"] = timed(
            tracer, f"algorithms.lpa_{plan}", lambda: label_propagation(g, _rounds(plan))
        )
        out[f"algorithms.communities_{plan}"] = labels.select("community").distinct().count()

        def q8():
            _, sub = largest_community(labels, g, p.anchor)
            return sub.vertex_count(), sub.edge_count()

        _, out[f"algorithms.q8_{plan}_s"] = timed(tracer, f"algorithms.q8_{plan}", q8)
    out["algorithms.lpa_iter_s"] = (out["algorithms.lpa_base_s"] - lpa0) / LPA_ROUNDS
    return out
