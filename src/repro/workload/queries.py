"""The evaluation workload: queries Q1–Q8 (Table IV), each runnable
over the (summarized) base graph and over a 2-hop connector view.

Dataset-specific knobs live in :class:`WorkloadSpec` (anchor vertex
type and the write/read edge types of the 2-hop pattern; homogeneous
networks have none and use the vertex-to-vertex ≤2-hop connector, see
``repro.views.connectors.upto_khop_connector``).

Equivalences (tested in tests/test_workload.py):

- Q1–Q4 over the connector return exactly the baseline results (§ VII-C
  "these rewritings are equivalent").
- Q5/Q6 need no rewriting (they only count the dataset).
- Q7 runs half as many label-propagation iterations over the connector
  and produces *similar* (not identical) groupings — as in the paper.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, TypeVar

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from ..core.pattern import (
    PatternEdge,
    PatternVertex,
    QueryPattern,
    VarLengthPath,
)
from ..core.rewriter import rewrite_with_connector
from ..core.enumerator import ConnectorCandidate
from ..core.schema import GraphSchema
from ..engine.pattern_exec import execute_pattern, with_vertex_props
from ..engine.property_graph import PropertyGraph
from ..engine.traversal import (
    khop_pairs_with_max,
    restrict_endpoints,
    var_length_pairs,
)
from ..views.algorithms import label_propagation, largest_community
from ..views.connectors import khop_connector, materialize, upto_khop_connector

T = TypeVar("T")


@dataclass(frozen=True)
class WorkloadSpec:
    """How Table IV's queries instantiate on one dataset."""

    name: str
    schema: GraphSchema
    anchor_type: str | None  # Job (prov) / Author (dblp) / None (homog.)
    write_etype: str | None = None
    read_etype: str | None = None

    @property
    def heterogeneous(self) -> bool:
        return self.anchor_type is not None


def prov_spec() -> WorkloadSpec:
    from ..core.schema import PROVENANCE_CORE

    return WorkloadSpec("prov", PROVENANCE_CORE, "Job", "WRITES_TO", "IS_READ_BY")


def dblp_spec() -> WorkloadSpec:
    from ..core.schema import DBLP_CORE

    return WorkloadSpec("dblp", DBLP_CORE, "Author", "WROTE", "WRITTEN_BY")


def homogeneous_spec(name: str) -> WorkloadSpec:
    from ..core.schema import HOMOGENEOUS

    return WorkloadSpec(name, HOMOGENEOUS, None)


# ---------------------------------------------------------------------------
# Connector construction (the view Fig. 7 rewrites over)
# ---------------------------------------------------------------------------


def build_connector(graph: PropertyGraph, spec: WorkloadSpec) -> PropertyGraph:
    """The 2-hop connector of § VII-C: anchor-to-anchor on heterogeneous
    graphs (job-to-job / author-to-author), vertex-to-vertex ≤2-hop on
    homogeneous ones."""
    if spec.heterogeneous:
        view = khop_connector(graph, 2, spec.anchor_type, spec.anchor_type)
    else:
        view = upto_khop_connector(graph, 2)
    return materialize(view)


# ---------------------------------------------------------------------------
# Q1: blast radius
# ---------------------------------------------------------------------------


def q1_pattern(spec: WorkloadSpec, mid_hops: int = 8) -> QueryPattern:
    """The Lst. 1 MATCH clause, parameterized by dataset edge types:
    (a1:T)-[:W]->(m1), (m1)-[r*0..mid]->(m2), (m2)-[:R]->(a2:T)."""
    t = spec.anchor_type
    return QueryPattern(
        vertices=(
            PatternVertex("q_j1", t),
            PatternVertex("q_f1", None),
            PatternVertex("q_f2", None),
            PatternVertex("q_j2", t),
        ),
        edges=(
            PatternEdge("q_j1", "q_f1", spec.write_etype),
            PatternEdge("q_f2", "q_j2", spec.read_etype),
        ),
        paths=(VarLengthPath("q_f1", "q_f2", 0, mid_hops, None),),
        returns=(("q_j1", "A"), ("q_j2", "B")),
    )


def _q1_aggregate(pairs: DataFrame, graph: PropertyGraph) -> DataFrame:
    """The relational tail of Lst. 1: per (A, B) pair T_CPU, then
    AVG(T_CPU) grouped by A's pipeline name."""
    flat = with_vertex_props(pairs, graph, ["A", "B"])
    per_pair = flat.groupBy("A", "A_pname", "B").agg(
        F.sum("B_cpu").alias("T_CPU")
    )
    return (
        per_pair.groupBy("A_pname")
        .agg(F.avg("T_CPU").alias("avg_cpu"))
        .select(F.col("A_pname").alias("pipeline"), "avg_cpu")
    )


def q1_blast_radius(
    graph: PropertyGraph, spec: WorkloadSpec, mid_hops: int = 8
) -> DataFrame:
    """Q1 over the base graph (heterogeneous datasets only)."""
    if not spec.heterogeneous:
        raise ValueError("Q1 is defined on heterogeneous datasets")
    pairs = execute_pattern(graph, q1_pattern(spec, mid_hops))
    return _q1_aggregate(pairs, graph)


def q1_blast_radius_view(
    connector: PropertyGraph, spec: WorkloadSpec, mid_hops: int = 8
) -> DataFrame:
    """Q1 rewritten over the 2-hop connector — the Lst. 4 rewriting,
    produced by the actual rewriter (not hand-coded hops)."""
    cand = ConnectorCandidate("q_j1", "q_j2", spec.anchor_type, spec.anchor_type, 2)
    rw = rewrite_with_connector(q1_pattern(spec, mid_hops), cand, spec.schema)
    if rw is None:  # pragma: no cover - guarded by tests
        raise RuntimeError("2-hop connector rewriting must apply to Q1")
    pairs = execute_pattern(connector, rw.rewritten)
    return _q1_aggregate(pairs, connector)


# ---------------------------------------------------------------------------
# Q2 / Q3: ancestors & descendants (same-anchor-type, ≤ max_hops)
# ---------------------------------------------------------------------------


def _reach_pairs(
    graph: PropertyGraph, spec: WorkloadSpec, lo: int, hi: int
) -> DataFrame:
    pairs = var_length_pairs(graph.edges, lo, hi)
    return restrict_endpoints(
        pairs, graph.vertices, spec.anchor_type, spec.anchor_type
    )


def q3_descendants(
    graph: PropertyGraph, spec: WorkloadSpec, max_hops: int = 4
) -> DataFrame:
    """Q3: forward data lineage — (v, descendant) pairs within
    ``max_hops``, endpoints restricted to the anchor type."""
    return _reach_pairs(graph, spec, 1, max_hops).select(
        F.col("src").alias("v"), F.col("dst").alias("descendant")
    )


def q2_ancestors(
    graph: PropertyGraph, spec: WorkloadSpec, max_hops: int = 4
) -> DataFrame:
    """Q2: backward data lineage — (v, ancestor) pairs within
    ``max_hops``."""
    return _reach_pairs(graph, spec, 1, max_hops).select(
        F.col("dst").alias("v"), F.col("src").alias("ancestor")
    )


def q3_descendants_view(
    connector: PropertyGraph, spec: WorkloadSpec, max_hops: int = 4
) -> DataFrame:
    """Q3 over the connector: half the hops (§ VII-C)."""
    return _reach_pairs(connector, spec, 1, max_hops // 2).select(
        F.col("src").alias("v"), F.col("dst").alias("descendant")
    )


def q2_ancestors_view(
    connector: PropertyGraph, spec: WorkloadSpec, max_hops: int = 4
) -> DataFrame:
    return _reach_pairs(connector, spec, 1, max_hops // 2).select(
        F.col("dst").alias("v"), F.col("src").alias("ancestor")
    )


# ---------------------------------------------------------------------------
# Q4: path lengths (max edge timestamp over all paths, ≤ max_hops)
# ---------------------------------------------------------------------------


def q4_path_lengths(
    graph: PropertyGraph, spec: WorkloadSpec, max_hops: int = 4
) -> DataFrame:
    """Q4: per (source, reached) anchor pair, the max edge ``ts`` over
    all connecting paths within ``max_hops`` (a weighted distance)."""
    pairs = khop_pairs_with_max(graph.edges, 1, max_hops, prop="ts")
    return restrict_endpoints(
        pairs, graph.vertices, spec.anchor_type, spec.anchor_type
    ).select("src", "dst", F.col("m").alias("dist"))


def q4_path_lengths_view(
    connector: PropertyGraph, spec: WorkloadSpec, max_hops: int = 4
) -> DataFrame:
    """Q4 over the connector: half the hops; exact because max composes
    across path contraction (connector edges carry per-path max ts)."""
    pairs = khop_pairs_with_max(connector.edges, 1, max_hops // 2, prop="ts")
    return restrict_endpoints(
        pairs, connector.vertices, spec.anchor_type, spec.anchor_type
    ).select("src", "dst", F.col("m").alias("dist"))


# ---------------------------------------------------------------------------
# Q5 / Q6: dataset size (no rewriting — § VII-C)
# ---------------------------------------------------------------------------


def q5_edge_count(graph: PropertyGraph) -> DataFrame:
    return graph.edges.agg(F.count("*").alias("n"))


def q6_vertex_count(graph: PropertyGraph) -> DataFrame:
    return graph.vertices.agg(F.count("*").alias("n"))


# ---------------------------------------------------------------------------
# Q7 / Q8: community detection + largest community
# ---------------------------------------------------------------------------


def q7_communities(graph: PropertyGraph, iterations: int = 24) -> DataFrame:
    """Q7: label-propagation community detection (updates a community
    label per vertex). Baseline runs ``iterations``; the connector run
    uses half (§ VII-C: 'around half as many iterations')."""
    return label_propagation(graph, iterations)


def q8_largest_community(
    labels: DataFrame, graph: PropertyGraph, spec: WorkloadSpec
) -> DataFrame:
    """Q8: the community with the most anchor-type vertices, returned as
    a one-row summary (community label, vertex count, edge count)."""
    com, sub = largest_community(labels, graph, vtype=spec.anchor_type)
    return labels.sparkSession.createDataFrame(
        [(com, sub.vertex_count(), sub.edge_count())],
        "community LONG, n_vertices LONG, n_edges LONG",
    )


# ---------------------------------------------------------------------------
# Timing helper for the runtime experiments (Fig. 7)
# ---------------------------------------------------------------------------


def timed(fn: Callable[[], T]) -> tuple[T, float]:
    """Run ``fn``; returns (its result, seconds)."""
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def timed_count(query: Callable[[], DataFrame]) -> tuple[int, float]:
    """Build a query result with ``query`` and force its full evaluation;
    returns (rows, seconds). The timer covers the whole call, including
    any work the query function does eagerly (Q8 collects)."""
    return timed(lambda: query().count())
