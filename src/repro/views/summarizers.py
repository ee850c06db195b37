"""Summarizer graph views (§ III-C, § VI-B, Table II).

A summarizer of G = (V, E) is a graph G' with V(G') ⊆ V(G) (or
aggregated super-vertices), E(G') ⊆ E(G), and strictly fewer vertices
or edges. Filters take Spark SQL boolean expressions over the vertex /
edge columns (``vtype``, ``cpu``, ``pname`` / ``etype``, ``ts``), so
predicates run inside Catalyst. Predicates follow SQL three-valued
logic: inclusion keeps the rows where the predicate is TRUE, removal
(and the unmatched rest of an aggregator) the rows where it is not
TRUE — FALSE or NULL — so every row lands on exactly one side.
"""
from __future__ import annotations

from pyspark.sql import functions as F

from ..engine.property_graph import PropertyGraph


def _not_true(predicate: str):
    """SQL ``predicate IS NOT TRUE``: FALSE or NULL."""
    return ~F.coalesce(F.expr(predicate), F.lit(False))


def _induced_edges(graph: PropertyGraph, kept_vertices):
    """Edges whose both endpoints survive a vertex filter."""
    keep_src = kept_vertices.select(F.col("id").alias("src"))
    keep_dst = kept_vertices.select(F.col("id").alias("dst"))
    return graph.edges.join(keep_src, "src").join(keep_dst, "dst").select(
        *graph.edges.columns
    )


def vertex_inclusion(graph: PropertyGraph, predicate: str) -> PropertyGraph:
    """Keep vertices satisfying ``predicate`` and the induced edges
    (Table II: vertex-inclusion summarizer)."""
    vertices = graph.vertices.where(F.expr(predicate))
    return PropertyGraph(
        vertices=vertices,
        edges=_induced_edges(graph, vertices),
        name=f"{graph.name}:v_incl",
    )


def vertex_removal(graph: PropertyGraph, predicate: str) -> PropertyGraph:
    """Remove vertices satisfying ``predicate`` and their incident edges
    (Table II: vertex-removal summarizer)."""
    vertices = graph.vertices.where(_not_true(predicate))
    return PropertyGraph(
        vertices=vertices,
        edges=_induced_edges(graph, vertices),
        name=f"{graph.name}:v_rm",
    )


def keep_vertex_types(graph: PropertyGraph, types: set[str]) -> PropertyGraph:
    """The 'schema-level summarizer' of § VII-E: keep only the given
    vertex types (and induced edges)."""
    quoted = ", ".join(f"'{t}'" for t in sorted(types))
    return vertex_inclusion(graph, f"vtype IN ({quoted})")


def edge_inclusion(graph: PropertyGraph, predicate: str) -> PropertyGraph:
    """Keep only edges satisfying ``predicate``; vertices unchanged."""
    return PropertyGraph(
        vertices=graph.vertices,
        edges=graph.edges.where(F.expr(predicate)),
        name=f"{graph.name}:e_incl",
    )


def edge_removal(graph: PropertyGraph, predicate: str) -> PropertyGraph:
    """Remove edges satisfying ``predicate``; vertices unchanged."""
    return PropertyGraph(
        vertices=graph.vertices,
        edges=graph.edges.where(_not_true(predicate)),
        name=f"{graph.name}:e_rm",
    )


_AGGS = {"sum": F.sum, "max": F.max, "min": F.min, "avg": F.avg, "count": F.count}


def _agg_exprs(aggs: dict[str, str]):
    return [_AGGS[fn](col).alias(col) for col, fn in aggs.items()]


def vertex_aggregator(
    graph: PropertyGraph,
    predicate: str,
    group_expr: str,
    aggs: dict[str, str] | None = None,
) -> PropertyGraph:
    """Group vertices satisfying ``predicate`` by ``group_expr`` into
    super-vertices (Table II: vertex-aggregator). Each group's id is its
    minimum member id; vertex properties combine via ``aggs``
    (column → one of sum/max/min/avg); ``vtype`` must be constant per
    group (the paper's template library does not aggregate across
    types). Edges are re-pointed at super-vertices."""
    aggs = {"cpu": "sum"} | (aggs or {})  # cpu always present in the core schema
    matched = graph.vertices.where(F.expr(predicate))
    rest = graph.vertices.where(_not_true(predicate))
    grouped = matched.withColumn("_g", F.expr(group_expr))
    mapping = grouped.groupBy("_g").agg(F.min("id").alias("new_id"))
    member_map = grouped.select("id", "_g").join(mapping, "_g").select("id", "new_id")
    ntypes = grouped.select("_g", "vtype").distinct().groupBy("_g").count()
    if ntypes.where(F.col("count") > 1).count() > 0:
        raise ValueError(
            "vertex_aggregator groups must be type-homogeneous "
            "(supply a higher-order resolver to extend — § VI-B)"
        )
    super_vertices = (
        grouped.groupBy("_g")
        .agg(
            F.min("id").alias("id"),
            F.first("vtype").alias("vtype"),
            *_agg_exprs({k: v for k, v in aggs.items() if k != "pname"}),
            F.min("pname").alias("pname"),
        )
        .select("id", "vtype", "cpu", "pname")
    )
    identity = rest.select("id", F.col("id").alias("new_id"))
    full_map = member_map.union(identity)
    src_map = full_map.select(F.col("id").alias("src"), F.col("new_id").alias("_ns"))
    dst_map = full_map.select(F.col("id").alias("dst"), F.col("new_id").alias("_nd"))
    edges = (
        graph.edges.join(src_map, "src")
        .join(dst_map, "dst")
        .select(
            F.col("_ns").alias("src"), F.col("_nd").alias("dst"), "etype", "ts"
        )
        .where(F.col("src") != F.col("dst"))
    )
    return PropertyGraph(
        vertices=super_vertices.unionByName(rest.select("id", "vtype", "cpu", "pname")),
        edges=edges,
        name=f"{graph.name}:v_agg",
    )


def edge_aggregator(
    graph: PropertyGraph, predicate: str, aggs: dict[str, str] | None = None
) -> PropertyGraph:
    """Group parallel edges satisfying ``predicate`` by (src, dst, etype)
    into super-edges, combining properties via ``aggs`` (Table II:
    edge-aggregator)."""
    aggs = aggs or {"ts": "max"}
    matched = graph.edges.where(F.expr(predicate))
    rest = graph.edges.where(_not_true(predicate))
    super_edges = (
        matched.groupBy("src", "dst", "etype")
        .agg(*_agg_exprs(aggs))
        .select("src", "dst", "etype", *aggs.keys())
    )
    return PropertyGraph(
        vertices=graph.vertices,
        edges=super_edges.unionByName(rest.select(super_edges.columns)),
        name=f"{graph.name}:e_agg",
    )


def subgraph_aggregator(
    graph: PropertyGraph,
    vertex_predicate: str,
    aggs: dict[str, str] | None = None,
) -> PropertyGraph:
    """Collapse the induced subgraph of vertices satisfying the predicate
    into a single super-vertex (Table II: subgraph-aggregator). Edges
    internal to the subgraph disappear; boundary edges re-point."""
    return vertex_aggregator(
        graph, vertex_predicate, group_expr="1", aggs=aggs or {"cpu": "sum"}
    )
