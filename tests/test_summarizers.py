"""Tests for summarizer view materialization (Table II)."""
import pytest
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent
from repro.views import (
    edge_aggregator,
    edge_inclusion,
    edge_removal,
    keep_vertex_types,
    subgraph_aggregator,
    vertex_aggregator,
    vertex_inclusion,
    vertex_removal,
)


class TestVertexFilters:
    def test_inclusion_keeps_matching_and_induced_edges(self, fig3, fig3_pdf):
        vertices, edges = fig3_pdf
        out = vertex_inclusion(fig3, "vtype = 'Job'")
        assert_equivalent(
            out.vertices.select("id"),
            "SELECT id FROM vertices WHERE vtype = 'Job'",
            vertices=vertices,
        )
        # No job-job edges exist in the lineage graph.
        assert out.edge_count() == 0

    def test_removal_complement(self, fig3):
        incl = vertex_inclusion(fig3, "vtype = 'Job'")
        rem = vertex_removal(fig3, "vtype <> 'Job'")
        assert sorted(r["id"] for r in incl.vertices.collect()) == sorted(
            r["id"] for r in rem.vertices.collect()
        )

    def test_property_predicate(self, fig3):
        out = vertex_removal(fig3, "cpu > 25")
        got = {r["id"] for r in out.typed_vertices("Job").select("id").collect()}
        assert got == {1, 2}
        # Files have no cpu: the predicate is NULL, not TRUE, so they stay.
        assert out.typed_vertices("File").count() == 4

    def test_induced_edges_oracle(self, tiny_prov):
        vertices = tiny_prov.vertices.toPandas()
        edges = tiny_prov.edges.toPandas()
        out = keep_vertex_types(tiny_prov, {"Job", "File"})
        assert_equivalent(
            out.edges.select("src", "dst", "etype"),
            """
            SELECT e.src, e.dst, e.etype FROM edges e
            JOIN vertices a ON e.src = a.id AND a.vtype IN ('Job', 'File')
            JOIN vertices b ON e.dst = b.id AND b.vtype IN ('Job', 'File')
            """,
            vertices=vertices,
            edges=edges,
        )

    def test_summarizer_strictly_smaller(self, tiny_prov):
        """§ VI-B: a summarizer must shrink vertices or edges."""
        out = keep_vertex_types(tiny_prov, {"Job", "File"})
        assert out.vertex_count() < tiny_prov.vertex_count()
        assert out.edge_count() < tiny_prov.edge_count()

    def test_kept_edge_types_are_core(self, tiny_prov):
        out = keep_vertex_types(tiny_prov, {"Job", "File"})
        assert set(out.edge_types()) == {"WRITES_TO", "IS_READ_BY"}


class TestEdgeFilters:
    def test_inclusion(self, fig3):
        out = edge_inclusion(fig3, "etype = 'WRITES_TO'")
        assert out.edge_count() == 4
        assert out.vertex_count() == 8  # vertices unchanged

    def test_removal(self, fig3):
        out = edge_removal(fig3, "etype = 'WRITES_TO'")
        assert out.edge_types() == ["IS_READ_BY"]

    def test_property_predicate(self, fig3):
        out = edge_removal(fig3, "ts >= 5")
        assert out.edge_count() == 4

    def test_oracle(self, fig3, fig3_pdf):
        _, edges = fig3_pdf
        out = edge_inclusion(fig3, "ts % 2 = 0")
        assert_equivalent(
            out.edges.select("src", "dst", "ts"),
            "SELECT src, dst, ts FROM edges WHERE ts % 2 = 0",
            edges=edges,
        )


class TestVertexAggregator:
    def test_group_jobs_by_pipeline(self, fig3):
        """Jobs grouped into pipeline super-vertices: p1={j1,j2} (id 1,
        cpu 30), p2={j3,j4} (id 3, cpu 70); files pass through."""
        out = vertex_aggregator(
            fig3, "vtype = 'Job'", group_expr="pname", aggs={"cpu": "sum"}
        )
        jobs = {r["id"]: r["cpu"] for r in out.typed_vertices("Job").collect()}
        assert jobs == {1: 30.0, 3: 70.0}
        assert out.typed_vertices("File").count() == 4

    def test_edges_repointed(self, fig3):
        out = vertex_aggregator(fig3, "vtype = 'Job'", group_expr="pname")
        # f1 -IS_READ_BY-> j2 becomes f1 -> supervertex 1
        got = {(r["src"], r["dst"]) for r in
               out.edges.where("etype = 'IS_READ_BY'").collect()}
        assert (11, 1) in got and (12, 3) in got

    def test_self_loops_dropped(self, fig3):
        out = vertex_aggregator(fig3, "vtype = 'Job'", group_expr="1")
        # all jobs merged: any job->job path edge would self-loop — but
        # there are none; check no (x, x) edges exist at all.
        assert out.edges.where("src = dst").count() == 0

    def test_type_heterogeneous_group_rejected(self, fig3):
        with pytest.raises(ValueError, match="type-homogeneous"):
            vertex_aggregator(fig3, "TRUE", group_expr="1")

    def test_null_predicate_rows_pass_through(self, fig3):
        """Files have no cpu, so ``cpu > 25`` is NULL for them: they are
        not grouped, and neither they nor their edges are lost."""
        out = vertex_aggregator(fig3, "cpu > 25", group_expr="1")
        jobs = {r["id"]: r["cpu"] for r in out.typed_vertices("Job").collect()}
        assert jobs == {1: 10.0, 2: 20.0, 3: 70.0}
        assert out.typed_vertices("File").count() == 4
        assert out.edge_count() == 8

    def test_vertex_count_shrinks(self, fig3):
        out = vertex_aggregator(fig3, "vtype = 'Job'", group_expr="pname")
        assert out.vertex_count() == 2 + 4


class TestEdgeAggregator:
    def test_parallel_edges_merge(self, spark):
        import pandas as pd

        from repro.engine import graph_from_pandas

        g = graph_from_pandas(
            spark,
            pd.DataFrame({"id": [1, 2], "vtype": ["Job", "File"]}),
            pd.DataFrame(
                {
                    "src": [1, 1, 1],
                    "dst": [2, 2, 2],
                    "etype": ["W", "W", "R"],
                    "ts": [5, 9, 1],
                }
            ),
        )
        out = edge_aggregator(g, "etype = 'W'", aggs={"ts": "max"})
        rows = {(r["etype"]): r["ts"] for r in out.edges.collect()}
        assert rows == {"W": 9, "R": 1}
        assert out.edge_count() == 2

    def test_null_predicate_rows_pass_through(self, spark):
        import pandas as pd

        from repro.engine import graph_from_pandas

        g = graph_from_pandas(
            spark,
            pd.DataFrame({"id": [1, 2], "vtype": ["Job", "File"]}),
            pd.DataFrame(
                {
                    "src": [1, 1, 1],
                    "dst": [2, 2, 2],
                    "etype": ["W", "W", "R"],
                    "ts": pd.array([5, 9, None], dtype="Int64"),
                }
            ),
        )
        out = edge_aggregator(g, "ts > 3", aggs={"ts": "max"})
        rows = {(r["etype"]): r["ts"] for r in out.edges.collect()}
        assert rows == {"W": 9, "R": None}
        kept = edge_removal(g, "ts > 3")
        assert [(r["etype"], r["ts"]) for r in kept.edges.collect()] == [("R", None)]

    def test_vertices_unchanged(self, fig3):
        out = edge_aggregator(fig3, "TRUE")
        assert out.vertex_count() == 8


class TestSubgraphAggregator:
    def test_collapse_all_jobs(self, fig3):
        out = subgraph_aggregator(fig3, "vtype = 'Job'")
        jobs = out.typed_vertices("Job").collect()
        assert len(jobs) == 1
        assert jobs[0]["id"] == 1 and jobs[0]["cpu"] == 100.0

    def test_boundary_edges_repointed(self, fig3):
        out = subgraph_aggregator(fig3, "vtype = 'Job'")
        # every WRITES_TO edge now leaves the single supervertex
        assert out.edges.where("etype = 'WRITES_TO' AND src = 1").count() == 4
