"""Traversal primitives vs. DuckDB recursive-CTE oracles.

Every reachability/aggregation result is compared against DuckDB over
identical edge tables, on both the bipartite (fig3) and cyclic graphs.
"""
import pytest
from pyspark.sql import functions as F

from repro.engine import (
    khop_pairs,
    khop_pairs_with_max,
    khop_walk_count,
    restrict_endpoints,
    var_length_pairs,
)
from repro.oracle import assert_equivalent

from .conftest import khop_pairs_sql, max_ts_sql, var_length_sql, walk_count_sql


def _walks_oracle(edges, k: int, exclude_loops: bool) -> int:
    import duckdb

    con = duckdb.connect()
    try:
        con.register("edges", edges)
        return con.execute(walk_count_sql(k, exclude_loops)).fetchone()[0]
    finally:
        con.close()


class TestKhopPairs:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_fig3_matches_oracle(self, fig3, fig3_pdf, k):
        _, edges = fig3_pdf
        assert_equivalent(khop_pairs(fig3.edges, k), khop_pairs_sql(k), edges=edges)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_cyclic_matches_oracle(self, cyclic, cyclic_pdf, k):
        _, edges = cyclic_pdf
        assert_equivalent(khop_pairs(cyclic.edges, k), khop_pairs_sql(k), edges=edges)

    def test_k_zero_rejected(self, fig3):
        with pytest.raises(ValueError):
            khop_pairs(fig3.edges, 0)

    def test_fig3_2hop_job_pairs(self, fig3):
        """Fig. 3(b): the four blue job-to-job 2-hop contractions."""
        pairs = khop_pairs(fig3.edges, 2)
        jobs = restrict_endpoints(pairs, fig3.vertices, "Job", "Job")
        got = {(r["src"], r["dst"]) for r in jobs.collect()}
        assert got == {(1, 2), (1, 3), (2, 4), (3, 4)}

    def test_fig3_2hop_file_pairs(self, fig3):
        """Fig. 3(b): the red file-to-file 2-hop contractions."""
        pairs = khop_pairs(fig3.edges, 2)
        files = restrict_endpoints(pairs, fig3.vertices, "File", "File")
        got = {(r["src"], r["dst"]) for r in files.collect()}
        assert got == {(11, 12), (11, 13), (12, 14), (13, 14)}


class TestVarLengthPairs:
    @pytest.mark.parametrize("lo,hi", [(1, 1), (1, 2), (2, 4), (1, 4)])
    def test_fig3_ranges(self, fig3, fig3_pdf, lo, hi):
        _, edges = fig3_pdf
        assert_equivalent(
            var_length_pairs(fig3.edges, lo, hi),
            var_length_sql(lo, hi),
            edges=edges,
        )

    @pytest.mark.parametrize("lo,hi", [(1, 3), (2, 5)])
    def test_cyclic_ranges(self, cyclic, cyclic_pdf, lo, hi):
        _, edges = cyclic_pdf
        assert_equivalent(
            var_length_pairs(cyclic.edges, lo, hi),
            var_length_sql(lo, hi),
            edges=edges,
        )

    def test_zero_lower_includes_identity(self, fig3, fig3_pdf):
        vertices, edges = fig3_pdf
        files = fig3.typed_vertices("File").select("id")
        assert_equivalent(
            var_length_pairs(fig3.edges, 0, 2, zero_vertices=files),
            var_length_sql(0, 2, zero_pred="vtype = 'File'"),
            edges=edges,
            vertices=vertices,
        )

    @pytest.mark.parametrize("lo,hi", [(1, 0), (3, 2), (-1, 2)])
    def test_empty_range_rejected(self, fig3, lo, hi):
        with pytest.raises(ValueError, match="hop range"):
            var_length_pairs(fig3.edges, lo, hi)
        files = fig3.typed_vertices("File").select("id")
        with pytest.raises(ValueError, match="hop range"):
            var_length_pairs(fig3.edges, lo, hi, zero_vertices=files)

    def test_zero_lower_requires_vertices(self, fig3):
        with pytest.raises(ValueError):
            var_length_pairs(fig3.edges, 0, 2)

    def test_upper_zero_identity_only(self, fig3):
        files = fig3.typed_vertices("File").select("id")
        out = var_length_pairs(fig3.edges, 0, 0, zero_vertices=files)
        got = {(r["src"], r["dst"]) for r in out.collect()}
        assert got == {(i, i) for i in (11, 12, 13, 14)}


class TestWalkCount:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_fig3_counts(self, fig3, fig3_pdf, k):
        _, edges = fig3_pdf
        assert _walks_oracle(edges, k, True) == khop_walk_count(fig3.edges, k)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("exclude_loops", [True, False])
    def test_cyclic_counts(self, cyclic, cyclic_pdf, k, exclude_loops):
        _, edges = cyclic_pdf
        assert _walks_oracle(edges, k, exclude_loops) == khop_walk_count(
            cyclic.edges, k, exclude_loops=exclude_loops
        )

    def test_cycle_loops_excluded_vs_included(self, cyclic):
        # The triangle contributes closed 3-walks: 0→1→2→0 etc.
        with_loops = khop_walk_count(cyclic.edges, 3, exclude_loops=False)
        without = khop_walk_count(cyclic.edges, 3, exclude_loops=True)
        assert with_loops == without + 3

    def test_empty_graph(self, spark):
        import pandas as pd

        from repro.engine import graph_from_pandas

        g = graph_from_pandas(
            spark,
            pd.DataFrame({"id": [1], "vtype": ["Vertex"]}),
            pd.DataFrame({"src": [], "dst": [], "etype": []}, dtype=object).assign(
                src=pd.array([], dtype="int64"), dst=pd.array([], dtype="int64")
            ),
        )
        assert khop_walk_count(g.edges, 2) == 0


class TestPairsWithMax:
    @pytest.mark.parametrize("lo,hi", [(1, 2), (1, 4), (2, 3)])
    def test_fig3_max_ts(self, fig3, fig3_pdf, lo, hi):
        _, edges = fig3_pdf
        assert_equivalent(
            khop_pairs_with_max(fig3.edges, lo, hi),
            max_ts_sql(lo, hi),
            edges=edges,
        )

    @pytest.mark.parametrize("lo,hi", [(1, 3), (1, 5)])
    def test_cyclic_max_ts(self, cyclic, cyclic_pdf, lo, hi):
        _, edges = cyclic_pdf
        assert_equivalent(
            khop_pairs_with_max(cyclic.edges, lo, hi),
            max_ts_sql(lo, hi),
            edges=edges,
        )

    def test_zero_lower_rejected(self, fig3):
        with pytest.raises(ValueError):
            khop_pairs_with_max(fig3.edges, 0, 2)


class TestRestrictEndpoints:
    def test_both_types(self, fig3):
        pairs = fig3.edges.select("src", "dst")
        jf = restrict_endpoints(pairs, fig3.vertices, "Job", "File")
        assert jf.count() == 4  # the WRITES_TO edges

    def test_none_passthrough(self, fig3):
        pairs = fig3.edges.select("src", "dst")
        assert restrict_endpoints(pairs, fig3.vertices).count() == 8
