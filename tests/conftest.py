"""Shared fixtures for Spark-side tests: micro graphs (Fig. 3 of the
paper plus a small cyclic homogeneous graph) and their pandas twins for
the DuckDB oracle, plus tiny dataset instances reused across modules.
"""
import pandas as pd
import pytest

from repro.engine import graph_from_pandas, micro_graph


@pytest.fixture(scope="session")
def fig3(spark):
    """The Fig. 3(a) data-lineage micro graph (4 jobs, 4 files)."""
    g = micro_graph(spark).persist()
    g.vertices.count(), g.edges.count()
    yield g
    g.unpersist()


@pytest.fixture(scope="session")
def fig3_pdf(fig3):
    """(vertices, edges) pandas twins of fig3 for the DuckDB oracle."""
    return fig3.vertices.toPandas(), fig3.edges.toPandas()


@pytest.fixture(scope="session")
def cyclic(spark):
    """Small homogeneous digraph with a cycle and a tail:
    0→1→2→0 (triangle), 2→3→4, 1→4. Exercises walk dedup on cycles."""
    vertices = pd.DataFrame({"id": [0, 1, 2, 3, 4], "vtype": "Vertex"})
    edges = pd.DataFrame(
        {
            "src": [0, 1, 2, 2, 3, 1],
            "dst": [1, 2, 0, 3, 4, 4],
            "etype": "LINK",
            "ts": [10, 20, 30, 40, 50, 60],
        }
    )
    g = graph_from_pandas(spark, vertices, edges, name="cyclic").persist()
    g.vertices.count(), g.edges.count()
    yield g
    g.unpersist()


@pytest.fixture(scope="session")
def cyclic_pdf(cyclic):
    return cyclic.vertices.toPandas(), cyclic.edges.toPandas()


@pytest.fixture(scope="session")
def tiny_prov(spark):
    """A small-but-nontrivial provenance graph for integration tests."""
    from repro.datasets import prov_raw

    g = prov_raw(spark, scale=0.06, tasks_per_job=3, transfers_per_task=2).persist()
    g.vertices.count(), g.edges.count()
    yield g
    g.unpersist()


@pytest.fixture(scope="session")
def tiny_dblp(spark):
    from repro.datasets import dblp

    g = dblp(spark, scale=0.05).persist()
    g.vertices.count(), g.edges.count()
    yield g
    g.unpersist()


def khop_pairs_sql(k: int) -> str:
    """DuckDB recursive-CTE oracle: distinct pairs at exactly k hops."""
    return f"""
    WITH RECURSIVE walk(src, dst, k) AS (
        SELECT src, dst, 1 FROM edges
        UNION ALL
        SELECT w.src, e.dst, w.k + 1 FROM walk w JOIN edges e ON w.dst = e.src
        WHERE w.k < {k}
    )
    SELECT DISTINCT src, dst FROM walk WHERE k = {k}
    """


def var_length_sql(lower: int, upper: int, zero_pred: str = "TRUE") -> str:
    """Oracle for [lower..upper]-hop reachability pairs; lower=0 adds
    identity pairs over vertices satisfying ``zero_pred``."""
    zero = (
        f"UNION SELECT id AS src, id AS dst FROM vertices WHERE {zero_pred}"
        if lower == 0
        else ""
    )
    return f"""
    WITH RECURSIVE walk(src, dst, k) AS (
        SELECT src, dst, 1 FROM edges
        UNION ALL
        SELECT w.src, e.dst, w.k + 1 FROM walk w JOIN edges e ON w.dst = e.src
        WHERE w.k < {upper}
    )
    SELECT DISTINCT src, dst FROM walk WHERE k BETWEEN {max(lower, 1)} AND {upper}
    {zero}
    """


def max_ts_sql(lower: int, upper: int) -> str:
    """Oracle for khop_pairs_with_max: max edge ts over all walks of
    length in [lower..upper] per endpoint pair."""
    return f"""
    WITH RECURSIVE walk(src, dst, m, k) AS (
        SELECT src, dst, ts, 1 FROM edges
        UNION ALL
        SELECT w.src, e.dst, GREATEST(w.m, e.ts), w.k + 1
        FROM walk w JOIN edges e ON w.dst = e.src WHERE w.k < {upper}
    )
    SELECT src, dst, MAX(m) AS m FROM walk
    WHERE k BETWEEN {lower} AND {upper} GROUP BY src, dst
    """


def contracted_sql(
    max_hops: int,
    start: str = "TRUE",
    through: str = "TRUE",
    end: str = "TRUE",
    edge_pred: str = "TRUE",
) -> str:
    """Oracle for the ``ts``/``hops`` columns of a connector: per pair,
    over every walk of 1..``max_hops`` edges satisfying ``edge_pred``
    whose first vertex satisfies ``start``, interior vertices
    ``through`` and last vertex ``end`` (predicates over vertex alias
    ``v``), the max edge ``ts`` (``ts``) and the shortest length
    (``hops``)."""
    return f"""
    WITH RECURSIVE e AS (SELECT * FROM edges WHERE {edge_pred}),
    walk(src, dst, m, k) AS (
        SELECT e.src, e.dst, e.ts, 1 FROM e JOIN vertices v ON e.src = v.id
        WHERE {start}
        UNION ALL
        SELECT w.src, e.dst, GREATEST(w.m, e.ts), w.k + 1
        FROM walk w JOIN e ON w.dst = e.src JOIN vertices v ON w.dst = v.id
        WHERE w.k < {max_hops} AND {through}
    )
    SELECT w.src, w.dst, MAX(w.m) AS ts, MIN(w.k) AS hops
    FROM walk w JOIN vertices v ON w.dst = v.id
    WHERE {end}
    GROUP BY w.src, w.dst
    """


def walk_count_sql(k: int, exclude_loops: bool = True) -> str:
    """Oracle for khop_walk_count: the number of k-edge walks (with
    ``exclude_loops``, those whose endpoints differ)."""
    return f"""
    WITH RECURSIVE walk(src, dst, k) AS (
        SELECT src, dst, 1 FROM edges
        UNION ALL
        SELECT w.src, e.dst, w.k + 1 FROM walk w
        JOIN edges e ON w.dst = e.src WHERE w.k < {k}
    )
    SELECT COUNT(*) AS n FROM walk
    WHERE k = {k} {"AND src <> dst" if exclude_loops else ""}
    """
