"""Traversal primitives over edge DataFrames.

Every traversal and connector runs one loop, :func:`expand`: the
frontier of walks of exactly k edges, for k = 1..upper. Each hop joins
the frontier with the edges, extends every walk's value by the edge's,
and aggregates per (src, dst) pair. What a walk's value is and how walks
combine is a *semiring* (Mohri, "Semiring Frameworks and Algorithms for
Shortest-Distance Problems", 2002):

- ``None`` — reachability: distinct (src, dst) pairs. All
  variable-length path semantics in this engine are reachability,
  matching how the paper's workload consumes matches (every query
  groups or sets over the matched endpoints, and connector rewritings
  preserve reachability, not path multiplicity);
- :func:`max_of` — (src, dst, m), m the max of an edge property over
  all edges of all walks (Q4's max-``ts``, the ``ts`` of connector
  edges);
- :data:`WALKS` — (src, dst, m), m the number of walks (Fig. 5).

Each hop is a shuffle join (broadcast joins are disabled by the session
fixture). One checkpoint rule: every frontier after the first is cut
with ``localCheckpoint`` (lazily), so a 10-hop expansion does not build
a 10-deep join plan and each hop runs as its own small query. The first
frontier is one aggregate over the edges and is not stored.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce
from itertools import islice
from typing import Callable, Iterable, Iterator

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F


@dataclass(frozen=True)
class Semiring:
    """A walk's value: ``one`` for a single edge, ``times`` to extend a
    walk by an edge, ``plus`` to combine the walks between one pair."""

    one: Callable[[], Column]
    times: Callable[[Column, Column], Column]
    plus: Callable[[str], Column]


def max_of(prop: str = "ts") -> Semiring:
    """Max of edge property ``prop`` over every edge of every walk."""
    return Semiring(lambda: F.col(prop), F.greatest, F.max)


WALKS = Semiring(lambda: F.lit(1).cast("long"), operator.mul, F.sum)


def expand(
    edges: DataFrame,
    upper: int,
    semiring: Semiring | None = None,
    start: DataFrame | None = None,
    through: DataFrame | None = None,
) -> Iterator[DataFrame]:
    """Yield the frontier of walks of exactly k edges for k = 1..upper:
    (src, dst) pairs, plus the walk value ``m`` under ``semiring``.

    ``start`` (an ``id`` DataFrame) restricts the first vertex of a
    walk; ``through`` restricts the vertices a walk may continue from
    (its interior vertices).
    """
    reach = semiring is None
    hop = edges.select("src", "dst", *([] if reach else [semiring.one().alias("m")]))
    frontier = hop if start is None else hop.join(start.select(F.col("id").alias("src")), "src")
    if through is not None:
        hop = hop.join(through.select(F.col("id").alias("src")), "src")
    nxt = hop.select(
        F.col("src").alias("_m"), F.col("dst").alias("_d"), *([] if reach else [F.col("m").alias("_p")])
    )
    for k in range(1, upper + 1):
        if k > 1:
            m = [] if reach else [semiring.times(frontier.m, nxt._p).alias("m")]
            frontier = frontier.join(nxt, frontier.dst == nxt._m).select(
                frontier.src, nxt._d.alias("dst"), *m
            )
        if reach:
            frontier = frontier.distinct()
        else:
            frontier = frontier.groupBy("src", "dst").agg(semiring.plus("m").alias("m"))
        if k > 1:
            frontier = frontier.localCheckpoint(eager=False)
        yield frontier


def contract(frontiers: Iterable[DataFrame]) -> DataFrame:
    """Union the hops of a max-semiring :func:`expand` (the k-th frontier
    tagged ``hops`` = k) into one edge per pair: max ``m`` over all
    walks, ``hops`` the shortest."""
    tagged = [f.withColumn("hops", F.lit(k)) for k, f in enumerate(frontiers, 1)]
    if not tagged:
        raise ValueError("a connector contracts paths of at least one edge")
    return reduce(DataFrame.union, tagged).groupBy("src", "dst").agg(
        F.max("m").alias("m"), F.min("hops").alias("hops")
    )


def _hops(
    edges: DataFrame, lower: int, upper: int, semiring: Semiring | None = None
) -> list[DataFrame]:
    """The frontiers of :func:`expand` for k in ``[max(lower, 1), upper]``."""
    if lower < 0 or lower > upper:
        raise ValueError(f"empty hop range *{lower}..{upper}")
    return list(islice(expand(edges, upper, semiring), max(lower, 1) - 1, None))


def khop_pairs(edges: DataFrame, k: int) -> DataFrame:
    """Distinct vertex pairs connected by a walk of *exactly* k edges."""
    if k < 1:
        raise ValueError("k must be >= 1")
    *_, last = expand(edges, k)
    return last


def var_length_pairs(
    edges: DataFrame,
    lower: int,
    upper: int,
    zero_vertices: DataFrame | None = None,
) -> DataFrame:
    """Distinct pairs connected by a walk of length in ``[lower, upper]``.

    ``lower == 0`` adds identity pairs for ``zero_vertices`` (a DataFrame
    with an ``id`` column — the vertices a zero-length path may anchor).
    """
    if lower == 0 and zero_vertices is None:
        raise ValueError("lower=0 requires zero_vertices")
    parts = _hops(edges, lower, upper)
    if lower == 0:
        parts.append(zero_vertices.select(F.col("id").alias("src"), F.col("id").alias("dst")))
    return reduce(DataFrame.union, parts).distinct()


def khop_walk_count(edges: DataFrame, k: int, exclude_loops: bool = True) -> int:
    """Number of k-edge walks; with ``exclude_loops``, walks whose
    endpoints coincide are dropped (for k ≤ 2 on a loop-free graph this
    equals the number of k-length *simple* paths — the quantity Fig. 5
    compares the estimator against for 2-hop connectors)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    *_, walks = expand(edges, k, WALKS)
    if exclude_loops:
        walks = walks.where(F.col("src") != F.col("dst"))
    row = walks.agg(F.sum("m").alias("total")).collect()[0]
    return int(row["total"] or 0)


def khop_pairs_with_max(
    edges: DataFrame, lower: int, upper: int, prop: str = "ts"
) -> DataFrame:
    """Distinct pairs within ``[lower, upper]`` hops, with the maximum of
    edge property ``prop`` over *all* edges of *all* connecting walks.

    Max is associative and commutative, so this composes exactly across
    path contraction: running it over a connector whose edges carry the
    per-contracted-path max yields the same result as over the raw graph
    (the Q4 equivalence).
    """
    if lower < 1:
        raise ValueError("lower must be >= 1 (zero-length paths carry no edges)")
    parts = _hops(edges, lower, upper, max_of(prop))
    return reduce(DataFrame.union, parts).groupBy("src", "dst").agg(F.max("m").alias("m"))


def restrict_endpoints(
    pairs: DataFrame,
    vertices: DataFrame,
    src_type: str | None = None,
    dst_type: str | None = None,
) -> DataFrame:
    """Filter a pair table to endpoints of the given vertex types."""
    out = pairs
    if src_type is not None:
        keep = vertices.where(F.col("vtype") == src_type).select(
            F.col("id").alias("src")
        )
        out = out.join(keep, "src")
    if dst_type is not None:
        keep = vertices.where(F.col("vtype") == dst_type).select(
            F.col("id").alias("dst")
        )
        out = out.join(keep, "dst")
    return out
