"""Tests for the DuckDB oracle every correctness test builds on: it must
catch wrong results, not just run."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent


class TestOracle:
    def test_accepts_matching_result(self, spark):
        df = spark.createDataFrame(pd.DataFrame({"k": [1, 2], "n": [10, 20]}))
        assert_equivalent(
            df, "SELECT k, n FROM t", t=pd.DataFrame({"k": [2, 1], "n": [20, 10]})
        )

    def test_rejects_wrong_values(self, spark):
        df = spark.createDataFrame(pd.DataFrame({"k": [1], "n": [10]}))
        with pytest.raises(AssertionError):
            assert_equivalent(
                df, "SELECT k, n FROM t", t=pd.DataFrame({"k": [1], "n": [99]})
            )

    def test_rejects_missing_rows(self, spark):
        df = spark.createDataFrame(pd.DataFrame({"k": [1]}))
        with pytest.raises(AssertionError):
            assert_equivalent(
                df, "SELECT k FROM t", t=pd.DataFrame({"k": [1, 2]})
            )

    def test_rejects_column_mismatch(self, spark):
        df = spark.createDataFrame(pd.DataFrame({"wrong": [1]}))
        with pytest.raises(AssertionError, match="column mismatch"):
            assert_equivalent(df, "SELECT k FROM t", t=pd.DataFrame({"k": [1]}))

    def test_accepts_spark_input_tables(self, spark):
        t = spark.createDataFrame(pd.DataFrame({"k": [1, 1, 2]}))
        out = t.groupBy("k").agg(F.count("*").alias("n"))
        assert_equivalent(out, "SELECT k, COUNT(*) AS n FROM t GROUP BY k", t=t)

    def test_column_order_insensitive(self, spark):
        df = spark.createDataFrame(pd.DataFrame({"b": [1], "a": [2]}))
        assert_equivalent(
            df, "SELECT 1 AS b, 2 AS a FROM t", t=pd.DataFrame({"x": [0]})
        )
