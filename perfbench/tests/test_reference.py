"""The benchmark's reference agrees with the repository's oracle.

``perfbench.reference`` counts the paper query without building the
join; ``repro.testkit.oracle`` builds it row by row.  They share no
code, so agreement on uniform, skewed and tightened-template inputs is
evidence that both are right.
"""

import dataclasses

import pytest

from perfbench.reference import Thresholds, url_prefix
from perfbench.workloads import (
    SELECTIVITIES,
    paper_sql,
    paper_thresholds,
    reference_rows,
)
from repro import WorkloadSpec, build_paper_query, generate_workload
from repro.relational.expressions import compare
from repro.testkit import oracle


def _workload(key_skew=0.0, seed=3):
    return generate_workload(WorkloadSpec(
        **SELECTIVITIES, t_rows=4_000, l_rows=40_000, n_keys=200,
        key_skew=key_skew, seed=seed,
    ))


def _query(workload, thresholds: Thresholds):
    return dataclasses.replace(
        build_paper_query(workload),
        db_predicate=(compare("corPred", "<=", thresholds.t_cor)
                      & compare("indPred", "<=", thresholds.t_ind)),
        hdfs_predicate=(compare("corPred", "<=", thresholds.l_cor)
                        & compare("indPred", "<=", thresholds.l_ind)),
    )


def _oracle_rows(workload, thresholds):
    expected = oracle.oracle_execute(workload.t_table, workload.l_table,
                                     _query(workload, thresholds))
    return oracle.canonical_rows(expected)


def _reference_rows(workload, thresholds):
    return sorted(reference_rows(workload, thresholds).elements())


@pytest.mark.parametrize("key_skew", [0.0, 0.5, 1.2])
def test_paper_query_matches_oracle(key_skew):
    workload = _workload(key_skew)
    thresholds = paper_thresholds(workload)
    rows = _reference_rows(workload, thresholds)
    assert rows and rows == _oracle_rows(workload, thresholds)


@pytest.mark.parametrize("t_factor,l_factor", [(0.5, 1.0), (0.25, 0.2),
                                               (1.0, 0.6)])
def test_tightened_templates_match_oracle(t_factor, l_factor):
    workload = _workload(seed=7)
    thresholds = paper_thresholds(workload, t_factor, l_factor)
    assert _reference_rows(workload, thresholds) == \
        _oracle_rows(workload, thresholds)


def test_empty_join_has_no_groups():
    workload = _workload()
    thresholds = dataclasses.replace(paper_thresholds(workload), t_ind=-1)
    assert _reference_rows(workload, thresholds) == []
    assert _oracle_rows(workload, thresholds) == []


def test_service_sql_translates_to_the_reference_constants():
    from repro import HybridWarehouse, default_config
    from repro.sql import SqlSession

    workload = _workload()
    warehouse = HybridWarehouse(default_config(scale=40_000 / 15e9))
    warehouse.load_db_table("T", workload.t_table, distribute_on="uniqKey")
    warehouse.load_hdfs_table("L", workload.l_table, "parquet")
    thresholds = paper_thresholds(workload, 0.5, 0.6)
    query = SqlSession(warehouse).explain(paper_sql(thresholds)).query
    expected = oracle.oracle_execute(workload.t_table, workload.l_table,
                                     query)
    assert oracle.canonical_rows(expected) == \
        _reference_rows(workload, thresholds)


@pytest.mark.parametrize("url,prefix", [
    ("http://shop001.example.com/item/p00001", "http://shop001.example.com"),
    ("https://a.b/c/d", "https://a.b"),
    ("plain/path", "plain"),
])
def test_url_prefix(url, prefix):
    assert url_prefix(url) == prefix
