"""Shared fixtures for the test suite.

Fixtures build small databases (a few hundred sample rows, low scale factors)
so the full suite runs in seconds while still exercising the real code paths:
generated data, statistics, planning, execution, tuning.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    Column,
    ColumnType,
    Database,
    ForeignKeyRef,
    JoinPredicate,
    Operator,
    Predicate,
    Query,
    Schema,
    SequentialKey,
    Table,
    TableSpec,
    UniformInt,
    ZipfianInt,
)
from repro.workloads import get_benchmark


# --------------------------------------------------------------------- #
# a tiny hand-built schema used by most unit tests
# --------------------------------------------------------------------- #
def build_tiny_schema() -> Schema:
    sales = Table(
        "sales",
        [
            Column("sale_id", ColumnType.INTEGER),
            Column("customer_id", ColumnType.INTEGER),
            Column("product_id", ColumnType.INTEGER),
            Column("amount", ColumnType.DECIMAL),
            Column("day", ColumnType.DATE),
            Column("channel", ColumnType.INTEGER),
        ],
        primary_key=("sale_id",),
    )
    customers = Table(
        "customers",
        [
            Column("customer_id", ColumnType.INTEGER),
            Column("region", ColumnType.INTEGER),
            Column("segment", ColumnType.INTEGER),
        ],
        primary_key=("customer_id",),
    )
    return Schema(name="tiny", tables=[sales, customers])


def build_tiny_specs(sales_rows: int = 200_000, customer_rows: int = 5_000) -> list[TableSpec]:
    return [
        TableSpec("sales", sales_rows, {
            "sale_id": SequentialKey(),
            "customer_id": ForeignKeyRef(customer_rows),
            "product_id": ZipfianInt(low=1, n_distinct=1000, skew=1.2),
            "amount": UniformInt(1, 10_000),
            "day": UniformInt(0, 364),
            "channel": UniformInt(0, 4),
        }),
        TableSpec("customers", customer_rows, {
            "customer_id": SequentialKey(),
            "region": UniformInt(0, 9),
            "segment": ZipfianInt(low=0, n_distinct=5, skew=2.0),
        }),
    ]


@pytest.fixture(scope="session")
def tiny_schema() -> Schema:
    return build_tiny_schema()


@pytest.fixture()
def tiny_database() -> Database:
    """A fresh small database per test (tests may create/drop indexes)."""
    return Database.from_specs(
        schema=build_tiny_schema(),
        table_specs=build_tiny_specs(),
        sample_rows=600,
        seed=3,
        memory_budget_bytes=2 * 1024 * 1024 * 1024,
    )


@pytest.fixture(scope="session")
def tiny_database_readonly() -> Database:
    """A shared database for read-only tests (do not create indexes here)."""
    return Database.from_specs(
        schema=build_tiny_schema(),
        table_specs=build_tiny_specs(),
        sample_rows=600,
        seed=3,
        memory_budget_bytes=2 * 1024 * 1024 * 1024,
    )


def make_sales_query(
    query_id: str = "q_sales#0",
    template_id: str = "q_sales",
    day_high: int = 60,
    channel: int | None = 1,
) -> Query:
    """A selective single-table query over ``sales``."""
    predicates = [Predicate("sales", "day", Operator.LE, day_high)]
    if channel is not None:
        predicates.append(Predicate("sales", "channel", Operator.EQ, channel))
    return Query(
        query_id=query_id,
        template_id=template_id,
        tables=("sales",),
        predicates=tuple(predicates),
        payload={"sales": ("amount", "day")},
    )


def make_join_query(query_id: str = "q_join#0", template_id: str = "q_join") -> Query:
    """A two-table join query ``sales x customers`` with a dimension filter."""
    return Query(
        query_id=query_id,
        template_id=template_id,
        tables=("sales", "customers"),
        predicates=(
            Predicate("customers", "region", Operator.EQ, 3),
            Predicate("sales", "day", Operator.LE, 120),
        ),
        joins=(JoinPredicate("sales", "customer_id", "customers", "customer_id"),),
        payload={"sales": ("amount",), "customers": ("segment",)},
    )


@pytest.fixture()
def sales_query() -> Query:
    return make_sales_query()


@pytest.fixture()
def join_query() -> Query:
    return make_join_query()


# --------------------------------------------------------------------- #
# small benchmark databases (session scoped, read-only usage preferred)
# --------------------------------------------------------------------- #
@pytest.fixture(scope="session")
def tpch_benchmark():
    return get_benchmark("tpch")


@pytest.fixture(scope="session")
def tpch_small_database(tpch_benchmark) -> Database:
    return tpch_benchmark.create_database(scale_factor=0.1, sample_rows=500, seed=5)


@pytest.fixture(scope="session")
def ssb_benchmark():
    return get_benchmark("ssb")


@pytest.fixture()
def unique_calls(monkeypatch) -> list[int]:
    """Lengths of the arrays passed to ``np.unique`` while the test runs."""
    calls: list[int] = []
    real_unique = np.unique

    def counting_unique(values, *args, **kwargs):
        calls.append(len(values))
        return real_unique(values, *args, **kwargs)

    monkeypatch.setattr(np, "unique", counting_unique)
    return calls


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(42)
