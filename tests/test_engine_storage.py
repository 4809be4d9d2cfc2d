"""Unit tests for materialised table storage and true-statistics measurement."""

import pickle

import numpy as np
import pytest

from repro.engine import (
    Column,
    ColumnType,
    Operator,
    PAGE_SIZE_BYTES,
    Predicate,
    SchemaError,
    Table,
    TableData,
    UnknownColumnError,
    build_table_data,
    evaluate_predicate,
)


@pytest.fixture()
def small_table_data() -> TableData:
    table = Table("t", [Column("a"), Column("b"), Column("c", ColumnType.DECIMAL)])
    columns = {
        "a": np.arange(100),
        "b": np.repeat(np.arange(10), 10),
        "c": np.linspace(0.0, 1.0, 100),
    }
    return TableData(table=table, columns=columns, full_row_count=10_000)


class TestEvaluatePredicate:
    def test_equality(self):
        values = np.array([1, 2, 2, 3])
        mask = evaluate_predicate(values, Predicate("t", "a", Operator.EQ, 2))
        assert mask.tolist() == [False, True, True, False]

    def test_ranges(self):
        values = np.array([1, 5, 10])
        assert evaluate_predicate(values, Predicate("t", "a", Operator.LT, 5)).sum() == 1
        assert evaluate_predicate(values, Predicate("t", "a", Operator.LE, 5)).sum() == 2
        assert evaluate_predicate(values, Predicate("t", "a", Operator.GT, 5)).sum() == 1
        assert evaluate_predicate(values, Predicate("t", "a", Operator.GE, 5)).sum() == 2

    def test_between_and_in(self):
        values = np.array([1, 5, 10, 20])
        between = Predicate("t", "a", Operator.BETWEEN, (5, 10))
        assert evaluate_predicate(values, between).sum() == 2
        in_list = Predicate("t", "a", Operator.IN, (1, 20))
        assert evaluate_predicate(values, in_list).sum() == 2


class TestTableData:
    def test_scale_multiplier(self, small_table_data):
        assert small_table_data.sample_rows == 100
        assert small_table_data.scale_multiplier == 100.0

    def test_pages_and_bytes(self, small_table_data):
        expected_bytes = 10_000 * small_table_data.row_width_bytes
        assert small_table_data.total_bytes == expected_bytes
        assert small_table_data.pages == int(np.ceil(expected_bytes / PAGE_SIZE_BYTES))

    def test_true_selectivity_single_predicate(self, small_table_data):
        predicate = Predicate("t", "b", Operator.EQ, 3)
        assert small_table_data.true_selectivity((predicate,)) == pytest.approx(0.1)

    def test_true_selectivity_conjunction_respects_correlation(self, small_table_data):
        # a < 10 and b == 0 are perfectly correlated in this data: both select
        # exactly the first ten rows, so the conjunction is 0.1, not 0.01.
        predicates = (
            Predicate("t", "a", Operator.LT, 10),
            Predicate("t", "b", Operator.EQ, 0),
        )
        assert small_table_data.true_selectivity(predicates) == pytest.approx(0.1)

    def test_true_selectivity_empty_match_has_floor(self, small_table_data):
        predicate = Predicate("t", "a", Operator.EQ, 999_999)
        selectivity = small_table_data.true_selectivity((predicate,))
        assert 0 < selectivity < 0.01

    def test_selectivity_of_other_tables_predicates_is_one(self, small_table_data):
        predicate = Predicate("other", "a", Operator.EQ, 1)
        assert small_table_data.true_selectivity((predicate,)) == 1.0

    def test_true_cardinality_scales_to_full_rows(self, small_table_data):
        predicate = Predicate("t", "b", Operator.EQ, 3)
        assert small_table_data.true_cardinality((predicate,)) == 1000

    def test_distinct_count_unique_column(self, small_table_data):
        assert small_table_data.distinct_count("a") == 10_000

    def test_distinct_count_low_cardinality(self, small_table_data):
        assert small_table_data.distinct_count("b") == 10

    def test_distinct_hint_takes_precedence(self, unique_calls):
        table = Table("t", [Column("a")])
        data = TableData(
            table=table,
            columns={"a": np.repeat(np.arange(5), 20)},
            full_row_count=1_000_000,
            distinct_hints={"a": 777},
        )
        assert [data.distinct_count("a") for _ in range(3)] == [777, 777, 777]
        # A hinted column never measures its sample.
        assert unique_calls == []

    def test_distinct_count_memo_matches_fresh_unique(self, small_table_data):
        for column_name, values in small_table_data.columns.items():
            fresh = len(np.unique(values))
            expected = 10_000 if fresh >= 0.95 * small_table_data.sample_rows else fresh
            for _ in range(3):
                assert small_table_data.distinct_count(column_name) == expected

    def test_distinct_count_runs_unique_once_per_column(self, small_table_data, unique_calls):
        for _ in range(4):
            for column_name in ("a", "b", "c"):
                small_table_data.distinct_count(column_name)
        assert len(unique_calls) == 3

    def test_distinct_count_survives_pickle_round_trip(self, small_table_data):
        before = {name: small_table_data.distinct_count(name) for name in ("a", "b", "c")}
        restored = pickle.loads(pickle.dumps(small_table_data))
        assert {name: restored.distinct_count(name) for name in ("a", "b", "c")} == before

    def test_value_range(self, small_table_data):
        low, high = small_table_data.value_range("a")
        assert (low, high) == (0.0, 99.0)

    def test_unknown_column_raises(self, small_table_data):
        with pytest.raises(UnknownColumnError):
            small_table_data.column_array("zzz")

    def test_summary_fields(self, small_table_data):
        summary = small_table_data.summary()
        assert summary["table"] == "t"
        assert summary["full_row_count"] == 10_000


class TestValidation:
    def test_mismatched_sample_lengths_rejected(self):
        table = Table("t", [Column("a"), Column("b")])
        with pytest.raises(SchemaError):
            TableData(table, {"a": np.arange(10), "b": np.arange(5)}, 100)

    def test_unknown_column_data_rejected(self):
        table = Table("t", [Column("a")])
        with pytest.raises(UnknownColumnError):
            TableData(table, {"zzz": np.arange(10)}, 100)

    def test_empty_sample_rejected(self):
        table = Table("t", [Column("a")])
        with pytest.raises(SchemaError):
            TableData(table, {"a": np.array([])}, 100)

    def test_full_rows_never_below_sample(self):
        table = Table("t", [Column("a")])
        data = TableData(table, {"a": np.arange(50)}, 10)
        assert data.full_row_count == 50

    def test_build_table_data_requires_all_columns(self):
        table = Table("t", [Column("a"), Column("b")])
        with pytest.raises(SchemaError):
            build_table_data(table, {"a": np.arange(10)}, 100)
