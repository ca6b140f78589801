"""The value-type contract shared by the 17 immutable result and config types.

Each type is built positionally, by keyword and from defaults; compares and
hashes equal on its compared fields only (``nodes`` and ``g_tables`` are
statistics, left out); compares unequal to any other class; prints as
``Name(field=value!r, ...)``; matches positional class patterns through
``__match_args__``; and refuses assignment and deletion with an
AttributeError.  A GTable reduces its numerators and denominator when it is
built, so tables over different denominators compare equal; the JSON
it keeps once rendered is outside its fields.
"""

from fractions import Fraction

import pytest

from treebound.bounds import (
    BoundComparison,
    BoundReport,
    BoundValue,
    compare_count_to_bound,
    evaluate_bounds,
)
from treebound.checks import CheckResult, instance_report
from treebound.conjecture import ConjectureRow, ConjectureScanConfig, conjecture_scan
from treebound.counting import CountResult, count_copies
from treebound.families import gen_disjoint_cliques
from treebound.graphs import GoodLabeling, Graph, Tree, good_labeling, path_tree
from treebound.harness import RowBound, SuiteConfig, SuiteRow, run_suite, standard_suite_config
from treebound.ledger import ChainReport, CopyLedger, copy_ledger
from treebound.measure import GTable, MeasureKind, g_table_exact

VALUE_TYPES = (
    Graph, Tree, GoodLabeling, CountResult, BoundValue, BoundComparison,
    BoundReport, GTable, ChainReport, CopyLedger, RowBound, SuiteRow, SuiteConfig,
    ConjectureScanConfig, ConjectureRow, CheckResult,
)


def _instances() -> dict:
    k4, p3 = gen_disjoint_cliques(1, 4), path_tree(3)
    labeling = good_labeling(p3)
    ledger = copy_ledger(k4, p3, labeling)
    scan_config = ConjectureScanConfig("cliques", 4, 2, 2, 0, min_degree=3)
    scan = conjecture_scan(scan_config)
    row = run_suite(SuiteConfig((("K4", k4),), (("P3", p3),), include_gtables=True))[0]
    return {
        Graph: k4,
        Tree: p3,
        GoodLabeling: labeling,
        CountResult: count_copies(k4, p3, labeling),
        BoundValue: evaluate_bounds(k4, 3).copies_local,
        BoundComparison: compare_count_to_bound(24, 3.0),
        BoundReport: evaluate_bounds(k4, 3),
        GTable: g_table_exact(k4, p3, labeling, MeasureKind.ISO),
        ChainReport: ledger.chain(evaluate_bounds(k4, 3).copies_local.log_value),
        CopyLedger: ledger,
        RowBound: row.bounds[0],
        SuiteRow: row,
        SuiteConfig: standard_suite_config(0),
        ConjectureScanConfig: scan_config,
        ConjectureRow: scan[0],
        CheckResult: instance_report(k4, p3)[0][0],
    }


@pytest.fixture(scope="module")
def instances():
    return _instances()


def _fields(obj) -> tuple[str, ...]:
    return type(obj).__match_args__


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda c: c.__name__)
class TestEveryValueType:
    def test_positional_and_keyword_copies_are_equal(self, instances, cls):
        obj = instances[cls]
        values = [getattr(obj, name) for name in _fields(obj)]
        for copy in (cls(*values), cls(**dict(zip(_fields(obj), values)))):
            assert copy == obj and not copy != obj
            assert hash(copy) == hash(obj)
            assert copy is not obj

    def test_repr_lists_every_field(self, instances, cls):
        obj = instances[cls]
        inner = ", ".join(f"{name}={getattr(obj, name)!r}" for name in _fields(obj))
        assert repr(obj) == f"{cls.__qualname__}({inner})"

    def test_fields_cannot_be_assigned_or_deleted(self, instances, cls):
        obj = instances[cls]
        first = _fields(obj)[0]
        before = getattr(obj, first)
        with pytest.raises(AttributeError):
            setattr(obj, first, before)
        with pytest.raises(AttributeError):
            delattr(obj, first)
        with pytest.raises(AttributeError):
            obj.not_a_field = 1
        assert getattr(obj, first) is before

    def test_other_classes_compare_unequal(self, instances, cls):
        obj = instances[cls]
        values = tuple(getattr(obj, name) for name in _fields(obj))
        assert obj.__eq__(values) is NotImplemented
        assert obj != values
        other = next(c for c in VALUE_TYPES if c is not cls)
        assert obj != instances[other]


class TestConstruction:
    def test_positional_keyword_and_default_arguments(self):
        assert CountResult(4, "dp").nodes == 0
        assert CountResult(4, method="dp", nodes=9).nodes == 9
        assert CountResult(value=4, method="dp") == CountResult(4, "dp")
        bound = RowBound("copies_local", False, reason="min degree 1 < t = 2")
        assert (bound.log_value, bound.holds, bound.log_margin) == (None, None, None)
        config = SuiteConfig(graphs=(), trees=())
        assert config.work_cap is None and config.include_gtables is False
        scan = ConjectureScanConfig("random", 12, 3, 2, 0)
        assert (scan.edge_probability, scan.degree_floor) == (0.5, 6)
        row = SuiteRow("g", "t", 4, 6, Fraction(3), 3, 2)
        assert row.copies is None and row.bounds == () and row.error is None

    @pytest.mark.parametrize(
        "args, kwargs",
        [
            ((4,), {}),  # missing a field without a default
            ((4, "dp", 1, 2), {}),  # too many positional arguments
            ((4, "dp"), {"count": 1}),  # unknown keyword
            ((4, "dp"), {"value": 4}),  # a field given twice
        ],
    )
    def test_bad_arguments_are_type_errors(self, args, kwargs):
        with pytest.raises(TypeError):
            CountResult(*args, **kwargs)

    def test_match_args_follow_field_order(self):
        assert CountResult.__match_args__ == ("value", "method", "nodes")
        match CountResult(7, "formula"):
            case CountResult(value, method):
                assert (value, method) == (7, "formula")
            case _:
                pytest.fail("positional class pattern did not match")


class TestComparedFields:
    def test_count_nodes_are_left_out(self):
        a, b = CountResult(24, "enumeration", nodes=65), CountResult(24, "enumeration", nodes=1)
        assert a == b and hash(a) == hash(b)
        assert a != CountResult(24, "dp", nodes=65)

    def test_ledger_nodes_are_left_out(self, instances):
        ledger = instances[CopyLedger]
        values = {name: getattr(ledger, name) for name in _fields(ledger)}
        copy = CopyLedger(**{**values, "nodes": ledger.nodes + 1})
        assert copy == ledger and hash(copy) == hash(ledger)
        assert CopyLedger(**{**values, "count": ledger.count + 1}) != ledger

    def test_suite_row_g_tables_are_left_out(self, instances):
        row = instances[SuiteRow]
        assert row.g_tables  # a dict: hashing it would raise
        values = {name: getattr(row, name) for name in _fields(row)}
        plain = SuiteRow(**{**values, "g_tables": None})
        assert plain == row and hash(plain) == hash(row)
        assert SuiteRow(**{**values, "copies": row.copies + 1}) != row


class TestPinnedRepr:
    def test_count_result(self):
        assert repr(CountResult(24, "enumeration", 65)) == (
            "CountResult(value=24, method='enumeration', nodes=65)"
        )

    def test_good_labeling(self):
        assert repr(good_labeling(path_tree(3))) == (
            "GoodLabeling(order=(1, 2, 3, 4), parents=(0, 1, 2, 3))"
        )

    def test_bound_comparison(self):
        assert repr(BoundComparison(True, 0.25)) == "BoundComparison(holds=True, log_margin=0.25)"

    def test_check_result(self):
        assert repr(CheckResult("majorant-floor", None, "skipped")) == (
            "CheckResult(name='majorant-floor', passed=None, detail='skipped')"
        )


def test_gtable_keeps_one_reduced_denominator(instances):
    table = instances[GTable]
    # K4/P3: by symmetry every ISO cell is 1/4
    assert (table.denominator, table.numerators) == (4, ((1, 1, 1, 1),) * 4)
    scaled = GTable(table.kind, 6 * 4, [[6] * 4 for _ in range(4)])
    assert scaled == table and hash(scaled) == hash(table)
    assert type(scaled.numerators[0]) is tuple
    assert table.row_sum(1) == 1
    assert GTable(table.kind, 7, [[0, 0]]).to_json_dict()["rows"] == [["0/1", "0/1"]]


def test_a_gtable_that_rendered_its_json_stays_equal(instances):
    table = instances[GTable]
    rendered, fresh = (GTable(table.kind, 12, [[1, 2, 3, 6], [0, 4, 4, 4]]) for _ in range(2))
    first = rendered.to_json_dict()
    assert first["rows"] == [["1/12", "1/6", "1/4", "1/2"], ["0/1", "1/3", "1/3", "1/3"]]
    assert rendered == fresh and hash(rendered) == hash(fresh) and repr(rendered) == repr(fresh)
    second = rendered.to_json_dict()
    assert second == first == fresh.to_json_dict()
    assert not {id(first), id(first["rows"]), *map(id, first["rows"])} & {
        id(second), id(second["rows"]), *map(id, second["rows"])}
    first["rows"][0][0] = "edited"
    first["rows"].append(["edited"])
    assert rendered.to_json_dict() == second
