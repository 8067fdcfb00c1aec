"""Tests for repro.index (table, queries, sorted index, routing).

The sorted index is :class:`ColumnarVarianceIndex`; the table scan
:func:`repro.index.query.search` is the ground truth it must match.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import QueryConfig
from repro.errors import IndexError_, QueryError
from repro.features.vector import FeatureVector
from repro.index.query import VarianceQuery, entry_matches, search
from repro.index.columnar import ColumnarVarianceIndex
from repro.index.routing import route_to_scene_nodes
from repro.index.table import IndexEntry, IndexTable
from repro.scenetree.builder import SceneTreeBuilder


def _entry(video="v", number=1, var_ba=4.0, var_oa=1.0, archetype=None):
    return IndexEntry(
        video_id=video,
        shot_number=number,
        start_frame=1,
        end_frame=10,
        features=FeatureVector(var_ba=var_ba, var_oa=var_oa),
        archetype=archetype,
    )


class TestIndexTable:
    def test_add_and_lookup(self):
        table = IndexTable()
        table.add(_entry(number=1))
        table.add(_entry(number=2, var_ba=9.0))
        assert len(table) == 2
        assert table.lookup("v", 2).features.var_ba == 9.0

    def test_lookup_missing(self):
        with pytest.raises(IndexError_):
            IndexTable().lookup("v", 1)

    def test_for_video_sorted_by_shot(self):
        table = IndexTable([_entry(number=3), _entry(number=1), _entry(number=2)])
        numbers = [e.shot_number for e in table.for_video("v")]
        assert numbers == [1, 2, 3]

    def test_for_video_missing(self):
        with pytest.raises(IndexError_):
            IndexTable().for_video("nope")

    def test_add_detection_result(self, figure5_detection):
        table = IndexTable()
        entries = table.add_detection_result(figure5_detection)
        assert len(entries) == figure5_detection.n_shots
        assert entries[0].start_frame == 1
        assert entries[-1].end_frame == 625

    def test_to_rows_table4_columns(self):
        rows = IndexTable([_entry()]).to_rows()
        assert set(rows[0]) == {
            "shot", "start_frame", "end_frame", "var_ba", "var_oa",
            "sqrt_var_ba", "d_v",
        }


class TestVarianceQuery:
    def test_d_v(self):
        query = VarianceQuery(var_ba=16.0, var_oa=9.0)
        assert query.d_v == pytest.approx(1.0)

    def test_from_features(self):
        vector = FeatureVector(var_ba=4.0, var_oa=1.0)
        query = VarianceQuery.from_features(vector)
        assert query.d_v == pytest.approx(vector.d_v)

    def test_rejects_negative(self):
        with pytest.raises(QueryError):
            VarianceQuery(var_ba=-1.0, var_oa=0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(QueryError):
            VarianceQuery(var_ba=bad, var_oa=1.0)
        with pytest.raises(QueryError):
            VarianceQuery(var_ba=1.0, var_oa=bad)

    def test_eq7_band(self):
        query = VarianceQuery(var_ba=16.0, var_oa=9.0)  # D=1, sqrtBA=4
        inside = _entry(var_ba=16.0, var_oa=9.0)
        assert entry_matches(inside, query)
        # D^v out of band: entry D = 5-0 = 5, |5-1| > alpha=1.
        out_d = _entry(var_ba=25.0, var_oa=0.0)
        assert not entry_matches(out_d, query)

    def test_eq8_band(self):
        query = VarianceQuery(var_ba=16.0, var_oa=9.0)  # sqrtBA 4, D 1
        # Entry: sqrtBA 36 -> 6 out of the beta=1 band even though D matches.
        out_ba = _entry(var_ba=36.0, var_oa=25.0)  # D = 6-5 = 1 (matches Eq.7)
        assert not entry_matches(out_ba, query)

    def test_boundary_inclusive(self):
        """Eqs. 7-8 are <= inequalities: the band edges match."""
        query = VarianceQuery(var_ba=16.0, var_oa=16.0)  # D=0, sqrtBA=4
        edge = _entry(var_ba=25.0, var_oa=16.0)          # D=1, sqrtBA=5
        assert entry_matches(edge, query, QueryConfig(alpha=1.0, beta=1.0))

    def test_search_ranks_by_distance(self):
        table = IndexTable(
            [
                _entry(number=1, var_ba=16.0, var_oa=9.0),
                _entry(number=2, var_ba=20.25, var_oa=12.25),  # (0.95... )
                _entry(number=3, var_ba=100.0, var_oa=100.0),
            ]
        )
        query = VarianceQuery(var_ba=16.0, var_oa=9.0)
        results = search(table, query)
        assert [e.shot_number for e in results] == [1, 2]

    def test_search_excludes_probe(self):
        table = IndexTable([_entry(number=1), _entry(number=2)])
        query = VarianceQuery(var_ba=4.0, var_oa=1.0)
        results = search(table, query, exclude_shot=("v", 1))
        assert [e.shot_number for e in results] == [2]

    def test_search_limit(self):
        table = IndexTable([_entry(number=k) for k in range(1, 9)])
        query = VarianceQuery(var_ba=4.0, var_oa=1.0)
        assert len(search(table, query, limit=3)) == 3


class TestSortedIndex:
    def test_insert_keeps_order(self):
        index = ColumnarVarianceIndex()
        for var_ba in (25.0, 1.0, 9.0):
            index.insert(_entry(var_ba=var_ba, var_oa=0.0))
        d_vs = [e.d_v for e in index.entries]
        assert d_vs == sorted(d_vs)

    def test_range_scan(self):
        index = ColumnarVarianceIndex(
            [_entry(number=k, var_ba=float(k * k), var_oa=0.0) for k in range(1, 7)]
        )
        band = index.range_scan(2.0, 4.0)  # D^v = k for each entry
        assert [e.shot_number for e in band] == [2, 3, 4]

    def test_range_scan_rejects_inverted(self):
        with pytest.raises(IndexError_):
            ColumnarVarianceIndex().range_scan(3.0, 1.0)

    def test_save_load_round_trip(self):
        index = ColumnarVarianceIndex(
            [_entry(number=k, var_ba=float(k), archetype="a") for k in range(1, 5)]
        )
        loaded = ColumnarVarianceIndex.from_parts(index.video_rows())
        assert len(loaded) == 4
        assert loaded.entries[0].archetype == "a"

    def test_load_rejects_bad_version(self):
        data = bytearray(ColumnarVarianceIndex.encode_rows([_entry()]))
        data[4:6] = (0).to_bytes(2, "little")  # the header's version field
        with pytest.raises(IndexError_, match="version"):
            ColumnarVarianceIndex.from_parts([("v", bytes(data))])

    @settings(max_examples=30)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=400),
                st.floats(min_value=0, max_value=400),
            ),
            min_size=1,
            max_size=40,
        ),
        st.floats(min_value=0, max_value=400),
        st.floats(min_value=0, max_value=400),
    )
    def test_property_sorted_search_equals_scan_search(self, vars_, q_ba, q_oa):
        """The sub-linear index answers exactly like the table scan."""
        entries = [
            _entry(number=k + 1, var_ba=ba, var_oa=oa)
            for k, (ba, oa) in enumerate(vars_)
        ]
        table = IndexTable(entries)
        index = ColumnarVarianceIndex(entries)
        query = VarianceQuery(var_ba=q_ba, var_oa=q_oa)
        via_scan = [(e.video_id, e.shot_number) for e in search(table, query)]
        via_index = [(e.video_id, e.shot_number) for e in index.search(query)]
        assert via_scan == via_index


class TestRouting:
    def test_routes_to_largest_scene(self, figure5_detection):
        tree = SceneTreeBuilder().build_from_detection(figure5_detection)
        table = IndexTable()
        table.add_detection_result(figure5_detection, video_id="figure5")
        matches = [table.lookup("figure5", 1)]
        routes = route_to_scene_nodes(matches, {"figure5": tree})
        assert len(routes) == 1
        node = routes[0].node
        assert node is not None
        # Shot #1's representative frame names EN1 and EN3 in the paper's
        # tree, so the largest scene is at level >= 1.
        assert node.level >= 1
        assert "->" in routes[0].suggestion

    def test_missing_tree_gives_none(self):
        routes = route_to_scene_nodes([_entry()], {})
        assert routes[0].node is None
        assert "<no scene tree>" in routes[0].suggestion


class TestNaNGuard:
    """NaN ``D^v`` keys would silently break the sort ordering
    invariant; the index must reject them at the boundary instead."""

    def _nan_entry(self):
        # Bypass FeatureVector's __post_init__ range check the same way
        # a buggy feature extractor would: NaN compares False against
        # everything, so ``var < 0`` never fires.
        return _entry(var_ba=float("nan"), var_oa=1.0)

    def test_insert_rejects_nan(self):
        index = ColumnarVarianceIndex([_entry()])
        with pytest.raises(IndexError_, match="NaN"):
            index.insert(self._nan_entry())
        assert len(index) == 1  # rejected before any mutation

    def test_construction_rejects_nan(self):
        with pytest.raises(IndexError_, match="NaN"):
            ColumnarVarianceIndex([_entry(), self._nan_entry()])

    def test_range_scan_rejects_nan_bounds(self):
        index = ColumnarVarianceIndex([_entry()])
        with pytest.raises(IndexError_, match="NaN"):
            index.range_scan(float("nan"), 1.0)
        with pytest.raises(IndexError_, match="NaN"):
            index.range_scan(0.0, float("nan"))
