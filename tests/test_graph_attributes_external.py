"""Unit tests for the edge value types and the attribute store."""

from repro.graph.attributes import AttributeStore
from repro.graph.edge import EdgeRecord, EdgeTriple, Endpoint


class TestEdgeTypes:
    def test_edge_record_endpoint_helpers(self):
        record = EdgeRecord(5, 1, 2, 3, 4.0)
        assert record.endpoint(Endpoint.SOURCE) == 1
        assert record.endpoint(Endpoint.DESTINATION) == 2
        assert record.reversed().src == 2
        assert Endpoint.SOURCE.other() is Endpoint.DESTINATION

    def test_edge_triple_key(self):
        assert EdgeTriple(1, 2, 3).key() == (1, 2, 3)
        assert EdgeTriple(1, 2).label == 0


class TestAttributeStore:
    def test_set_get_defaults(self):
        store = AttributeStore()
        store.define("bytes", default=0)
        store.set("bytes", 3, 1500)
        assert store.get("bytes", 3) == 1500
        assert store.get("bytes", 4) == 0
        assert store.get("missing_column", 3, default="x") == "x"

    def test_row_and_columns(self):
        store = AttributeStore()
        store.set("port", 1, 443)
        store.set("proto", 1, "tcp")
        assert store.row(1) == {"port": 443, "proto": "tcp"}
        assert set(store.columns()) == {"port", "proto"}
        assert "port" in store
        assert len(store) == 2

    def test_delete_row(self):
        store = AttributeStore()
        store.set("port", 1, 443)
        store.delete(1)
        assert store.get("port", 1) is None

    def test_row_includes_defaults(self):
        store = AttributeStore()
        store.define("flag", default=False)
        store.set("port", 2, 80)
        assert store.row(2) == {"port": 80, "flag": False}
