"""Tests for feature-importance folding."""

import numpy as np
import pytest

from repro.ml import RandomForest, fold_importances, nprint_features
from repro.ml.features import overfit_bit_mask
from repro.ml.split import encode_labels
from repro.traffic.dataset import generate_app_flows


class TestFoldImportances:
    @pytest.fixture(scope="class")
    def trained(self):
        flows = (generate_app_flows("netflix", 25, seed=131)
                 + generate_app_flows("teams", 25, seed=132))
        X = nprint_features(flows, max_packets=6)
        y, _ = encode_labels([f.label for f in flows])
        rf = RandomForest(n_trees=8, max_depth=10, seed=0).fit(X, y)
        return rf

    def test_report_structure(self, trained):
        report = fold_importances(trained.feature_importances_,
                                  max_packets=6)
        total = sum(fi.importance for fi in report.by_field)
        assert total == pytest.approx(1.0, abs=1e-6)
        assert report.by_packet.shape == (6,)
        assert report.by_packet.sum() == pytest.approx(1.0, abs=1e-6)
        # Ranked in descending order.
        values = [fi.importance for fi in report.by_field]
        assert values == sorted(values, reverse=True)

    def test_discriminative_fields_rank_high(self, trained):
        """netflix-vs-teams differs in transport: protocol/region fields
        (or per-protocol headers) must dominate the importances."""
        report = fold_importances(trained.feature_importances_,
                                  max_packets=6)
        top_fields = {fi.field for fi in report.top(8)}
        protocol_markers = {
            "ipv4.proto", "udp.length", "udp.src_port", "tcp.flags",
            "tcp.window", "tcp.data_offset", "ipv4.ttl", "tcp.seq",
            "tcp.ack", "ipv4.total_length", "ipv4.dscp", "tcp.options",
            "udp.checksum",
        }
        assert top_fields & protocol_markers

    def test_overfit_fields_never_present(self, trained):
        report = fold_importances(trained.feature_importances_,
                                  max_packets=6)
        names = {fi.field for fi in report.by_field}
        assert "ipv4.src_ip" not in names
        assert "tcp.src_port" not in names

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            fold_importances(np.zeros(10), max_packets=6)

    def test_no_drop_mode(self):
        from repro.nprint.fields import NPRINT_BITS
        flat = np.zeros(2 * NPRINT_BITS)
        flat[0] = 1.0  # ipv4.version bit in packet 0
        report = fold_importances(flat, max_packets=2, drop_overfit=False)
        assert report.by_field[0].field == "ipv4.version"
        assert report.by_packet[0] == 1.0

    def test_render(self, trained):
        text = fold_importances(trained.feature_importances_,
                                max_packets=6).render()
        assert "Feature importance" in text
        assert "packet 0" in text

