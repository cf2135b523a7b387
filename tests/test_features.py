"""Unit tests for NetFlow / nprint feature extraction and splitting."""

import numpy as np
import pytest

from repro.ml.features import (
    NETFLOW_FIELDS,
    OVERFIT_NETFLOW_FIELDS,
    netflow_feature_names,
    netflow_matrix,
    netflow_record,
    nprint_features,
    nprint_matrix_features,
    overfit_bit_mask,
)
from repro.ml.split import encode_labels, stratified_split
from repro.net.flow import Flow
from repro.nprint.fields import FIELDS, NPRINT_BITS


class TestNetFlowRecord:
    def test_ten_fields_published(self):
        # §2.3: "ten derived or aggregated features" incl. the label.
        assert len(NETFLOW_FIELDS) + 1 == 10

    def test_record_contents(self, sample_flow):
        rec = netflow_record(sample_flow)
        assert rec.n_packets == 5
        assert rec.proto == 6
        assert rec.duration == pytest.approx(0.04)
        assert rec.label == "sample"
        assert rec.n_bytes == sample_flow.total_bytes

    def test_empty_flow_raises(self):
        with pytest.raises(ValueError):
            netflow_record(Flow())

    def test_vector_drops_overfit_by_default(self, sample_flow):
        rec = netflow_record(sample_flow)
        vec = netflow_matrix([rec])[0]
        names = netflow_feature_names()
        assert len(vec) == len(names)
        assert set(names) & set(OVERFIT_NETFLOW_FIELDS) == set()
        assert "proto" in names and "duration" in names

    def test_vector_with_overfit(self, sample_flow):
        X = netflow_matrix([netflow_record(sample_flow)],
                           include_overfit=True)
        assert X.shape == (1, len(NETFLOW_FIELDS))

    def test_matrix_shape(self, sample_flow):
        X = netflow_matrix([netflow_record(sample_flow)] * 2)
        assert X.shape == (2, len(netflow_feature_names()))


class TestNetflowVectorized:
    """The column-wise matrix must match a per-record reference."""

    @pytest.fixture
    def varied_flows(self, sample_flow, udp_packet, icmp_packet):
        udp_flow = Flow(packets=[udp_packet], label="stun")
        icmp_flow = Flow(packets=[icmp_packet], label="ping")
        return [sample_flow, udp_flow, icmp_flow, sample_flow]

    @pytest.mark.parametrize("include_overfit", [False, True])
    def test_netflow_matrix_parity(self, varied_flows, include_overfit):
        records = [netflow_record(f) for f in varied_flows]
        names = netflow_feature_names(include_overfit)
        reference = np.array(
            [[float(getattr(r, name)) for name in names] for r in records]
        )
        fast = netflow_matrix(records, include_overfit)
        assert fast.dtype == reference.dtype
        assert np.array_equal(fast, reference)

    def test_empty_inputs_raise(self):
        with pytest.raises(ValueError):
            netflow_matrix([])


class TestOverfitBitMask:
    def test_drops_address_and_port_columns(self):
        mask = overfit_bit_mask()
        assert mask.shape == (NPRINT_BITS,)
        for name in ("ipv4.src_ip", "ipv4.dst_ip", "tcp.src_port",
                     "udp.dst_port", "tcp.checksum"):
            fs = FIELDS[name]
            assert not mask[fs.start:fs.stop].any(), name

    def test_keeps_informative_columns(self):
        mask = overfit_bit_mask()
        for name in ("ipv4.ttl", "tcp.flags", "tcp.window", "ipv4.proto",
                     "ipv4.total_length", "icmp.type"):
            fs = FIELDS[name]
            assert mask[fs.start:fs.stop].all(), name


class TestNprintFeatures:
    def test_shape_with_overfit_dropped(self, sample_flow):
        X = nprint_features([sample_flow], max_packets=4)
        kept = int(overfit_bit_mask().sum())
        assert X.shape == (1, 4 * kept)

    def test_shape_without_drop(self, sample_flow):
        X = nprint_features([sample_flow], max_packets=4, drop_overfit=False)
        assert X.shape == (1, 4 * NPRINT_BITS)

    def test_matrix_features_validation(self):
        with pytest.raises(ValueError):
            nprint_matrix_features(np.zeros((2, 4)))
        with pytest.raises(ValueError):
            nprint_matrix_features(np.zeros((2, 4, 10)))

    def test_dtype_float32(self, sample_flow):
        X = nprint_features([sample_flow], max_packets=2)
        assert X.dtype == np.float32


class TestStratifiedSplit:
    def test_proportions_preserved(self):
        labels = ["a"] * 80 + ["b"] * 20
        train, test = stratified_split(labels, 0.2, seed=0)
        test_labels = [labels[i] for i in test]
        assert test_labels.count("a") == 16
        assert test_labels.count("b") == 4

    def test_disjoint_and_complete(self):
        labels = ["x"] * 10 + ["y"] * 6
        train, test = stratified_split(labels, 0.25, seed=1)
        assert set(train) | set(test) == set(range(16))
        assert set(train) & set(test) == set()

    def test_every_class_in_test(self):
        labels = ["a"] * 50 + ["b"] * 2
        _, test = stratified_split(labels, 0.1, seed=0)
        assert any(labels[i] == "b" for i in test)

    def test_every_class_keeps_train_sample(self):
        labels = ["a", "a", "b", "b"]
        train, _ = stratified_split(labels, 0.5, seed=0)
        assert {labels[i] for i in train} == {"a", "b"}

    def test_deterministic(self):
        labels = ["a"] * 30 + ["b"] * 30
        a = stratified_split(labels, 0.2, seed=5)
        b = stratified_split(labels, 0.2, seed=5)
        assert (a[0] == b[0]).all() and (a[1] == b[1]).all()

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            stratified_split(["a"], 0.0)
        with pytest.raises(ValueError):
            stratified_split(["a"], 1.0)


class TestEncodeLabels:
    def test_sorted_default_classes(self):
        ids, classes = encode_labels(["b", "a", "b"])
        assert classes == ["a", "b"]
        assert ids.tolist() == [1, 0, 1]

    def test_explicit_class_order(self):
        ids, classes = encode_labels(["b", "a"], classes=["b", "a"])
        assert ids.tolist() == [0, 1]

    def test_unknown_label_raises(self):
        with pytest.raises(KeyError):
            encode_labels(["z"], classes=["a"])
