"""Tests for the CLI and the IPv4 address helpers."""

import numpy as np
import pytest

from repro.cli import main
from repro.net.ipaddr import in_subnet, ip_to_str, str_to_ip


class TestIpAddr:
    @pytest.mark.parametrize("text,value", [
        ("0.0.0.0", 0),
        ("10.0.0.1", 0x0A000001),
        ("255.255.255.255", 0xFFFFFFFF),
        ("192.168.1.200", 0xC0A801C8),
    ])
    def test_roundtrip(self, text, value):
        assert str_to_ip(text) == value
        assert ip_to_str(value) == text

    @pytest.mark.parametrize("bad", ["1.2.3", "1.2.3.4.5", "a.b.c.d",
                                     "256.0.0.1", "-1.0.0.0"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            str_to_ip(bad)

    def test_format_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ip_to_str(2**32)
        with pytest.raises(ValueError):
            ip_to_str(-1)

    def test_in_subnet(self):
        assert in_subnet(str_to_ip("10.1.2.3"), str_to_ip("10.0.0.0"), 8)
        assert not in_subnet(str_to_ip("11.1.2.3"), str_to_ip("10.0.0.0"), 8)
        assert in_subnet(123456, 0, 0)  # /0 matches everything
        assert in_subnet(str_to_ip("10.0.0.1"), str_to_ip("10.0.0.1"), 32)
        with pytest.raises(ValueError):
            in_subnet(0, 0, 33)


@pytest.fixture(scope="module")
def dataset_pcap(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "real.pcap"
    rc = main(["dataset", "--scale", "0.004", "--seed", "1",
               "--out", str(path)])
    assert rc == 0
    return path


class TestCli:
    def test_dataset_writes_pcap_and_labels(self, dataset_pcap):
        assert dataset_pcap.exists()
        labels = dataset_pcap.with_suffix(".labels")
        assert labels.exists()
        lines = labels.read_text().splitlines()
        assert len(lines) >= 22  # 11 classes x >= 2 flows
        assert all(len(line.split()) == 2 for line in lines)

    def test_stats(self, dataset_pcap, capsys):
        rc = main(["stats", "--in", str(dataset_pcap)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "packets:" in out
        assert "flows:" in out
        assert "protocols:" in out

    def test_replay_real_compliant(self, dataset_pcap, capsys):
        rc = main(["replay", "--in", str(dataset_pcap)])
        assert rc == 0
        assert "compliance: 1.000" in capsys.readouterr().out

    def test_render(self, dataset_pcap, tmp_path):
        out = tmp_path / "flow.png"
        rc = main(["render", "--in", str(dataset_pcap),
                   "--max-packets", "16", "--out", str(out)])
        assert rc == 0
        from repro.imaging.png import read_png
        img = read_png(out)
        assert img.shape == (16, 1088, 3)

    def test_fit_and_generate(self, dataset_pcap, tmp_path, capsys):
        model = tmp_path / "model.npz"
        rc = main(["fit", "--in", str(dataset_pcap),
                   "--model", str(model),
                   "--max-packets", "8", "--steps", "120"])
        assert rc == 0
        assert model.exists()
        out = tmp_path / "synth.pcap"
        rc = main(["generate", "--model", str(model),
                   "--class", "netflix", "-n", "3",
                   "--out", str(out)])
        assert rc == 0
        from repro.net.pcap import read_pcap
        assert len(read_pcap(out)) > 0

    def test_generate_unknown_class_fails(self, dataset_pcap, tmp_path):
        model = tmp_path / "model.npz"
        main(["fit", "--in", str(dataset_pcap), "--model", str(model),
              "--max-packets", "8", "--steps", "60"])
        rc = main(["generate", "--model", str(model),
                   "--class", "spotify", "-n", "1",
                   "--out", str(tmp_path / "x.pcap")])
        assert rc == 1

    def test_generate_with_state_repair(self, dataset_pcap, tmp_path,
                                        capsys):
        model = tmp_path / "model.npz"
        main(["fit", "--in", str(dataset_pcap), "--model", str(model),
              "--max-packets", "8", "--steps", "120"])
        out = tmp_path / "repaired.pcap"
        rc = main(["generate", "--model", str(model),
                   "--class", "netflix", "-n", "3", "--state-repair",
                   "--out", str(out)])
        assert rc == 0
        rc = main(["replay", "--in", str(out)])
        assert rc in (0, 2)  # compliant or measurably non-compliant


@pytest.fixture(scope="module")
def fitted_model(dataset_pcap, tmp_path_factory):
    model = tmp_path_factory.mktemp("cli-model") / "model.npz"
    rc = main(["fit", "--in", str(dataset_pcap), "--model", str(model),
               "--max-packets", "8", "--steps", "60"])
    assert rc == 0
    return model


class TestCliBatchGenerate:
    """Without ``--stream-pcap``, ``generate`` writes one capture ordered
    by timestamp: byte for byte the packet objects of
    :meth:`~repro.core.pipeline.TextToTrafficPipeline.generate`, sorted
    stably by timestamp and written with ``write_pcap``."""

    @pytest.mark.parametrize("extra", [[], ["--state-repair"]],
                             ids=["plain", "state_repair"])
    def test_matches_sorted_packet_objects(self, fitted_model, tmp_path,
                                           extra):
        from repro.core.serialization import load_pipeline
        from repro.net.pcap import read_pcap, write_pcap

        out = tmp_path / "synth.pcap"
        rc = main(["generate", "--model", str(fitted_model),
                   "--class", "netflix", "-n", "6", "--seed", "5",
                   "--out", str(out)] + extra)
        assert rc == 0
        flows = load_pipeline(fitted_model).generate(
            "netflix", 6, state_repair=bool(extra),
            rng=np.random.default_rng(5),
        )
        packets = sorted((p for f in flows for p in f.packets),
                         key=lambda p: p.timestamp)
        reference = tmp_path / "reference.pcap"
        write_pcap(reference, packets)
        assert out.read_bytes() == reference.read_bytes()
        # Every flow starts at t=0, so ties exist and the bytes above pin
        # their flow-major order.
        stamps = [p.timestamp for p in read_pcap(out)]
        assert len(set(stamps)) < len(stamps)
