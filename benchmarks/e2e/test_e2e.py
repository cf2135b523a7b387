"""Tests for the end-to-end benchmark: validator, spans, load generator,
metric declarations and a toy-sized run of every workload.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import dataclasses
import io
import json
import shutil
import struct
import subprocess
import sys
import time
from concurrent.futures import Future
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import bench
import compare
from spans import Target, Tracer, install, layer_table, uninstall, unattributed
from validate import check_packet, validate_pcap

from repro.net.headers import IPProto, TCPHeader, UDPHeader
from repro.net.packet import build_packet
from repro.net.pcap import PcapWriter

HERE = Path(__file__).resolve().parent
DECLARED = json.loads((bench.ROOT / "BENCHMARK.json").read_text())

#: scale_smoke's tiny preset: fits in well under a second
TOY = dict(max_packets=8, latent_dim=24, hidden=48, blocks=2, timesteps=80,
           train_steps=120, controlnet_steps=50, ddim_steps=8,
           generation_batch=64)


# -- validator ----------------------------------------------------------------

def _packet(transport, payload: bytes, stamp: float):
    return build_packet(0x0A000001, 0x0A000002, transport, payload=payload,
                        timestamp=stamp)


def _pcap(packets) -> bytes:
    buf = io.BytesIO()
    PcapWriter(buf).write_many([p.to_bytes() for p in packets],
                               np.array([p.timestamp for p in packets]))
    return buf.getvalue()


def _tcp_flow():
    return [_packet(TCPHeader(src_port=40000, dst_port=443, seq=i),
                    b"x" * (10 + i), 0.5 * i) for i in range(3)]


RECORD0 = 24 + 16  # global header, first record header


def test_valid_flows_pass():
    report = validate_pcap(_pcap(_tcp_flow() * 2), [3, 3], int(IPProto.TCP))
    assert report.ok and report.packets == 6 and report.flows == 2
    udp = [_packet(UDPHeader(src_port=5000, dst_port=3478), b"abc", 0.0)]
    assert validate_pcap(_pcap(udp), [1], int(IPProto.UDP)).ok


@pytest.mark.parametrize("offset, reason", [
    (10, "ip_checksum"),  # IPv4 header checksum field
    (20 + 16, "transport_checksum"),  # TCP checksum field
])
def test_flipped_checksum_byte_fails(offset, reason):
    data = bytearray(_pcap(_tcp_flow()))
    data[RECORD0 + offset] ^= 0x01
    report = validate_pcap(bytes(data), [3], int(IPProto.TCP))
    assert report.failed_packets == 1 and report.failed_flows == 1
    assert report.reasons == {reason: 1}


def test_udp_packet_in_tcp_class_fails():
    flow = _tcp_flow()
    flow[1] = _packet(UDPHeader(src_port=5000, dst_port=53), b"q", 0.5)
    report = validate_pcap(_pcap(flow), [3], int(IPProto.TCP))
    assert report.reasons == {"class_protocol": 1}
    assert report.failed_flows == 1


def test_reversed_timestamps_fail():
    flow = _tcp_flow()
    for pkt, stamp in zip(flow, (1.0, 0.5, 0.0)):
        pkt.timestamp = stamp
    report = validate_pcap(_pcap(flow), [3], int(IPProto.TCP))
    assert report.reasons == {"timestamp_order": 2}
    assert report.failed_flows == 1


def test_truncated_record_fails():
    data = _pcap(_tcp_flow())
    report = validate_pcap(data[:-5], [3], int(IPProto.TCP))
    assert report.reasons == {"truncated": 1} and report.failed_flows == 1
    # A record cut to fewer captured bytes than the datagram holds.
    cut = bytearray(data)
    caplen, origlen = struct.unpack_from("<II", cut, 24 + 8)
    struct.pack_into("<I", cut, 24 + 8, caplen - 4)
    del cut[RECORD0 + caplen - 4:RECORD0 + caplen]
    report = validate_pcap(bytes(cut), [3], int(IPProto.TCP))
    assert report.reasons == {"truncated": 1}


def test_length_mismatches_fail():
    pkt = _tcp_flow()[0]
    pkt.ip.total_length = len(pkt.to_bytes()) + 1
    assert check_packet(pkt.to_bytes(), int(IPProto.TCP)) == "ip_length"
    udp = _packet(UDPHeader(src_port=1, dst_port=2, length=20), b"abc", 0.0)
    assert check_packet(udp.to_bytes(), int(IPProto.UDP)) == "udp_length"


def test_missing_and_extra_records_fail():
    data = _pcap(_tcp_flow())
    assert validate_pcap(data, [4], int(IPProto.TCP)).reasons == {
        "truncated": 1}
    assert validate_pcap(data, [2], int(IPProto.TCP)).reasons == {
        "extra_records": 1}


# -- spans --------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_times_and_unattributed_sum_to_wall():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    def parent():
        clock.now += 1.0
        leaf()
        clock.now += 3.0
        leaf()

    leaf = tracer.wrap(leaf, "leaf")
    parent = tracer.wrap(parent, "parent")
    start = clock()
    parent()
    clock.now += 0.5  # untraced work
    with tracer.span("tail"):
        clock.now += 1.5
    end = clock()
    table = layer_table(tracer.spans, start, end)
    assert table["parent"] == {"calls": 1, "total_s": 8.0, "self_s": 4.0}
    assert table["leaf"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0}
    rest = unattributed(tracer.spans, tracer.spans[0].thread, start, end)
    assert rest == 0.5
    assert sum(r["self_s"] for r in table.values()) + rest == end - start


def test_install_wraps_restores_and_reports_absent():
    import repro.core.postprocess as post

    original = post.repair_matrix
    tracer = Tracer()
    undo, absent = install(tracer, [
        Target("repro.core.postprocess", None, "repair_matrix", "repair"),
        Target("repro.core.postprocess", None, "no_such_fn", "gone"),
        Target("repro.no_such_module", None, "fn", "gone"),
        Target("repro.core.ddim", "NoSuchClass", "sample", "gone"),
    ])
    try:
        assert post.repair_matrix is not original
        post.repair_matrix(np.full((2, 1088), -1, dtype=np.int8))
    finally:
        uninstall(undo)
    assert post.repair_matrix is original
    assert [s.name for s in tracer.spans] == ["repair"]
    assert absent == ["repro.core.postprocess:no_such_fn",
                      "repro.no_such_module:fn",
                      "repro.core.ddim:NoSuchClass.sample"]


# -- load generator -----------------------------------------------------------

class StallingService:
    """Completes every request at once, but admission stalls once."""

    def __init__(self, stall: float):
        self.stall = stall
        self.calls = 0

    def submit(self, request):
        self.calls += 1
        if self.calls == 1:
            time.sleep(self.stall)
        future = Future()
        future.set_result(SimpleNamespace(flows=[]))
        return future


def test_open_loop_latency_counts_from_scheduled_send(monkeypatch):
    monkeypatch.setattr(bench, "WARMUP_S", 0.0)
    service = StallingService(stall=0.3)
    model = bench.Model(pipeline=None, service=service, proto=6, seconds=0)
    wl = bench.Workload("t", "open", TOY, "netflix", rate=100.0)
    loop = bench._Serve(model, wl, 0, io.BytesIO(), Tracer(enabled=False))
    _, _, timed, info = loop.open_loop(wl.rate, 1.0, seed=0)
    latencies = [loop.completed[i] - loop.due[i] for i in timed]
    assert len(latencies) == 100
    # The service itself answers instantly; requests due during the
    # stall still wait for it, and that wait is their latency.
    stalled = [lat for i, lat in zip(timed, latencies)
               if loop.due[i] - loop.due[0] < 0.2]
    assert stalled and min(stalled) > 0.05
    assert max(latencies) > 0.2
    assert info["loadgen_late_ms_p99"] > 100


# -- declarations and toy runs ------------------------------------------------

def _toy(name: str):
    return dataclasses.replace(bench.WORKLOADS[name], model=TOY)


@pytest.fixture(scope="module")
def toy_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("toy")


@pytest.fixture(scope="module")
def toy_results(toy_dir):
    mp = pytest.MonkeyPatch()
    mp.setattr(bench, "WARMUP_S", 0.3)
    mp.setattr(bench, "SETUP_REPS", 2)
    try:
        yield {
            (name, trace): (bench.run_traced(_toy(name), 0, 1.0, toy_dir,
                                             toy_dir) if trace else
                            bench.run_plain(_toy(name), 0, 1.0, toy_dir))
            for name in bench.WORKLOADS for trace in (0, 1)
        }
    finally:
        mp.undo()


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_each_workload_completes_at_toy_size(toy_results, name):
    for trace in (0, 1):
        result = toy_results[(name, trace)]
        assert result["correct"], result["info"]
        assert result["attempted"] >= 1 and result["failed"] == 0
    traced = toy_results[(name, 1)]["info"]
    assert traced["traced_matches_untraced"]
    assert traced["absent_targets"] == []
    assert traced["traced"]["failed_packets"] == 0


def test_declared_metrics_are_emitted_with_their_units(toy_results):
    names = {w["name"] for w in DECLARED["workloads"]}
    assert names == set(bench.WORKLOADS)
    for key, section in (("end_to_end", 0), ("per_layer", 1)):
        declared = {m["name"]: m["unit"] for m in DECLARED[key]}
        for name in bench.WORKLOADS:
            metrics = toy_results[(name, section)]["metrics"]
            assert {m: u for m, (_, u) in metrics.items()} == declared


def test_export_chunks_match_a_single_generate_raw(toy_results):
    info = toy_results[("export_quick", 0)]["info"]
    assert info["reference_match"] and info["latency_samples"] >= 1


def test_trace_file_is_chrome_trace_json(toy_results, toy_dir):
    path = toy_dir / "export_deep.trace.json"
    events = json.loads(path.read_text())["traceEvents"]
    assert events and {e["ph"] for e in events} == {"X"}
    assert {"core.ddim.sample", "core.pipeline.train_base"} <= {
        e["name"] for e in events}


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/bench.py", "--workload",
         "export_quick", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


# -- compare ------------------------------------------------------------------

@pytest.mark.parametrize("b, expected", [
    ([100, 101, 99, 100, 102], "unchanged"),
    ([80, 81, 79, 80, 82], "worse"),
    ([120, 121, 119, 120, 122], "better"),
    ([60, 140, 100, 70, 130], "unresolved"),
])
def test_compare_verdicts(b, expected):
    a = list(enumerate([100, 101, 99, 100, 102]))
    got, _ = compare.verdict(a, list(enumerate(b)), "higher", 0.1)
    assert got == expected
