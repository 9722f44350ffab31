"""Each output check of the benchmark must fail on a corrupted result.

    python3 -m pytest perfbench -q

Every test first shows the check passing on the program's real output,
then corrupts that output one way and shows the check reporting it.
"""

import json
import os
import re
import resource
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from parvault import protocol, rsacrt  # noqa: E402


class SmallBulk(workloads.Bulk):
    OCTAVES = 8  # payloads of 1..255 bytes keep the test fast


@pytest.fixture(scope="module")
def bulk():
    wl = SmallBulk(5, workloads.Ops())
    wl.adopt(wl.setup())
    wl.prepare(0)
    wl.round(0)
    return wl


def _fresh_ops(wl):
    wl.ops.records = [dict(r, wrong=False) for r in wl.ops.records]
    wl.ops.problems = []
    return wl.ops


def _wrong(ops):
    return [i for i, r in enumerate(ops.records) if r["wrong"]]


def test_bulk_round_passes_its_checks(bulk):
    ops = _fresh_ops(bulk)
    bulk.check(0)
    assert _wrong(ops) == [], ops.problems


def test_flipped_plaintext_byte_fails(bulk):
    ops = _fresh_ops(bulk)
    idx, out, payload = bulk.reads[0]
    bulk.reads[0] = (idx, bytes([out[0] ^ 1]) + out[1:], payload)
    try:
        bulk.check(0)
    finally:
        bulk.reads[0] = (idx, out, payload)
    assert _wrong(ops) == [idx]


def _stored(bulk):
    name, payload, _ = bulk.files[0]
    return name, payload, bulk.stores[name]


def test_element_off_the_codebook_fails(bulk):
    name, payload, idx = _stored(bulk)
    sim = bulk.world
    raw = sim.cloud_blobs[name]
    head, body = raw[:checks.BLOB_HEADER_LEN], raw[checks.BLOB_HEADER_LEN:]
    lines = body.split(b"\n")
    # three units in the last place: more than 10**-F from any codebook value
    last = lines[0][-1] - ord("0")
    lines[0] = lines[0][:-1] + str((last + 3) % 10).encode()
    ops = _fresh_ops(bulk)
    assert workloads.audit_file(ops, sim, name, payload, "opal",
                                ["ursa", "vern"], idx)
    assert _wrong(ops) == []
    sim.cloud_blobs[name] = head + b"\n".join(lines)
    try:
        workloads.audit_file(ops, sim, name, payload, "opal",
                             ["ursa", "vern"], idx)
    finally:
        sim.cloud_blobs[name] = raw
    assert _wrong(ops) == [idx]
    assert "off the codebook" in ops.problems[0]


def test_wrong_secret_fails(bulk):
    name, payload, idx = _stored(bulk)
    sim = bulk.world
    token = sim.user_state["vern"]["points"][name]
    ops = _fresh_ops(bulk)
    token["y"] += 1  # Lagrange over opal, ursa, vern now misses the secret
    try:
        workloads.audit_file(ops, sim, name, payload, "opal",
                             ["ursa", "vern"], idx)
    finally:
        token["y"] -= 1
    assert _wrong(ops) == [idx]
    assert "Lagrange" in ops.problems[0]

    wrapped = sim.server_files[name]["wrapped"]
    ops = _fresh_ops(bulk)
    kept = wrapped["ursa"]
    wrapped["ursa"] = rsacrt.wrap(2, 99,
                                  sim.user_state["ursa"]["rsa"].public).p_k
    try:
        workloads.audit_file(ops, sim, name, payload, "opal",
                             ["ursa", "vern"], idx)
    finally:
        wrapped["ursa"] = kept
    assert "ursa's wrapped key" in " ".join(ops.problems)


def test_planted_needle_is_found(bulk):
    name, payload, idx = _stored(bulk)
    ops = _fresh_ops(bulk)
    needles = workloads.audit_file(ops, bulk.world, name, payload, "opal",
                                   ["ursa", "vern"], idx)
    cloud = bulk.world.serialized_cloud_state()
    assert checks.leaked(cloud, needles) == set()
    for needle in needles:
        planted = cloud[:1000] + needle + cloud[1000:]
        assert checks.leaked(planted, needles) == {needle}
    short = b"1234567"
    assert checks.leaked(cloud + b'"k": 1234567,', [short]) == {short}
    assert checks.leaked(cloud + b"91234567.5", [short]) == set()

    ops = _fresh_ops(bulk)
    bulk.world.cloud_blobs["zz-leak"] = needles[0]
    try:
        workloads.scan_cloud(ops, bulk.world, {idx: needles}, ["opal"])
    finally:
        del bulk.world.cloud_blobs["zz-leak"]
    assert _wrong(ops) == [idx]


def test_refused_access_must_raise_access_denied(bulk):
    ops = _fresh_ops(bulk)
    name = bulk.files[0][0]
    idx, _, _ = ops.run("deny", bulk.world.request_access, "ursa", name,
                        expect=protocol.AccessDeniedError)
    assert _wrong(ops) == [idx]
    ops.records.pop()


# ---------------------------------------------------------------------------
# analyze outputs
# ---------------------------------------------------------------------------

@pytest.fixture
def keystream(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    data = np.random.default_rng(11).bytes(4096)
    Path("ks.bin").write_bytes(data)
    return data


def test_mismatched_chi_square_fails(keystream):
    rc, out, _ = workloads.cli_call(["analyze", "hist", "ks.bin",
                                     "--out", "h"])
    assert rc == 0
    csv = Path("h/histogram.csv").read_text()
    assert checks.hist_problems(out, csv, keystream) == []
    chi2 = float(out.split("chi2 = ")[1].split()[0])
    bad = out.replace(f"chi2 = {chi2:.2f}", f"chi2 = {chi2 + 0.05:.2f}")
    assert any("chi2" in m for m in checks.hist_problems(bad, csv, keystream))
    rows = csv.splitlines()
    rows[1] = "0,999999"
    assert checks.hist_problems(out, "\n".join(rows), keystream)


def test_battery_report_checks(keystream):
    big = np.random.default_rng(12).bytes(125_000)  # 1 Mbit
    Path("big.bin").write_bytes(big)
    assert workloads.cli_call(["analyze", "nist", "big.bin",
                               "--out", "n"])[0] == 0
    report = Path("n/nist_report.txt").read_text()
    assert checks.report_problems(report, big) == []
    p = report.split("frequency")[1].split("p=")[1].split()[0]
    wrong_p = report.replace(f"p={p}", "p=0.123456", 1)
    assert any("monobit" in m for m in checks.report_problems(wrong_p, big))
    skipped = re.sub(r"(linear_complexity\s+)\w+", r"\1SKIP", report)
    assert any("linear_complexity" in m
               for m in checks.report_problems(skipped, big))


def test_correlation_band():
    good = ("  h: original +0.9961  encrypted -0.0037\n"
            "  v: original +0.9965  encrypted +0.0177\n"
            "  d: original +0.9924  encrypted -0.0028\n")
    assert checks.corr_problems(good) == []
    assert checks.corr_problems(good.replace("-0.0037", "+0.4100"))
    assert checks.corr_problems(good.replace("+0.9961", "+0.5000"))


# ---------------------------------------------------------------------------
# the declared metrics are the reported ones
# ---------------------------------------------------------------------------

def test_benchmark_json_matches_reported_metrics(bulk):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == dict(tracer.metric_names())
    result, _ = run.summarize(bulk, [0.1], [1.0])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    assert sorted(w["name"] for w in spec["workloads"]) == \
        sorted(workloads.WORKLOADS)


# ---------------------------------------------------------------------------
# checks run in a child process and report back
# ---------------------------------------------------------------------------

class _Probe:
    CHECK_STATE = ("seen",)

    def __init__(self):
        self.ops = workloads.Ops()
        self.ops.run("store", lambda: b"out")
        self.seen = None

    def check(self, k):
        self.ops.wrong(0, "planted")
        self.ops.note(b"state", k)
        self.seen = (os.getpid(), k)
        self.ballast = b"\x01" * (64 << 20)  # touched, so resident


def test_child_check_reports_back_and_keeps_its_memory():
    probe, here = _Probe(), _Probe()
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    run.in_child(probe, probe.check, 3)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss < rss + 16 * 1024
    here.check(3)
    assert probe.ops.records[0]["wrong"]
    assert probe.ops.problems == here.ops.problems
    assert probe.ops.digest.digest() == here.ops.digest.digest()
    assert probe.seen[1] == 3 and probe.seen[0] != os.getpid()
    assert not hasattr(probe, "ballast")


def test_child_check_that_raises_ends_the_run():
    probe = _Probe()

    def broken():
        raise ValueError("bad check")

    with pytest.raises(RuntimeError, match="bad check"):
        run.in_child(probe, broken)
