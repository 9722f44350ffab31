"""The four workloads: set-up, rounds of timed public calls, output checks.

A workload builds its world in `setup`, then runs rounds. `prepare(k)`
makes round k's inputs from (seed, k) and any fresh state the round needs,
untimed; `round(k)` is the timed phase, a closed loop of public calls in
which each call starts after the last returns; `check(k)` verifies the
round's outputs against computations made in checks.py, untimed. Every
round of a workload has the same make-up, so whatever the run length a
run attempts whole rounds of the same operations.

What the seed drives: payload sizes and bytes, receiver sets, which
receiver reads or is revoked, the image and the raw keystream. What it
does not: the world seed and the user and file names, which fix every
RSA key and every per-file cipher key. RSA prime search and the drawn
cipher power r_n each swing a call's cost by several times, so keys that
moved with the seed would move the medians more than any change under
test; they are the same in every run and differ from file to file.
"""

import contextlib
import hashlib
import io
import os
import shutil
import time
import traceback

import numpy as np
from scipy.ndimage import gaussian_filter

from parvault import cli, prng, protocol, rsacrt
from parvault.errors import ParvaultError

import checks


class Ops:
    """Times public calls and keeps what each one returned."""

    def __init__(self, tracer=None):
        self.records = []  # kind, tag, s, bytes, failed, wrong
        self.problems = []
        self.tracer = tracer
        self.digest = hashlib.sha256()
        self.log = None  # a list while a check runs in a child process

    def run(self, kind, fn, *args, nbytes=0, tag=None, expect=None):
        """Call fn(*args) as one operation; returns (index, result, error).

        With `expect` the call must raise that error class; otherwise any
        exception marks the operation failed.
        """
        idx = len(self.records)
        if self.tracer is not None:
            self.tracer.op = idx + 1
        t0 = time.perf_counter()
        try:
            result, err = fn(*args), None
        except Exception as exc:  # one failing call must not end the run
            result, err = None, exc
        dt = time.perf_counter() - t0
        self.records.append({"kind": kind, "tag": tag, "s": dt,
                             "bytes": nbytes, "failed": False,
                             "wrong": False})
        if expect is not None:
            if not isinstance(err, expect):
                self.wrong(idx, f"expected {expect.__name__}, got "
                                f"{type(err).__name__}")
        elif err is not None:
            self.records[idx]["failed"] = True
            self.problems.append(f"op {idx} {kind}: " + "".join(
                traceback.format_exception_only(type(err), err)).strip())
        self.digest.update(repr((kind, result, type(err).__name__,
                                 str(err) if err else "")).encode())
        return idx, result, err

    def wrong(self, idx, message):
        """Record a failed output check against operation idx."""
        self.records[idx]["wrong"] = True
        self.problems.append(f"op {idx} {self.records[idx]['kind']}: "
                             f"{message}")
        if self.log is not None:
            self.log.append(("wrong", idx, message))

    def note(self, *values):
        """Fold a hash of state that later calls could change into the
        digest."""
        for v in values:
            h = hashlib.sha256(v if isinstance(v, bytes)
                               else repr(v).encode()).digest()
            self.digest.update(h)
            if self.log is not None:
                self.log.append(("note", h))

    def replay(self, log):
        """Apply what a check run in a child process recorded in its log."""
        for entry in log:
            if entry[0] == "wrong":
                self.wrong(*entry[1:])
            else:
                self.digest.update(entry[1])


def cli_call(argv):
    """parvault.cli.main in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse refusals
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _exit_code(res):
    return None if res is None else res[0]


def _bytes(rng, size):
    return rng.integers(0, 256, size, dtype=np.uint8).tobytes()


class Workload:
    setup_reps = 7  # set-ups per measured run, spread between its rounds
    # what check() and finish() keep for later checks and the result
    CHECK_STATE = ("cloud_bytes", "plain_bytes", "trace_hashes")

    def __init__(self, seed, ops):
        self.seed = seed
        self.ops = ops
        self.trace_hashes = []
        self.cloud_bytes = 0
        self.plain_bytes = 0

    def rng(self, k):
        """Round k's input stream; k=None is set-up's."""
        key = [0] if k is None else [1, k]
        return np.random.default_rng([self.seed % 2**64] + key)

    def adopt(self, world):
        """Take the world built by the first set-up; the later set-ups of
        a run are timed and dropped."""
        self.world = world

    def cloud_expansion(self):
        return self.cloud_bytes / self.plain_bytes

    def finish(self):
        """Checks that span the whole run."""


# ---------------------------------------------------------------------------
# Simulation workloads: audits shared by bulk and sharing
# ---------------------------------------------------------------------------

def audit_file(ops, sim, fid, payload, owner, members, store_idx):
    """Check one stored file of a Simulation against independent
    computations; returns the needles its secrets give the leak scan."""
    raw = sim.cloud_blobs[fid]
    for msg in checks.blob_problems(raw, len(payload), sim.precision):
        ops.wrong(store_idx, f"{fid}: {msg}")
    state = sim.server_files[fid]
    tokens = [state["org_token"]] + [
        sim.user_state[u]["points"][fid] for u in [owner] + members]
    stale = [t["x"] for t in tokens if t["epoch"] != state["key_epoch"]]
    if stale:
        ops.wrong(store_idx, f"{fid}: tokens x={stale} not at the current "
                             "key epoch")
        return []
    try:
        a0 = sim.server_reconstruct(fid, tokens[:3])
    except ParvaultError as exc:
        ops.wrong(store_idx, f"{fid}: reconstruction refused: {exc}")
        return []
    other = [(t["x"], t["y"]) for t in tokens[-3:]]
    if checks.lagrange_at_zero(other, sim.p) != a0:
        ops.wrong(store_idx, f"{fid}: Lagrange over x="
                             f"{[x for x, _ in other]} disagrees")
    for uid in [owner] + members:
        kp = sim.user_state[uid]["rsa"]
        if checks.unwrap_plain(state["wrapped"][uid], kp.d, kp.n) != a0:
            ops.wrong(store_idx, f"{fid}: {uid}'s wrapped key does not "
                                 "frame the secret")
    r_n, pk_sk = rsacrt.decode_payload(a0)
    off = checks.off_codebook(checks.read_blob(raw)["lines"], pk_sk, r_n,
                              sim.precision)
    if off:
        ops.wrong(store_idx, f"{fid}: {len(off)} element values off the "
                             "codebook")
    needles = [str(pk_sk).encode(), str(a0).encode()]
    needles += [str(t["y"]).encode() for t in tokens
                if len(str(t["y"])) >= checks.NEEDLE_SUBSTRING_MIN]
    return needles


def scan_cloud(ops, sim, needles_by_op, users):
    """The criterion-9 scan: no secret of any file and no private exponent
    may appear in the serialized cloud state."""
    cloud = sim.serialized_cloud_state()
    exponents = [str(sim.user_state[u]["rsa"].d).encode() for u in users]
    all_needles = set(exponents)
    for needles in needles_by_op.values():
        all_needles.update(needles)
    hits = checks.leaked(cloud, all_needles)
    for idx, needles in needles_by_op.items():
        found = hits.intersection(needles)
        if found:
            ops.wrong(idx, f"cloud holds {len(found)} of the file's secrets")
    if hits.intersection(exponents):
        ops.wrong(min(needles_by_op), "cloud holds a private exponent")
    return len(cloud)


# ---------------------------------------------------------------------------
# bulk: per-byte work
# ---------------------------------------------------------------------------

class Bulk(Workload):
    """One owner, two receivers, default parameters (512-bit RSA, F=50,
    drawn power). A round stores 16 payloads, one per octave of 1 B ..
    64 KiB, sized at the octave's log-midpoint 2**(j + 0.5) moved by up
    to 1/20 octave (so 1 B to about 48 KiB): every round holds the same
    spread of sizes and about the same bytes; it then reads each back. Every round has a
    fresh world (same seed, same keys) so memory does not grow with the
    run."""

    WORLD_SEED = 9091
    USERS = (("opal", ["org:lab", "role:owner"], "owner"),
             ("ursa", ["org:lab"], "user"),
             ("vern", ["org:lab", "desk:9"], "user"))
    OCTAVES = 16
    JITTER = 0.05  # octaves

    def setup(self):
        sim = protocol.Simulation(seed=self.WORLD_SEED)
        for uid, creds, kind in self.USERS:
            sim.register(uid, creds, kind)
        return sim

    def prepare(self, k):
        if k > 0:
            self.world = self.setup()
        rng = self.rng(k)
        files = []
        for j in range(self.OCTAVES):
            size = int(2 ** (j + 0.5 + rng.uniform(-self.JITTER,
                                                    self.JITTER)))
            reader = ("ursa", "vern")[int(rng.integers(2))]
            files.append((f"bulk-{k:03d}-{j:02d}", _bytes(rng, size), reader))
        self.files = [files[i] for i in rng.permutation(len(files))]

    def round(self, k):
        sim, ops = self.world, self.ops
        self.stores, self.reads = {}, []
        for name, payload, _ in self.files:
            self.stores[name], _, _ = ops.run(
                "store", sim.store_file, "opal", payload, ["ursa", "vern"],
                name, nbytes=len(payload))
        for name, payload, reader in self.files:
            idx, out, _ = ops.run("access", sim.request_access, reader, name,
                                  nbytes=len(payload))
            self.reads.append((idx, out, payload))

    def check(self, k):
        ops, sim = self.ops, self.world
        for idx, out, payload in self.reads:
            if out != payload:
                ops.wrong(idx, "returned bytes differ from the payload")
        needles = {}
        for name, payload, _ in self.files:
            needles[self.stores[name]] = audit_file(
                ops, sim, name, payload, "opal", ["ursa", "vern"],
                self.stores[name])
        self.cloud_bytes += scan_cloud(ops, sim, needles,
                                       [u for u, _, _ in self.USERS])
        self.plain_bytes += sum(len(p) for _, p, _ in self.files)
        self.trace_hashes.append(sim.bus.trace_hash())
        ops.note(sim.serialized_cloud_state())


# ---------------------------------------------------------------------------
# sharing: per-key and per-receiver work
# ---------------------------------------------------------------------------

class Sharing(Workload):
    """The attribute experiment with churn, at the `parvault bench` profile
    (1024-bit RSA, 20-bit base, power pinned at 4, F=30). The owner holds
    32 attributes and 32 receivers hold one each. A round shares one file
    with each of 2, 4, 8, 16 and 32 receivers (200..999 B), has up to
    three receivers read it, revokes one (whose read is then refused),
    grants them back and lets them read; then one new user registers, is
    granted one of the round's files and reads it."""

    WORLD_SEED = 4243
    PARAMS = dict(rsa_bits=1024, pk_bits=20, key_power=4, precision=30)
    ATTRS = 32
    RECEIVER_COUNTS = (2, 4, 8, 16, 32)
    setup_reps = 3  # 33 keygens of 1024 bits each
    CHECK_STATE = Workload.CHECK_STATE + ("needles",)

    def setup(self):
        sim = protocol.Simulation(seed=self.WORLD_SEED, **self.PARAMS)
        sim.register("owner", [f"attr:{i:02d}" for i in range(self.ATTRS)],
                     "owner")
        for i in range(self.ATTRS):
            sim.register(f"user-{i:02d}", [f"holds:attr:{i:02d}"])
        return sim

    def adopt(self, world):
        self.world = world
        self.files = {}  # name -> (payload, store op)
        self.needles = {}

    def prepare(self, k):
        rng = self.rng(k)
        plan = []
        for r in rng.permutation(self.RECEIVER_COUNTS):
            picked = rng.choice(self.ATTRS, int(r), replace=False)
            receivers = sorted(f"user-{i:02d}" for i in picked)
            payload = _bytes(rng, int(rng.integers(200, 1000)))
            readers = [str(u) for u in rng.choice(receivers, min(3, int(r)),
                                                  replace=False)]
            revoked = receivers[int(rng.integers(len(receivers)))]
            plan.append((f"share-{k:03d}-{int(r):02d}", payload, receivers,
                         readers, revoked))
        self.plan = plan
        self.late = (f"late-{k:03d}", int(rng.integers(len(plan))))

    def round(self, k):
        sim, ops = self.world, self.ops
        self.reads, self.round_files = [], []
        for name, payload, receivers, readers, revoked in self.plan:
            idx, _, _ = ops.run("store", sim.store_file, "owner", payload,
                                receivers, name, nbytes=len(payload),
                                tag=len(receivers))
            self.files[name] = (payload, idx)
            self.round_files.append(name)
            for uid in readers:
                self._access(uid, name, payload)
            ops.run("revoke", sim.revoke_and_reencrypt, "owner", name,
                    revoked)
            ops.run("deny", sim.request_access, revoked, name,
                    expect=protocol.AccessDeniedError)
            ops.run("grant", sim.re_grant, "owner", name, revoked)
            self._access(revoked, name, payload)
        uid, which = self.late
        name, payload = self.plan[which][0], self.plan[which][1]
        ops.run("register", sim.register, uid, [f"holds:{uid}"])
        ops.run("grant", sim.re_grant, "owner", name, uid)
        self._access(uid, name, payload)

    def _access(self, uid, name, payload):
        idx, out, _ = self.ops.run("access", self.world.request_access, uid,
                                   name, nbytes=len(payload))
        self.reads.append((idx, out, payload))

    def check(self, k):
        ops, sim = self.ops, self.world
        for idx, out, payload in self.reads:
            if out != payload:
                ops.wrong(idx, "returned bytes differ from the payload")
        for name in self.round_files:
            payload, idx = self.files[name]
            members = sorted(sim.policy_db.get_policy(name)
                             .authorized_user_ids)
            self.needles[idx] = audit_file(ops, sim, name, payload, "owner",
                                           members, idx)

    def finish(self):
        sim = self.world
        self.cloud_bytes = scan_cloud(self.ops, sim, self.needles,
                                      list(sim.user_state))
        self.plain_bytes = sum(len(p) for p, _ in self.files.values())
        self.trace_hashes.append(sim.bus.trace_hash())
        self.ops.note(sim.serialized_cloud_state())


# ---------------------------------------------------------------------------
# vault: the CLI and its journal replay
# ---------------------------------------------------------------------------

class Vault(Workload):
    """`parvault share|access|revoke` through parvault.cli.main. Set-up
    initializes a vault with one 4 KiB share from olga to rena, sam and
    tom (registrations and their keygen happen there). A round copies
    that vault and runs three 4 KiB shares, doc0..doc2, to the same three
    receivers, each followed by one receiver's access, then revokes a
    receiver from doc0 and from doc2, each followed by that receiver's
    access, which must be refused. Every round uses the same file names,
    so the same keys: rounds differ only in the bytes and in who reads
    and who is revoked. Latency grows with the journal, so a round holds
    an odd number of shares and accesses: their medians then fall on the
    middle command of every round."""

    OWNER, USERS = "olga", ("rena", "sam", "tom")
    SIZE = 4096
    SHARES = 3
    REVOKED_DOCS = (0, 2)
    SETUP_DIR = "vault-setup"

    def setup(self):
        shutil.rmtree(self.SETUP_DIR, ignore_errors=True)
        os.makedirs("in", exist_ok=True)
        with open("in/setup.bin", "wb") as fh:
            fh.write(_bytes(self.rng(None), self.SIZE))
        rc, out, err = cli_call(self._share("in/setup.bin", self.SETUP_DIR))
        if rc != 0:
            raise RuntimeError(f"vault set-up share failed: {err.strip()}")

    def _share(self, path, vdir):
        return ["share", path, "--out", vdir, "--owner", self.OWNER,
                "--users", ",".join(self.USERS)]

    def prepare(self, k):
        if k > 0:
            shutil.rmtree(f"vault-{k - 1:03d}", ignore_errors=True)
        self.vdir = f"vault-{k:03d}"
        shutil.rmtree(self.vdir, ignore_errors=True)
        shutil.copytree(self.SETUP_DIR, self.vdir)
        rng = self.rng(k)
        self.files = []
        for j in range(self.SHARES):
            name = f"doc{j}.bin"
            data = _bytes(rng, self.SIZE)
            with open(f"in/{name}", "wb") as fh:
                fh.write(data)
            self.files.append((name, data, self.USERS[int(rng.integers(3))]))
        self.revokes = [(self.files[j][0], self.USERS[int(rng.integers(3))])
                        for j in self.REVOKED_DOCS]

    def round(self, k):
        ops, vdir = self.ops, self.vdir
        self.shares, self.reads, self.rekeys = [], [], []
        for name, data, reader in self.files:
            idx, res, _ = ops.run("store", cli_call,
                                  self._share(f"in/{name}", vdir),
                                  nbytes=len(data))
            self.shares.append((idx, res))
            idx, res, _ = ops.run("access", cli_call,
                                  ["access", name, "--out", vdir, "--user",
                                   reader], nbytes=len(data))
            self.reads.append((idx, res, name, data))
        for name, uid in self.revokes:
            before = hashlib.sha256(_read(f"{vdir}/{name}.blob")).digest()
            idx, res, _ = ops.run("revoke", cli_call,
                                  ["revoke", name, "--out", vdir, "--user",
                                   uid])
            d_idx, d_res, _ = ops.run("deny", cli_call,
                                      ["access", name, "--out", vdir,
                                       "--user", uid])
            self.rekeys.append((idx, res, name, before, d_idx, d_res))

    def check(self, k):
        ops, vdir = self.ops, self.vdir
        for idx, res in self.shares:
            if _exit_code(res) != 0:
                ops.wrong(idx, f"share did not exit 0: {res!r}")
        for idx, res, name, data in self.reads:
            if _exit_code(res) != 0:
                ops.wrong(idx, f"access did not exit 0: {res!r}")
            elif _read(f"{vdir}/{name}.plain") != data:
                ops.wrong(idx, f"{name}.plain differs from the source")
        for idx, res, name, before, d_idx, d_res in self.rekeys:
            after = hashlib.sha256(_read(f"{vdir}/{name}.blob")).digest()
            if _exit_code(res) != 0 or after == before:
                ops.wrong(idx, f"revoke gave {res!r}; blob "
                               f"{'unchanged' if after == before else 'changed'}")
            if _exit_code(d_res) != 1 or d_res[1] \
                    or d_res[2].count("\n") != 1 \
                    or "AccessDeniedError" not in d_res[2]:
                ops.wrong(d_idx, f"expected one denial line, got {d_res!r}")
        journal = _read(f"{vdir}/vault.jsonl").decode().splitlines()
        # the header, set-up's registrations of olga and the three
        # receivers and its store, then one line per command of the round
        setup_lines = 1 + (1 + len(self.USERS)) + 1
        want = setup_lines + 2 * self.SHARES + 2 * len(self.REVOKED_DOCS)
        if len(journal) != want or '"_config"' not in journal[0]:
            ops.wrong(len(ops.records) - 1,
                      f"journal has {len(journal)} lines, expected {want}")
        blobs = [f for f in sorted(os.listdir(vdir)) if f.endswith(".blob")]
        for f in blobs:
            ops.note(f, _read(f"{vdir}/{f}"))
            self.cloud_bytes += os.path.getsize(f"{vdir}/{f}")
        self.plain_bytes += self.SIZE * (1 + self.SHARES)
        ops.note(journal)


# ---------------------------------------------------------------------------
# analyze: the statistics suite
# ---------------------------------------------------------------------------

class Analyze(Workload):
    """A 250x500 smoothed-noise PGM image (125,000 pixels) and a raw
    keystream file of 125,000 bytes (1 Mbit) are made in set-up. A round
    encrypts the image with `parvault encrypt`, runs `analyze nist` on the
    blob and on the raw file, `analyze hist` on the raw file, `analyze
    corr` on the image against its blob, and decrypts the blob."""

    ROWS, COLS = 250, 500
    KEYSTREAM_BYTES = 125_000
    ENCRYPT_SEED = 7070  # fixes the cipher key, and with it r_n
    PRECISION = 50  # `parvault encrypt`'s default --precision

    def setup(self):
        rng = self.rng(None)
        field = gaussian_filter(rng.standard_normal((self.ROWS, self.COLS)),
                                sigma=6, mode="reflect")
        lo, hi = field.min(), field.max()
        pixels = np.rint((field - lo) * (255.0 / (hi - lo))).astype(np.uint8)
        image = (f"P5\n{self.COLS} {self.ROWS}\n255\n".encode()
                 + pixels.tobytes())
        with open("img.pgm", "wb") as fh:
            fh.write(image)
        base = prng.DEFAULT_CONFIG
        cfg = prng.GeneratorConfig(seed=int(rng.integers(1, 1 << 60)),
                                   m=base.m, i_num=base.i_num)
        keystream = prng.generate_bytes(cfg, self.KEYSTREAM_BYTES)
        with open("ks.bin", "wb") as fh:
            fh.write(keystream)
        return image, keystream

    def adopt(self, world):
        self.image, self.keystream = world

    def prepare(self, k):
        for d in ("enc", "nist-blob", "nist-raw", "hist", "corr", "dec"):
            shutil.rmtree(d, ignore_errors=True)

    def round(self, k):
        ops, n = self.ops, len(self.image)
        self.res = {
            "store": ops.run("store", cli_call,
                             ["encrypt", "img.pgm", "--out", "enc", "--seed",
                              str(self.ENCRYPT_SEED)], nbytes=n),
            "nist_blob": ops.run("nist", cli_call,
                                 ["analyze", "nist", "enc/img.blob", "--out",
                                  "nist-blob"], tag="blob"),
            "nist_raw": ops.run("nist", cli_call,
                                ["analyze", "nist", "ks.bin", "--out",
                                 "nist-raw"], tag="raw"),
            "hist": ops.run("hist", cli_call,
                            ["analyze", "hist", "ks.bin", "--out", "hist"]),
            "corr": ops.run("corr", cli_call,
                            ["analyze", "corr", "img.pgm", "--encrypted",
                             "enc/img.blob", "--out", "corr", "--seed",
                             str(self.seed)]),
            "access": ops.run("access", cli_call,
                              ["decrypt", "enc/img.blob", "--key",
                               "enc/img.key", "--out", "dec"], nbytes=n),
        }

    def check(self, k):
        ops = self.ops
        for key, (idx, res, _) in self.res.items():
            if _exit_code(res) != 0:
                ops.wrong(idx, f"{key} did not exit 0: {res!r}")
                return
        idx = self.res["store"][0]
        raw = _read("enc/img.blob")
        for msg in checks.blob_problems(raw, len(self.image), self.PRECISION):
            ops.wrong(idx, msg)
        key = dict(line.split(" = ") for line in
                   _read("enc/img.key").decode().splitlines()[1:])
        lines = checks.read_blob(raw)["lines"]
        if checks.off_codebook(lines, int(key["pk_sk"]),
                               int(key["r_n"]), self.PRECISION):
            ops.wrong(idx, "blob elements off the codebook")
        for name, data in (("blob", checks.rank_bytes(lines)),
                           ("raw", self.keystream)):
            report = _read(f"nist-{name}/nist_report.txt").decode()
            for msg in checks.report_problems(report, data):
                ops.wrong(self.res[f"nist_{name}"][0], msg)
        idx, (_, out, _), _ = self.res["hist"]
        for msg in checks.hist_problems(
                out, _read("hist/histogram.csv").decode(), self.keystream):
            ops.wrong(idx, msg)
        idx, (_, out, _), _ = self.res["corr"]
        for msg in checks.corr_problems(out):
            ops.wrong(idx, msg)
        if _read("dec/img.out") != self.image:
            ops.wrong(self.res["access"][0], "decrypted image differs")
        self.cloud_bytes += len(raw)
        self.plain_bytes += len(self.image)
        for path in ("enc/img.blob", "nist-blob/nist_report.txt",
                     "nist-raw/nist_report.txt", "corr/correlation.csv",
                     "dec/img.out"):
            ops.note(path, _read(path))


WORKLOADS = {"bulk": Bulk, "sharing": Sharing, "vault": Vault,
             "analyze": Analyze}

# rounds in each pass of a traced run, so its counts are exact for a seed
TRACE_ROUNDS = {"bulk": 2, "sharing": 3, "vault": 1, "analyze": 1}

