"""Command-line front end.

Wires every module into subcommands: key generation, standalone
encrypt/decrypt, the vault workflow (share, access, revoke) backed by a
replayable journal, scripted simulation, the statistics runs, and the
attribute-count benchmark. Everything is seed-deterministic: the same
flags produce byte-identical artifacts. Each subcommand takes only the
flags it reads, and refuses a pair of flags of which it would ignore one.
The statistics package, and scipy with it, is imported only by the
analyze and bench commands, so the others start without it.

The vault model deserves a note. A journal (vault.jsonl in the output
directory) records every command as one JSON line; each invocation
takes the deterministic world the journal describes, applies its own
command, and appends it. The journal's first line pins the world's seed,
prime, RSA size and precision. The first `share` writes it from its
flags, and Simulation's defaults for any left out; a later `share`
refuses a flag that differs from it, and `access` and `revoke` take none
of these flags. Beside the journal and the cloud-visible blobs, two files
are derived from it:

- keys.json maps each registered user id to the primes and public
  exponent of their RSA keypair, so that no command searches for a
  user's primes again. A command that journals anything rewrites it when
  a registered user has no entry in it, which covers a new registration
  and a vault written before the file existed.
- checkpoint.json holds the world that replaying the journal would build,
  minus the blobs (Simulation.world_state(): registry and policies, each
  user's points, the server's per-file bookkeeping), with the SHA-256 of
  the journal and keys.json it was derived from and of each file's blob.
  Every journaling command rewrites it. A command restores the world
  from it when both digests match the files on disk and, for `access`
  and `revoke`, the file's blob matches its digest; only then is that
  one blob read. Any other case replays the whole journal, as a vault
  without the file does. It is keyed on content, so a copied vault keeps
  it. The message bus is not kept: no vault command reads a trace.

Both are written with a temp file and a rename, mode 0600, and neither
adds a secret: every key derives from the seed in the journal's header
and the user id, and the checkpoint from the journal and the keys. A
malformed one is refused with one error line (a checkpoint's world only
when its digests match). The output directory is not
what the cloud would hold: each `share` record keeps the shared file's
plaintext as `data_hex`, because a replay needs it, so the directory must
stay with the owner.
"""

import argparse
import functools
import hashlib
import json
import os
import re
import sys
import tempfile
import time
from dataclasses import dataclass, field

from . import fbsc, prng, protocol, rsacrt
from .digests import digest64_ints, digest64_text
from .errors import ParvaultError, ValidationError

_BENCH_DEFAULTS = dict(rsa_bits=1024, pk_bits=20, key_power=4, precision=30,
                       payload=128)


def _diagnostic(exc):
    mod = exc.__class__.__module__.rsplit(".", 1)[-1]
    return f"error: {mod}.{exc.__class__.__name__}: {exc}"


def _derived(seed, tag):
    """The generator reseeded from (seed, tag)."""
    return prng.DEFAULT_CONFIG.reseeded(
        digest64_ints(seed, digest64_text(tag)))


def _seeded_key(args, tag):
    return fbsc.generate_key(_derived(args.seed, tag))


def _ensure_out(args):
    os.makedirs(args.out, exist_ok=True)
    return args.out


# ---------------------------------------------------------------------------
# key files for the standalone cipher path
# ---------------------------------------------------------------------------

def _write_keyfile(path, key, stream_seed):
    with open(path, "w") as fh:
        fh.write("[fbsc]\n")
        fh.write(f"pk_sk = {key.pk_sk}\n")
        fh.write(f"r_n = {key.r_n}\n")
        fh.write(f"stream_seed = {stream_seed}\n")


def _decode(raw, path, what):
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{what} {path!r} is not UTF-8 text: "
                              f"{exc}") from None


def _read_text(path, what):
    with open(path, "rb") as fh:
        return _decode(fh.read(), path, what)


def _read_file(path):
    """The bytes of path, or None when there is no such file."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def _read_keyfile(path):
    values = {}
    for line in _read_text(path, "key file").splitlines():
        line = line.strip()
        if not line or line.startswith(("#", "[")):
            continue
        name, _, value = line.partition("=")
        try:
            values[name.strip()] = int(value.strip())
        except ValueError:
            raise ValidationError(f"key file {path!r}: {name.strip()} = "
                                  f"{value.strip()!r} is not an integer"
                                  ) from None
    for need in ("pk_sk", "r_n", "stream_seed"):
        if need not in values:
            raise ValidationError(f"key file {path!r} lacks {need}")
    key = fbsc.SymmetricKey(pk_sk=values["pk_sk"], r_n=values["r_n"])
    return key, values["stream_seed"]


def _stream_configs(stream_seed):
    return _derived(stream_seed, "padding"), _derived(stream_seed, "keystream")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_keygen(args):
    out = _ensure_out(args)
    kp = rsacrt.keygen(args.rsa_bits, seed=args.seed)
    rsacrt.save_private(kp, os.path.join(out, "rsa_private.txt"))
    rsacrt.save_public(kp.public, os.path.join(out, "rsa_public.txt"))
    key = _seeded_key(args, "keygen")
    stream_seed = digest64_ints(args.seed, digest64_text("stream"))
    _write_keyfile(os.path.join(out, "symmetric.key"), key, stream_seed)
    print(f"rsa_private.txt rsa_public.txt  ({args.rsa_bits}-bit, e={kp.e})")
    print(f"symmetric.key  (r_n={key.r_n}, {len(str(key.pk_sk))}-digit base)")
    return 0


def _cmd_encrypt(args):
    out = _ensure_out(args)
    with open(args.file, "rb") as fh:
        data = fh.read()
    stem = os.path.splitext(os.path.basename(args.file))[0]
    if args.key:
        key, stream_seed = _read_keyfile(args.key)
    else:
        key = _seeded_key(args, "encrypt")
        stream_seed = digest64_ints(args.seed, digest64_text("stream"))
        keypath = os.path.join(out, stem + ".key")
        _write_keyfile(keypath, key, stream_seed)
        print(f"wrote {keypath}")
    blob = fbsc.seal(data, key, *_stream_configs(stream_seed), args.precision)
    blobpath = os.path.join(out, stem + ".blob")
    with open(blobpath, "wb") as fh:
        fh.write(fbsc.serialize_blob(blob))
    print(f"wrote {blobpath}  ({len(data)} bytes -> {len(blob.elements)} "
          "elements)")
    return 0


def _cmd_decrypt(args):
    out = _ensure_out(args)
    with open(args.blob, "rb") as fh:
        blob = fbsc.parse_blob(fh.read())
    key, stream_seed = _read_keyfile(args.key)
    _, ks_cfg = _stream_configs(stream_seed)
    data = fbsc.unseal(blob, key, ks_cfg)
    stem = os.path.splitext(os.path.basename(args.blob))[0]
    outpath = os.path.join(out, stem + ".out")
    with open(outpath, "wb") as fh:
        fh.write(data)
    print(f"wrote {outpath}  ({len(data)} bytes)")
    return 0


# -- the journal-backed vault ------------------------------------------------

_JOURNAL = "vault.jsonl"
_KEYS = "keys.json"
_CHECKPOINT = "checkpoint.json"

# the parameters a vault pins: journal header key, which is also the flag
# name, -> the Simulation argument it sets
_PINNED = {"seed": "seed", "prime": "p", "rsa_bits": "rsa_bits",
           "precision": "precision"}

_SHA256_HEX = re.compile(r"[0-9a-f]{64}")


def _sha256(raw):
    return hashlib.sha256(raw).hexdigest()


def _json_object(raw, path, what):
    """raw, the UTF-8 JSON text of one object, parsed."""
    try:
        obj = json.loads(_decode(raw, path, what))
    except ValueError as exc:  # JSONDecodeError, or an over-long integer
        raise ValidationError(f"{path!r} is not JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ValidationError(f"{path!r} is not a JSON object")
    return obj


def _read_keys(raw, path):
    """keys.json, whose bytes are raw, as {user id: RsaKeyPair}."""
    keypairs = {}
    for uid, entry in _json_object(raw, path, "key store").items():
        if not isinstance(entry, dict) or \
                any(type(entry.get(k)) is not int for k in ("p", "q", "e")):
            raise ValidationError(f"{path!r}: the key of {uid!r} needs "
                                  "integer fields p, q and e")
        try:
            kp = rsacrt.make_keypair(entry["p"], entry["q"], entry["e"])
        except ValidationError as exc:
            raise ValidationError(f"{path!r}: the key of {uid!r}: {exc}"
                                  ) from None
        # one base-2 Fermat test per prime: a damaged prime is refused
        # here, not found later by a wrong unwrap that the journal would
        # record as a denial
        if pow(2, kp.p - 1, kp.p) != 1 or pow(2, kp.q - 1, kp.q) != 1:
            raise ValidationError(f"{path!r}: the key of {uid!r}: p or q "
                                  "is not prime")
        keypairs[uid] = kp
    return keypairs


def _write_private(out, name, obj):
    """Write obj as JSON to out/name, atomically and mode 0600; returns
    the SHA-256 of the bytes written."""
    raw = (json.dumps(obj, sort_keys=True) + "\n").encode()
    fd, tmp = tempfile.mkstemp(dir=out, prefix=".vault-")  # mode 0600
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(raw)
        os.replace(tmp, os.path.join(out, name))
    except BaseException:
        os.unlink(tmp)
        raise
    return _sha256(raw)


@dataclass
class _Vault:
    """The vault in `out` as one command loaded it."""

    out: str
    sim: protocol.Simulation
    header: dict  # the journal's first line; None for a new vault
    keyed: set  # the users keys.json holds
    journal_hash: object  # hashlib SHA-256 over the journal's bytes
    keys_sha: str  # SHA-256 of keys.json; None when there is none
    blob_sha: dict = field(default_factory=dict)  # file id -> blob SHA-256
    read_blobs: dict = field(default_factory=dict)  # file id -> bytes read


def _journal_records(lines, path):
    try:
        return [json.loads(line) for line in lines]
    except ValueError as exc:  # JSONDecodeError, or an over-long integer
        raise ValidationError(f"{path!r} holds a line that is not "
                              f"JSON: {exc}") from None


def _load_vault(out, file=None, **given):
    """The vault in `out`: its world restored from checkpoint.json when the
    checkpoint was written from the journal and keys.json on disk (and,
    for a command on `file`, from that file's blob on disk), else rebuilt
    by replaying the journal with each user's key from keys.json.

    `given` maps header keys to flag values, None where a flag was left
    out. A new vault's world takes the given ones, and Simulation's
    defaults for the rest; an existing vault refuses any that differs."""
    path = os.path.join(out, _JOURNAL)
    raw = _read_file(path) or b""
    lines = [ln for ln in _decode(raw, path, "journal").splitlines()
             if ln.strip()]
    # a restored world needs the header alone
    header = _journal_records(lines[:1], path)[0] if lines else None
    keys_path = os.path.join(out, _KEYS)
    keys_raw = _read_file(keys_path)
    keypairs = _read_keys(keys_raw, keys_path) if keys_raw is not None \
        else {}
    given = {k: v for k, v in given.items() if v is not None}
    if header is not None:
        if not isinstance(header, dict) or header.get("cmd") != "_config" \
                or any(type(header.get(k)) is not int for k in _PINNED):
            raise ValidationError(f"{path!r} lacks the _config header line")
        for k, v in given.items():
            if v != header[k]:
                raise ValidationError(
                    f"--{k.replace('_', '-')} {v} conflicts with the "
                    f"journal's {header[k]}; the vault pins its parameters")
        given = {k: header[k] for k in _PINNED}
    sim = protocol.Simulation(**{_PINNED[k]: v for k, v in given.items()},
                              keypairs=keypairs)
    vault = _Vault(out, sim, header, set(keypairs), hashlib.sha256(raw),
                   None if keys_raw is None else _sha256(keys_raw))
    if not _restore_checkpoint(vault, file):
        outcomes = protocol.replay_commands(
            sim, _journal_records(lines[1:], path))
        bad = [o for o in outcomes if not o["ok"]]
        if bad:
            raise ValidationError(f"journal replay diverged at step {bad[0]}")
    stray = sorted(vault.keyed - set(sim.user_state))
    if stray:
        raise ValidationError(f"{keys_path!r} holds a key for {stray[0]!r}, "
                              "whom the journal never registers")
    return vault


def _restore_checkpoint(vault, file):
    """Restore vault.sim from checkpoint.json if it matches the files on
    disk; returns whether it did. A malformed checkpoint is refused, a
    stale one is passed over."""
    path = os.path.join(vault.out, _CHECKPOINT)
    raw = _read_file(path)
    if raw is None:
        return False
    cp = _json_object(raw, path, "checkpoint")
    blob_sha = cp.get("blob_sha256")
    if not isinstance(blob_sha, dict) or not all(
            type(d) is str and _SHA256_HEX.fullmatch(d)
            for d in [cp.get("journal_sha256"), cp.get("keys_sha256"),
                      *blob_sha.values()]):
        raise ValidationError(f"{path!r}: every digest must be 64 "
                              "lower-case hex digits")
    if (cp["journal_sha256"], cp["keys_sha256"]) != \
            (vault.journal_hash.hexdigest(), vault.keys_sha):
        return False
    blobs = {}
    if file is not None:
        if file not in blob_sha:
            return False
        try:
            with open(os.path.join(vault.out, file + ".blob"), "rb") as fh:
                blobs[file] = fh.read()
        except OSError:
            return False
        if _sha256(blobs[file]) != blob_sha[file]:
            return False
    try:
        vault.sim.restore_world(cp.get("world"), blobs)
    except ParvaultError as exc:
        raise ValidationError(f"{path!r}: {exc}") from None
    vault.blob_sha, vault.read_blobs = blob_sha, blobs
    return True


def _append_vault(vault, new_records):
    """Append new_records to the journal, headed by the world's pinned
    parameters when the vault is new; rewrite keys.json if a registered
    user is not among those it held; then write the checkpoint of the
    world as it now stands."""
    sim = vault.sim
    if vault.header is None:
        header = {k: getattr(sim, attr) for k, attr in _PINNED.items()}
        new_records = [{"cmd": "_config", **header}, *new_records]
    raw = "".join(json.dumps(rec, sort_keys=True) + "\n"
                  for rec in new_records).encode()
    with open(os.path.join(vault.out, _JOURNAL), "ab") as fh:
        fh.write(raw)
    vault.journal_hash.update(raw)
    # after the journal, so that a failure in between leaves no key for a
    # user the journal does not register
    if sim.user_state.keys() - vault.keyed:
        vault.keys_sha = _write_private(
            vault.out, _KEYS,
            {uid: {"p": st["rsa"].p, "q": st["rsa"].q, "e": st["rsa"].e}
             for uid, st in sim.user_state.items()})
    # a blob read from disk is hashed again only if the command replaced it
    for fid, blob in sim.cloud_blobs.items():
        if blob is not vault.read_blobs.get(fid):
            vault.blob_sha[fid] = _sha256(blob)
    _write_private(vault.out, _CHECKPOINT,
                   {"journal_sha256": vault.journal_hash.hexdigest(),
                    "keys_sha256": vault.keys_sha,
                    "blob_sha256": vault.blob_sha,
                    "world": sim.world_state()})


def _write_cloud_blob(args, sim, file_id):
    blobpath = os.path.join(args.out, file_id + ".blob")
    with open(blobpath, "wb") as fh:
        fh.write(sim.cloud_blobs[file_id])
    return blobpath


def _cmd_share(args):
    _ensure_out(args)
    vault = _load_vault(args.out, seed=args.seed, prime=args.prime,
                        rsa_bits=args.rsa_bits, precision=args.precision)
    sim = vault.sim
    with open(args.file, "rb") as fh:
        data = fh.read()
    file_id = os.path.basename(args.file)
    users = [u for u in args.users.split(",") if u]
    if not users:
        raise ValidationError("--users needs at least one receiver")
    new = []
    if args.owner not in sim.policy_db.users:
        creds = ["org:member", f"id:{args.owner}"]
        sim.register(args.owner, creds, "owner")
        new.append({"cmd": "register", "user_id": args.owner,
                    "credentials": creds, "type": "owner"})
    for uid in users:
        if uid not in sim.policy_db.users:
            creds = [f"id:{uid}"]
            sim.register(uid, creds)
            new.append({"cmd": "register", "user_id": uid,
                        "credentials": creds})
    fid, assignment = sim.store_file(args.owner, data, users,
                                     file_name=file_id)
    new.append({"cmd": "store", "owner": args.owner, "file": file_id,
                "sharers": users, "data_hex": data.hex()})
    _append_vault(vault, new)
    blobpath = _write_cloud_blob(args, sim, fid)
    holders = ", ".join(f"{h}:x={x}" for h, x in sorted(assignment.items(),
                                                        key=lambda kv: kv[1]))
    print(f"shared {fid} -> {blobpath}")
    print(f"points: {holders}")
    return 0


def _cmd_access(args):
    _ensure_out(args)
    vault = _load_vault(args.out, args.file)
    approve = not args.deny_approval
    rec = {"cmd": "access", "user": args.user, "file": args.file,
           "owner_approves": approve}
    try:
        data = vault.sim.request_access(args.user, args.file,
                                        owner_approves=approve)
    except protocol.DENIALS:
        rec["expect"] = "deny"
        _append_vault(vault, [rec])
        raise
    rec["expect"] = "grant"
    _append_vault(vault, [rec])
    outpath = os.path.join(args.out, args.file + ".plain")
    with open(outpath, "wb") as fh:
        fh.write(data)
    print(f"granted: wrote {outpath}  ({len(data)} bytes)")
    return 0


def _cmd_revoke(args):
    _ensure_out(args)
    vault = _load_vault(args.out, args.file)
    sim = vault.sim
    entry = sim.policy_db.get_policy(args.file)
    if args.user not in entry.authorized_user_ids:
        raise ValidationError(f"{args.user!r} is not a current sharer of "
                              f"{args.file!r}; nothing to revoke")
    issued = sim.revoke_and_reencrypt(entry.owner_id, args.file, args.user)
    _append_vault(vault, [{"cmd": "revoke", "owner": entry.owner_id,
                           "file": args.file, "user": args.user}])
    blobpath = _write_cloud_blob(args, sim, args.file)
    epoch = sim.server_files[args.file]["key_epoch"]
    print(f"revoked {args.user}; re-encrypted {args.file} at key epoch "
          f"{epoch} -> {blobpath}")
    print("points reissued to: " + ", ".join(sorted(issued)))
    return 0


def _cmd_simulate(args):
    out = _ensure_out(args)
    trace_path = os.path.join(out, "trace.jsonl")
    sim, outcomes = protocol.run_script(args.script, trace_path,
                                        seed=args.seed,
                                        rsa_bits=args.rsa_bits)
    bad = [o for o in outcomes if not o["ok"]]
    for o in outcomes:
        status = "ok " if o["ok"] else "FAIL"
        extra = {k: v for k, v in o.items()
                 if k not in ("step", "cmd", "ok")}
        print(f"  [{status}] step {o['step']:>2} {o['cmd']!s:<8} {extra}")
    print(f"trace -> {trace_path}  digest {sim.bus.trace_hash():#018x}")
    if bad:
        print(f"error: {len(bad)} of {len(outcomes)} steps diverged",
              file=sys.stderr)
        return 1
    return 0


# -- analysis ----------------------------------------------------------------

def _input_bytes(path):
    """Bytes for statistics: blob -> quantized elements, PGM -> pixels,
    anything else verbatim."""
    from . import statsuite
    if path.endswith(".blob"):
        with open(path, "rb") as fh:
            blob = fbsc.parse_blob(fh.read())
        return bytes(statsuite.element_bytes(blob.elements))
    if path.endswith(".pgm"):
        return statsuite.load_pgm(path).tobytes()
    with open(path, "rb") as fh:
        return fh.read()


def _cmd_analyze_nist(args):
    from . import statsuite
    out = _ensure_out(args)
    data = _input_bytes(args.input)
    bits = statsuite.bits_from_bytes(data)
    results = statsuite.nist_battery(bits, alpha=args.alpha)
    report = statsuite.battery_report_text(results, alpha=args.alpha)
    path = os.path.join(out, "nist_report.txt")
    with open(path, "w") as fh:
        fh.write(report)
    ran = [r for r in results if r.status == "ok"]
    passed = sum(1 for r in ran if r.passed)
    print(f"{passed}/{len(ran)} tests passed on {bits.size} bits "
          f"({len(results) - len(ran)} skipped) -> {path}")
    return 0


def _cmd_analyze_corr(args):
    from . import statsuite
    out = _ensure_out(args)
    image = statsuite.load_pgm(args.input)
    name = os.path.splitext(os.path.basename(args.input))[0]
    if args.encrypted:
        with open(args.encrypted, "rb") as fh:
            blob = fbsc.parse_blob(fh.read())
    else:
        key = _seeded_key(args, "corr")
        stream_seed = digest64_ints(args.seed, digest64_text("corr-stream"))
        blob = fbsc.seal(image.tobytes(), key, *_stream_configs(stream_seed),
                         args.precision)
    core = blob.elements[blob.n1_len:blob.n1_len + image.size]
    if len(core) != image.size:
        raise ValidationError(
            f"blob holds {len(blob.elements)} elements; cannot cover a "
            f"{image.shape[0]}x{image.shape[1]} image")
    enc_img = statsuite.element_image(core, image.shape)
    rows = []
    for d in ("h", "v", "d"):
        orig = statsuite.adjacent_correlation(image, d, 16384, seed=args.seed)
        enc = statsuite.adjacent_correlation(enc_img, d, 16384,
                                             seed=args.seed)
        rows.append((name, d, orig, enc))
        print(f"  {d}: original {orig:+.4f}  encrypted {enc:+.4f}")
    path = os.path.join(out, "correlation.csv")
    with open(path, "w") as fh:
        fh.write(statsuite.correlation_csv(rows))
    print(f"wrote {path}")
    return 0


def _cmd_analyze_hist(args):
    from . import statsuite
    out = _ensure_out(args)
    data = _input_bytes(args.input)
    chi2, p, counts = statsuite.histogram_chi_square(data)
    path = os.path.join(out, "histogram.csv")
    with open(path, "w") as fh:
        fh.write(statsuite.histogram_csv(counts))
    print(f"chi2 = {chi2:.2f}  p = {p:.6f}  over {len(data)} bytes -> {path}")
    return 0


# -- benchmark ---------------------------------------------------------------

def _trimmed_mean(vals):
    vs = sorted(vals)
    k = len(vs) // 5  # a fifth off each end
    core = vs[k:len(vs) - k] or vs
    return sum(core) / len(core)


def bench_attributes(counts, repetitions=30, seed=2024, rsa_bits=None):
    """Store/access cost versus owner-attribute count.

    One world per count: the owner holds that many attribute credentials
    and the policy admits one receiver per attribute, so the per-attribute
    protocol work (share point, binding code, wrapped key, delivery) is
    exercised m times per store. Repetitions interleave across counts and
    measure process time, so machine-wide stalls land on every count
    instead of skewing one; the involution power is pinned because drawn
    powers would make the constant cipher cost a noise term. Returns
    (count, encrypt_ms, decrypt_ms) rows of trimmed means.
    """
    if any(c < 2 for c in counts):
        raise ValidationError("attribute counts must be at least 2")
    if repetitions < 10:
        raise ValidationError("need at least 10 repetitions")
    prof = dict(_BENCH_DEFAULTS)
    if rsa_bits is not None:
        prof["rsa_bits"] = rsa_bits
    payload = bytes(range(256)) * (prof["payload"] // 256) \
        + bytes(range(prof["payload"] % 256))
    worlds = {}
    for m in counts:
        sim = protocol.Simulation(
            seed=digest64_ints(seed, m), rsa_bits=prof["rsa_bits"],
            pk_bits=prof["pk_bits"], precision=prof["precision"],
            key_power=prof["key_power"])
        sim.register("owner", [f"attr:{i}" for i in range(m)],
                     user_type="owner")
        users = [f"user-{i:03d}" for i in range(m)]
        for uid in users:
            sim.register(uid, [f"holds:attr:{uid}"])
        for _ in range(2):  # warm caches before measuring
            fid, _a = sim.store_file("owner", payload, users)
            sim.request_access(users[0], fid)
        worlds[m] = (sim, users)
    enc = {m: [] for m in counts}
    dec = {m: [] for m in counts}
    for _ in range(repetitions):
        for m in counts:
            sim, users = worlds[m]
            t0 = time.process_time()
            fid, _a = sim.store_file("owner", payload, users)
            enc[m].append((time.process_time() - t0) * 1e3)
            t0 = time.process_time()
            sim.request_access(users[0], fid)
            dec[m].append((time.process_time() - t0) * 1e3)
    return [(m, _trimmed_mean(enc[m]), _trimmed_mean(dec[m]))
            for m in counts]


def linear_fit(rows, col=1):
    """Least squares y = a + b*x over bench rows; returns (a, b, r2)."""
    xs = [float(r[0]) for r in rows]
    ys = [float(r[col]) for r in rows]
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    syy = sum((y - my) ** 2 for y in ys)
    if sxx == 0 or syy == 0:
        return my, 0.0, 1.0 if syy == 0 else 0.0
    b = sxy / sxx
    return my - b * mx, b, (sxy * sxy) / (sxx * syy)


def _cmd_bench(args):
    from . import statsuite
    out = _ensure_out(args)
    counts = [int(c) for c in args.attrs.split(",") if c]
    rows = bench_attributes(counts, repetitions=args.reps, seed=args.seed,
                            rsa_bits=args.rsa_bits)
    for m, e, d in rows:
        print(f"  attrs={m:<3d} encrypt {e:8.3f} ms   decrypt {d:8.3f} ms")
    a, b, r2 = linear_fit(rows)
    print(f"encrypt fit: {a:.3f} + {b:.4f}*attrs ms, R^2 = {r2:.4f}")
    path = os.path.join(out, "bench.csv")
    with open(path, "w") as fh:
        fh.write(statsuite.bench_csv(rows))
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(sub, seed=False):
    """--out, and --seed for the subcommands that read it. seed may be a
    mutually exclusive group of sub instead of True; --seed joins it."""
    if seed:
        (sub if seed is True else seed).add_argument("--seed", type=int,
                                                     default=2024)
    sub.add_argument("--out", default="parvault-out",
                     help="output directory (created if missing)")


@functools.cache
def build_parser():
    """The parser of every subcommand, built once per process; callers
    only read it."""
    parser = argparse.ArgumentParser(
        prog="parvault",
        description="multiparty-authorized encrypted storage toolkit")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("keygen", help="RSA keypair plus a symmetric key")
    _add_common(s, seed=True)
    s.add_argument("--rsa-bits", type=int, default=512,
                   choices=rsacrt.KEY_SIZES)
    s.set_defaults(fn=_cmd_keygen)

    s = subs.add_parser("encrypt", help="encrypt one file to a blob")
    s.add_argument("file")
    keyed = s.add_mutually_exclusive_group()
    _add_common(s, seed=keyed)
    keyed.add_argument("--key", default=None,
                       help="existing key file; omitted -> a key drawn from "
                       "--seed is written")
    s.add_argument("--precision", type=int, default=fbsc.DEFAULT_PRECISION)
    s.set_defaults(fn=_cmd_encrypt)

    s = subs.add_parser("decrypt", help="decrypt a blob with its key file")
    s.add_argument("blob")
    _add_common(s)
    s.add_argument("--key", required=True)
    s.set_defaults(fn=_cmd_decrypt)

    pinned = "pinned by the vault's first share"
    s = subs.add_parser("share", help="store a file into the vault world")
    s.add_argument("file")
    _add_common(s)
    s.add_argument("--seed", type=int, default=None, help=pinned)
    s.add_argument("--prime", type=int, default=None, help=pinned)
    s.add_argument("--rsa-bits", type=int, default=None,
                   choices=rsacrt.KEY_SIZES, help=pinned)
    s.add_argument("--precision", type=int, default=None, help=pinned)
    s.add_argument("--owner", required=True)
    s.add_argument("--users", required=True,
                   help="comma-separated receiver ids")
    s.set_defaults(fn=_cmd_share)

    s = subs.add_parser("access", help="request a shared file")
    s.add_argument("file")
    _add_common(s)
    s.add_argument("--user", required=True)
    s.add_argument("--deny-approval", action="store_true",
                   help="simulate the owner withholding approval")
    s.set_defaults(fn=_cmd_access)

    s = subs.add_parser("revoke", help="revoke a user and re-encrypt")
    s.add_argument("file")
    _add_common(s)
    s.add_argument("--user", required=True)
    s.set_defaults(fn=_cmd_revoke)

    s = subs.add_parser("simulate", help="replay a protocol script")
    s.add_argument("script")
    _add_common(s, seed=True)
    s.add_argument("--rsa-bits", type=int, default=512,
                   choices=rsacrt.KEY_SIZES)
    s.set_defaults(fn=_cmd_simulate)

    s = subs.add_parser("analyze", help="statistics on files and blobs")
    asubs = s.add_subparsers(dest="analysis", required=True)
    a = asubs.add_parser("nist", help="randomness battery")
    a.add_argument("input")
    _add_common(a)
    a.add_argument("--alpha", type=float, default=0.01)
    a.set_defaults(fn=_cmd_analyze_nist)
    a = asubs.add_parser("corr", help="adjacent-pixel correlation")
    a.add_argument("input", help="PGM image")
    _add_common(a, seed=True)
    blob = a.add_mutually_exclusive_group()
    blob.add_argument("--encrypted", default=None,
                      help="blob of this image; omitted -> encrypted "
                      "in-memory at --precision")
    blob.add_argument("--precision", type=int,
                      default=fbsc.DEFAULT_PRECISION)
    a.set_defaults(fn=_cmd_analyze_corr)
    a = asubs.add_parser("hist", help="byte histogram uniformity")
    a.add_argument("input")
    _add_common(a)
    a.set_defaults(fn=_cmd_analyze_hist)

    s = subs.add_parser("bench", help="cost versus attribute count")
    _add_common(s, seed=True)
    s.add_argument("--attrs", default="2,4,8,16,32",
                   help="comma-separated attribute counts")
    s.add_argument("--reps", type=int, default=30)
    s.add_argument("--rsa-bits", type=int, default=None,
                   choices=rsacrt.KEY_SIZES)
    s.set_defaults(fn=_cmd_bench)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParvaultError as exc:
        print(_diagnostic(exc), file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
