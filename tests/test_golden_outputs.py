"""Golden digests of seeded outputs, frozen so refactors stay byte-identical.

One fixed 512-bit simulation pins the bus trace and the audited cloud and
server state after a store, an access, a revocation, a re-admission, an
epoch tick and a scripted store whose bytes come from the `scriptdata`
stream. Three CLI runs pin the files written from a seed alone: `keygen`,
`encrypt` without `--key` and `analyze corr` without `--encrypted`.
Between them they cover every place a derived generator config is seeded.
The numeric kernels are pinned on their own: `fbsc._codebook` for six
(pk_sk, r_n, precision) triples, `serialize_blob` of a fixed 4 KiB stream
and `prng.generate_bits` at three modulus widths (4, 58 and 86 bits a
step), each at a count that is not a multiple of the width.

The digests are SHA-256 hex (the trace hash is the bus's own 64-bit
digest). They must not depend on the interpreter's string hashing, so the
same computation is also run in fresh interpreters under two values of
PYTHONHASHSEED. Run this file as a script to print the current digests.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import parvault
from parvault import fbsc, prng, protocol, statsuite
from parvault.cli import main

GOLDEN = {
    "sim/trace_hash": "0xa8943e748840a3c6",
    "sim/cloud_state":
        "5ddbd907626a76acb24b21c86014622b2f233c5d6965f9cfde5699b5150c6636",
    "sim/server_state":
        "8eb8097546ab4147660f2cedc3c7e2d134fc48f572f21752ab0a7967a1f3c2da",
    "keygen/rsa_private.txt":
        "a296455e38680fcdd7d0f41e1b0d6bc6992fe39fe43ffbef2b991eef5cf28c1b",
    "keygen/rsa_public.txt":
        "37bd77112013515289bb1a20fc77d0317f3736bbdb57b03622f083e81f400469",
    "keygen/symmetric.key":
        "8df67f29db150c0bedfcd2f60cf85aa93e572b234330aee374f1922e6fae0f1a",
    "encrypt/memo.key":
        "2c17e41227513f108316b8014229503091e3cbb8a53680b41c633d6f1cef8244",
    "encrypt/memo.blob":
        "3aad49591f4eae6ab8b815b260449eab05ccc52f857d56a994c8e30bde876813",
    "corr/correlation.csv":
        "da7a26b4ac2cddac41d0e333a6595d488ee2b1f6decaa594e33a6a85ebf268d0",
    "codebook/16-2-F30":
        "ddb4d7c112bf947a7e71a6428f828888dbc783d3200fdb55f4009ccfdf830986",
    "codebook/747-4-F30":
        "dc7e73b5d48fcf2e3957c34a20c48d0be4f15a6fbc11f6af25cd13b531e65a9a",
    "codebook/17-16-F30":
        "85aa8437bc623ab40924ebb4dd5928a2da760e32471e8136737ad587237ad8f1",
    "codebook/20-2-F50":
        "0a1447962b34aadc241ccfe6cbd2cef2a5c13a0ffd83a3eca7a774c77973c04c",
    "codebook/1048573-4-F50":
        "9ee3c85d4b8db7c49bcf65d34c0325012b767887b8a6abe297c63c01778213be",
    "codebook/90001-16-F50":
        "4d7dd9e2dbade512604bfa8c746926a17bc3e476caf1079293bacdf152d70207",
    "blob/4KiB":
        "a0339a75928d15066525628cdb7c9dc7bdbb4b9941fc811c39d61914221199e4",
    "bits/narrow":
        "84f06d223132d341ffd0119f73579c147afc4123f8b6357b356d2bb0a9bd6783",
    "bits/default":
        "10c2181da4520b7f4ad57070ffa55d5fa7f2a4d906c4eaaf6bba3ca68ca843fb",
    "bits/wide":
        "c33fdd1893493ad4219102ed970ce2710e2b78120882b8133e63a375fd6bf283",
}

CODEBOOK_KEYS = [(16, 2, 30), (747, 4, 30), (17, 16, 30),
                 (20, 2, 50), (1048573, 4, 50), (90001, 16, 50)]

# (name, config, bit count); the widths are 4, 58 and 86 bits a step
BIT_STREAMS = [
    ("narrow", prng.GeneratorConfig(seed=1, m=3, i_num=7, i_den=4,
                                    n=(1 << 7) - 1), 1001),
    ("default", prng.DEFAULT_CONFIG, 100_003),
    ("wide", prng.GeneratorConfig(seed=123456789, m=prng.DEFAULT_CONFIG.m,
                                  i_num=prng.DEFAULT_CONFIG.i_num,
                                  n=(1 << 89) - 1), 10_001),
]

PAYLOAD = b"quarterly ledger, owner eyes first\n" + bytes(range(256))


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def simulation_digests():
    sim = protocol.Simulation(seed=4242, rsa_bits=512)
    sim.register("olive", ["org:member", "id:olive"], "owner")
    for uid in ("rena", "sam", "tom"):
        sim.register(uid, [f"id:{uid}"])
    ledger, _ = sim.store_file("olive", PAYLOAD, ["rena", "sam"])
    notes, _ = sim.store_file("olive", PAYLOAD[::-1], ["sam", "tom"],
                              file_name="notes.txt")
    assert sim.request_access("rena", ledger) == PAYLOAD
    sim.revoke_and_reencrypt("olive", ledger, "sam")
    sim.re_grant("olive", ledger, "sam")
    sim.epoch_tick(notes)
    outcomes = protocol.replay_commands(sim, [
        {"cmd": "store", "owner": "olive", "file": "scripted.bin",
         "sharers": ["rena", "tom"], "size": 300}])
    assert all(o["ok"] for o in outcomes), outcomes
    return {"sim/trace_hash": f"{sim.bus.trace_hash():#018x}",
            "sim/cloud_state": _sha256(sim.serialized_cloud_state()),
            "sim/server_state": _sha256(sim.serialized_server_state())}


def cli_digests(workdir):
    work = Path(workdir)
    plain = work / "memo.bin"
    plain.write_bytes(PAYLOAD)
    image = work / "scene.pgm"
    statsuite.save_pgm(image, statsuite.synthetic_image("terrain", size=32,
                                                        seed=3))
    runs = {
        "keygen": ["keygen", "--seed", "11", "--rsa-bits", "512"],
        "encrypt": ["encrypt", plain, "--seed", "5"],
        "corr": ["analyze", "corr", image, "--seed", "8"],
    }
    out = {}
    for name, argv in runs.items():
        outdir = work / name
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main([str(a) for a in argv] + ["--out", str(outdir)])
        assert rc == 0, f"parvault {name} exited {rc}"
        for path in sorted(outdir.iterdir()):
            out[f"{name}/{path.name}"] = _sha256(path.read_bytes())
    return out


def kernel_digests():
    out = {}
    for pk_sk, r_n, precision in CODEBOOK_KEYS:
        book = fbsc._codebook(fbsc.SymmetricKey(pk_sk, r_n), precision)
        text = "\n".join(format(e, "f") for e in book)
        out[f"codebook/{pk_sk}-{r_n}-F{precision}"] = _sha256(text.encode())
    data = hashlib.shake_256(b"golden blob data").digest(4096)
    keystream = hashlib.shake_256(b"golden blob keystream").digest(4096)
    key = fbsc.SymmetricKey(pk_sk=1048573, r_n=4)
    blob = fbsc.EncryptedBlob(
        r_n=key.r_n, f_digits=fbsc.DEFAULT_PRECISION,
        key_fingerprint=key.fingerprint, n1_len=16, n2_len=8, epoch=3,
        elements=fbsc.encrypt_stream(data, key, keystream))
    out["blob/4KiB"] = _sha256(fbsc.serialize_blob(blob))
    for name, cfg, count in BIT_STREAMS:
        bits = prng.generate_bits(cfg, count)
        assert count % cfg.bits_per_step and len(bits) == count
        out[f"bits/{name}"] = _sha256(bits.tobytes())
    return out


def all_digests(workdir):
    return {**simulation_digests(), **cli_digests(workdir),
            **kernel_digests()}


def test_simulation_matches_golden():
    got = simulation_digests()
    assert got == {k: v for k, v in GOLDEN.items() if k.startswith("sim/")}


def test_cli_outputs_match_golden(tmp_path):
    got = cli_digests(tmp_path)
    assert got == {k: v for k, v in GOLDEN.items()
                   if k.split("/")[0] in ("keygen", "encrypt", "corr")}


def test_kernels_match_golden():
    got = kernel_digests()
    assert got == {k: v for k, v in GOLDEN.items()
                   if k.split("/")[0] in ("codebook", "blob", "bits")}


def test_digests_do_not_depend_on_string_hashing(tmp_path):
    src_dir = str(Path(parvault.__file__).resolve().parent.parent)
    for hash_seed in ("0", "4093"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(
                       [src_dir] + [p for p in os.environ.get(
                           "PYTHONPATH", "").split(os.pathsep) if p]))
        proc = subprocess.run([sys.executable, __file__], env=env,
                              cwd=tmp_path, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == GOLDEN, f"PYTHONHASHSEED={hash_seed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        print(json.dumps(all_digests(scratch), indent=4, sort_keys=True))
