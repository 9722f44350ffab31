"""Golden digests of seeded outputs, frozen so refactors stay byte-identical.

One fixed 512-bit simulation pins the bus trace and the audited cloud and
server state after a store, an access, a revocation, a re-admission, an
epoch tick and a scripted store whose bytes come from the `scriptdata`
stream. Three CLI runs pin the files written from a seed alone: `keygen`,
`encrypt` without `--key` and `analyze corr` without `--encrypted`.
Between them they cover every place a derived generator config is seeded.

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
from parvault import protocol, statsuite
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
}

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


def all_digests(workdir):
    return {**simulation_digests(), **cli_digests(workdir)}


def test_simulation_matches_golden():
    got = simulation_digests()
    assert got == {k: v for k, v in GOLDEN.items() if k.startswith("sim/")}


def test_cli_outputs_match_golden(tmp_path):
    got = cli_digests(tmp_path)
    assert got == {k: v for k, v in GOLDEN.items()
                   if not k.startswith("sim/")}


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
