"""End-to-end runs of the console front end, mostly in-process."""

import json
import os
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest

import parvault
from parvault import fbsc, statsuite
from parvault.cli import linear_fit, main

SECRET = b"the commissioning report, not for the cloud\n" + bytes(range(200))


def run(*argv):
    return main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# keygen / encrypt / decrypt
# ---------------------------------------------------------------------------

def test_keygen_writes_three_key_files(tmp_path, capsys):
    assert run("keygen", "--out", tmp_path, "--seed", 7,
               "--rsa-bits", 64) == 0
    for name in ("rsa_private.txt", "rsa_public.txt", "symmetric.key"):
        assert (tmp_path / name).exists()
    text = (tmp_path / "symmetric.key").read_text()
    assert "pk_sk = " in text and "stream_seed = " in text
    assert "64-bit" in capsys.readouterr().out


def test_encrypt_decrypt_roundtrip(tmp_path, capsys):
    plain = tmp_path / "memo.txt"
    plain.write_bytes(SECRET)
    assert run("encrypt", plain, "--out", tmp_path, "--seed", 5) == 0
    out = capsys.readouterr().out
    assert "memo.key" in out and "memo.blob" in out
    assert run("decrypt", tmp_path / "memo.blob", "--out", tmp_path,
               "--key", tmp_path / "memo.key") == 0
    assert (tmp_path / "memo.out").read_bytes() == SECRET


def test_encrypt_is_seed_deterministic(tmp_path):
    plain = tmp_path / "m.bin"
    plain.write_bytes(SECRET)
    for d in ("a", "b"):
        (tmp_path / d).mkdir()
        assert run("encrypt", plain, "--out", tmp_path / d, "--seed", 9) == 0
    assert (tmp_path / "a" / "m.blob").read_bytes() == \
        (tmp_path / "b" / "m.blob").read_bytes()


def test_decrypt_with_the_wrong_key_names_the_failure(tmp_path, capsys):
    plain = tmp_path / "m.bin"
    plain.write_bytes(SECRET)
    assert run("encrypt", plain, "--out", tmp_path, "--seed", 1) == 0
    (tmp_path / "other").mkdir()
    assert run("encrypt", plain, "--out", tmp_path / "other",
               "--seed", 2) == 0
    capsys.readouterr()
    assert run("decrypt", tmp_path / "m.blob", "--out", tmp_path,
               "--key", tmp_path / "other" / "m.key") == 1
    err = capsys.readouterr().err
    assert "error: errors.ValidationError" in err
    assert "fingerprint" in err
    assert not (tmp_path / "m.out").exists()


def test_decrypt_of_a_non_ascii_blob_is_one_error_line(tmp_path, capsys):
    plain = tmp_path / "m.bin"
    plain.write_bytes(SECRET)
    assert run("encrypt", plain, "--out", tmp_path, "--seed", 1) == 0
    blob = tmp_path / "m.blob"
    blob.write_bytes(blob.read_bytes() + "\u00e9\n".encode())
    capsys.readouterr()
    assert run("decrypt", blob, "--out", tmp_path,
               "--key", tmp_path / "m.key") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "BlobFormatError" in captured.err
    assert "not ASCII" in captured.err
    assert not (tmp_path / "m.out").exists()


def test_published_blob_carries_no_power_byte(tmp_path):
    plain = tmp_path / "m.bin"
    plain.write_bytes(SECRET)
    assert run("encrypt", plain, "--out", tmp_path, "--seed", 1) == 0
    blob = fbsc.parse_blob((tmp_path / "m.blob").read_bytes())
    assert blob.r_n == 0


# ---------------------------------------------------------------------------
# the vault journal
# ---------------------------------------------------------------------------

def test_vault_share_access_revoke_flow(tmp_path, capsys):
    doc = tmp_path / "doc.bin"
    doc.write_bytes(SECRET)
    vault = tmp_path / "vault"

    assert run("share", doc, "--out", vault, "--owner", "olive",
               "--users", "rena,sam") == 0
    out = capsys.readouterr().out
    assert "org_server:x=1" in out and "olive:x=2" in out
    assert (vault / "doc.bin.blob").exists()
    journal = [json.loads(ln) for ln in
               (vault / "vault.jsonl").read_text().splitlines()]
    assert journal[0]["cmd"] == "_config"
    assert [r["cmd"] for r in journal[1:]] == ["register"] * 3 + ["store"]

    assert run("access", "doc.bin", "--out", vault, "--user", "rena") == 0
    assert (vault / "doc.bin.plain").read_bytes() == SECRET

    # the owner can withhold approval; the attempt still lands in the journal
    capsys.readouterr()
    assert run("access", "doc.bin", "--out", vault, "--user", "sam",
               "--deny-approval") == 1
    assert "ApprovalWithheldError" in capsys.readouterr().err

    blob_before = (vault / "doc.bin.blob").read_bytes()
    assert run("revoke", "doc.bin", "--out", vault, "--user", "sam") == 0
    assert "key epoch 1" in capsys.readouterr().out
    assert (vault / "doc.bin.blob").read_bytes() != blob_before

    capsys.readouterr()
    assert run("access", "doc.bin", "--out", vault, "--user", "sam") == 1
    assert "AccessDeniedError" in capsys.readouterr().err

    # the remaining receiver still decrypts after the re-key
    (vault / "doc.bin.plain").unlink()
    assert run("access", "doc.bin", "--out", vault, "--user", "rena") == 0
    assert (vault / "doc.bin.plain").read_bytes() == SECRET

    replayed = [json.loads(ln) for ln in
                (vault / "vault.jsonl").read_text().splitlines()]
    expects = [r.get("expect") for r in replayed if r["cmd"] == "access"]
    assert expects == ["grant", "deny", "deny", "grant"]


def test_vault_rejects_conflicting_parameters(tmp_path, capsys):
    doc = tmp_path / "doc.bin"
    doc.write_bytes(b"pinned world")
    vault = tmp_path / "vault"
    assert run("share", doc, "--out", vault, "--owner", "o",
               "--users", "u") == 0
    capsys.readouterr()
    assert run("access", "doc.bin", "--out", vault, "--user", "u",
               "--prime", 101) == 1
    assert "pins its parameters" in capsys.readouterr().err


def test_vault_refuses_a_second_file_under_one_name(tmp_path, capsys):
    doc = tmp_path / "doc.bin"
    doc.write_bytes(b"first")
    vault = tmp_path / "vault"
    assert run("share", doc, "--out", vault, "--owner", "o",
               "--users", "u") == 0
    doc.write_bytes(b"second")
    capsys.readouterr()
    assert run("share", doc, "--out", vault, "--owner", "o",
               "--users", "u") == 1
    assert "PolicyExistsError" in capsys.readouterr().err


def test_vault_revoke_refuses_a_non_sharer(tmp_path, capsys):
    doc = tmp_path / "g.bin"
    doc.write_bytes(SECRET)
    vault = tmp_path / "vault"
    assert run("share", doc, "--out", vault, "--owner", "olga",
               "--users", "rena,sam") == 0
    assert run("revoke", "g.bin", "--out", vault, "--user", "sam") == 0
    journal, blob = vault / "vault.jsonl", vault / "g.bin.blob"
    for user in ("zed", "sam"):  # never shared with; already revoked
        lines, before = journal.read_text(), blob.read_bytes()
        capsys.readouterr()
        assert run("revoke", "g.bin", "--out", vault, "--user", user) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "not a current sharer" in captured.err
        assert journal.read_text() == lines
        assert blob.read_bytes() == before

    # older journals may hold no-op revokes; they still replay
    with journal.open("a") as fh:
        fh.write(json.dumps({"cmd": "revoke", "owner": "olga",
                             "file": "g.bin", "user": "zed"}) + "\n")
    assert run("access", "g.bin", "--out", vault, "--user", "rena") == 0
    assert (vault / "g.bin.plain").read_bytes() == SECRET


def test_vault_share_refuses_the_owner_as_a_receiver(tmp_path, capsys):
    doc = tmp_path / "g.bin"
    doc.write_bytes(SECRET)
    vault = tmp_path / "vault"
    assert run("share", doc, "--out", vault, "--owner", "olga",
               "--users", "rena") == 0
    journal = vault / "vault.jsonl"
    lines = journal.read_text()
    (tmp_path / "h.bin").write_bytes(SECRET)
    capsys.readouterr()
    assert run("share", tmp_path / "h.bin", "--out", vault, "--owner", "olga",
               "--users", "olga,sam") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "cannot also be a sharer" in captured.err
    assert journal.read_text() == lines
    assert not (vault / "h.bin.blob").exists()


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

STEPS = [
    {"cmd": "register", "user_id": "o", "type": "owner",
     "credentials": ["org:lab", "role:lead"]},
    {"cmd": "register", "user_id": "u", "credentials": ["org:lab"]},
    {"cmd": "register", "user_id": "w", "credentials": ["org:lab",
                                                        "desk:7"]},
    {"cmd": "store", "owner": "o", "file": "f", "sharers": ["u", "w"],
     "size": 200},
    {"cmd": "access", "user": "u", "file": "f", "expect": "grant"},
    {"cmd": "revoke", "owner": "o", "file": "f", "user": "w"},
    {"cmd": "access", "user": "w", "file": "f", "expect": "deny"},
]


def _write_script(path, steps):
    path.write_text("".join(json.dumps(s) + "\n" for s in steps))


def test_simulate_runs_a_script(tmp_path, capsys):
    script = tmp_path / "s.jsonl"
    _write_script(script, STEPS)
    assert run("simulate", script, "--out", tmp_path) == 0
    out = capsys.readouterr().out
    assert "digest 0x" in out
    assert "FAIL" not in out
    trace = (tmp_path / "trace.jsonl").read_text().splitlines()
    assert "final_state_digest" in trace[-1]


def test_simulate_flags_divergence(tmp_path, capsys):
    bad = STEPS[:5] + [{"cmd": "access", "user": "w", "file": "f",
                        "expect": "deny"}]
    script = tmp_path / "s.jsonl"
    _write_script(script, bad)
    assert run("simulate", script, "--out", tmp_path) == 1
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "diverged" in captured.err


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_nist_on_keystream(tmp_path, capsys):
    from parvault import prng
    raw = tmp_path / "stream.bin"
    raw.write_bytes(prng.generate_bytes(prng.DEFAULT_CONFIG, 2000))
    assert run("analyze", "nist", raw, "--out", tmp_path) == 0
    out = capsys.readouterr().out
    assert "tests passed on 16000 bits" in out
    report = (tmp_path / "nist_report.txt").read_text()
    assert "frequency" in report and "SKIP" in report


def test_analyze_nist_on_a_blob(tmp_path, capsys):
    plain = tmp_path / "m.bin"
    plain.write_bytes(bytes(1000))
    assert run("encrypt", plain, "--out", tmp_path, "--seed", 3) == 0
    capsys.readouterr()
    assert run("analyze", "nist", tmp_path / "m.blob",
               "--out", tmp_path) == 0
    assert "tests passed" in capsys.readouterr().out


def test_analyze_nist_rejects_a_tiny_input(tmp_path, capsys):
    raw = tmp_path / "tiny.bin"
    raw.write_bytes(bytes(10))
    assert run("analyze", "nist", raw, "--out", tmp_path) == 1
    assert "SequenceTooShortError" in capsys.readouterr().err


def test_analyze_corr(tmp_path, capsys):
    img = statsuite.synthetic_image("terrain", size=64, seed=3)
    pgm = tmp_path / "terrain.pgm"
    statsuite.save_pgm(pgm, img)
    assert run("analyze", "corr", pgm, "--out", tmp_path, "--seed", 3) == 0
    out = capsys.readouterr().out
    assert "original" in out and "encrypted" in out
    lines = (tmp_path / "correlation.csv").read_text().splitlines()
    assert lines[0] == "image,direction,original,encrypted"
    assert len(lines) == 4
    rows = [ln.split(",") for ln in lines[1:]]
    assert [r[1] for r in rows] == ["h", "v", "d"]
    for r in rows:
        assert float(r[2]) > 0.8       # smoothed original
        assert abs(float(r[3])) < 0.2  # encrypted


def test_analyze_corr_against_a_blob(tmp_path, capsys):
    img = statsuite.synthetic_image("clouds", size=64, seed=1)
    pgm = tmp_path / "clouds.pgm"
    statsuite.save_pgm(pgm, img)
    assert run("encrypt", pgm, "--out", tmp_path, "--seed", 4) == 0
    capsys.readouterr()
    assert run("analyze", "corr", pgm, "--out", tmp_path,
               "--encrypted", tmp_path / "clouds.blob") == 0
    assert (tmp_path / "correlation.csv").exists()


def test_analyze_hist(tmp_path, capsys):
    img = statsuite.synthetic_image("ramp", size=64, seed=2)
    pgm = tmp_path / "ramp.pgm"
    statsuite.save_pgm(pgm, img)
    assert run("analyze", "hist", pgm, "--out", tmp_path) == 0
    assert "chi2 = " in capsys.readouterr().out
    lines = (tmp_path / "histogram.csv").read_text().splitlines()
    assert lines[0] == "value,count"
    assert len(lines) == 257
    counts = [int(ln.split(",")[1]) for ln in lines[1:]]
    assert sum(counts) == img.size


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def test_bench_single_count(tmp_path, capsys):
    assert run("bench", "--out", tmp_path, "--attrs", "2", "--reps", 10,
               "--rsa-bits", 64) == 0
    out = capsys.readouterr().out
    assert "attrs=2" in out and "R^2" in out
    lines = (tmp_path / "bench.csv").read_text().splitlines()
    assert lines[0] == "attributes,encrypt_ms,decrypt_ms"
    assert len(lines) == 2
    m, e, d = lines[1].split(",")
    assert m == "2" and float(e) > 0 and float(d) > 0


def test_linear_fit_recovers_an_exact_line():
    rows = [(x, 3.0 + 0.5 * x, 0.0) for x in (2, 4, 8, 16, 32)]
    a, b, r2 = linear_fit(rows)
    assert a == pytest.approx(3.0)
    assert b == pytest.approx(0.5)
    assert r2 == pytest.approx(1.0)


def test_linear_fit_flat_and_noisy():
    a, b, r2 = linear_fit([(2, 5.0, 0), (4, 5.0, 0), (8, 5.0, 0)])
    assert (a, b, r2) == (5.0, 0.0, 1.0)
    rng = np.random.default_rng(0)
    rows = [(x, float(rng.uniform(0, 1)), 0) for x in range(2, 12)]
    _, _, r2 = linear_fit(rows)
    assert r2 < 0.5


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    [],
    ["frobnicate"],
    ["decrypt", "x.blob"],          # --key is required
    ["keygen", "--rsa-bits", "100"],
    ["analyze"],
])
def test_usage_errors_exit_two(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# console-script entry point, run out of process
# ---------------------------------------------------------------------------

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
KEYGEN = ["keygen", "--seed", "3", "--rsa-bits", "64"]
KEY_FILES = ("rsa_private.txt", "rsa_public.txt", "symmetric.key")


def _launch(argv, cwd):
    """Run argv against the parvault package this suite imported.

    PYTHONPATH leads with the absolute directory holding that package, so
    the child neither depends on the caller's working directory nor picks
    up some other installed copy.
    """
    source_root = str(Path(parvault.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [source_root] + ([inherited] if inherited else [])))
    proc = subprocess.run([str(a) for a in argv], capture_output=True,
                          text=True, cwd=cwd, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc


def _agree_with_module_run(out, stdout, tmp_path):
    """The same keygen through ``python -m parvault.cli`` writes the same."""
    module = _launch([sys.executable, "-m", "parvault.cli", *KEYGEN,
                      "--out", tmp_path / "module"], tmp_path)
    assert module.stdout == stdout
    for name in KEY_FILES:
        assert (out / name).read_bytes() == \
            (tmp_path / "module" / name).read_bytes(), name


@pytest.mark.skipif(not PYPROJECT.exists(),
                    reason="pyproject.toml not found next to the tests")
def test_console_script_entry_point(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert "parvault" in scripts, scripts
    target = EntryPoint("parvault", scripts["parvault"], "console_scripts")
    # what an installer's launcher does: import the target, call it with no
    # arguments (it reads sys.argv) and exit with what it returns; a target
    # that returns no exit status is refused rather than read as success
    launcher = (
        "import sys\n"
        f"from {target.module} import {target.attr} as entry\n"
        "status = entry()\n"
        "if not isinstance(status, int):\n"
        "    sys.exit(f'entry point returned {status!r}, not an exit status')\n"
        "sys.exit(status)\n")
    script = _launch([sys.executable, "-c", launcher, *KEYGEN,
                      "--out", tmp_path / "script"], tmp_path)
    _agree_with_module_run(tmp_path / "script", script.stdout, tmp_path)


@pytest.mark.skipif(shutil.which("parvault") is None,
                    reason="no parvault executable on PATH (package not "
                           "installed)")
def test_installed_console_script(tmp_path):
    script = _launch([shutil.which("parvault"), *KEYGEN,
                      "--out", tmp_path / "script"], tmp_path)
    _agree_with_module_run(tmp_path / "script", script.stdout, tmp_path)
