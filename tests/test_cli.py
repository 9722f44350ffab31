"""End-to-end runs of the console front end, mostly in-process."""

import copy
import functools
import hashlib
import json
import operator
import os
import re
import shutil
import stat
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import parvault
from parvault import cli, fbsc, protocol, rsacrt, secretshare, statsuite
from parvault.cli import linear_fit, main
from parvault.errors import ParvaultError

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
# malformed input: one error line, exit 1
# ---------------------------------------------------------------------------

def _encrypted(tmp_path):
    plain = tmp_path / "m.bin"
    plain.write_bytes(SECRET)
    assert run("encrypt", plain, "--out", tmp_path, "--seed", 1) == 0
    return tmp_path / "m.blob", tmp_path / "m.key"


def _shared_vault(tmp_path):
    doc = tmp_path / "doc.bin"
    doc.write_bytes(SECRET)
    vault = tmp_path / "vault"
    assert run("share", doc, "--out", vault, "--owner", "olive",
               "--users", "rena,sam") == 0
    return vault


def key_file_with_a_word(tmp_path):
    blob, key = _encrypted(tmp_path)
    key.write_text(re.sub(r"pk_sk = \d+", "pk_sk = abc", key.read_text()))
    return (["decrypt", blob, "--out", tmp_path, "--key", key],
            "'abc' is not an integer")


def journal_line_not_json(tmp_path):
    vault = _shared_vault(tmp_path)
    with (vault / "vault.jsonl").open("a") as fh:
        fh.write("{not json\n")
    return (["access", "doc.bin", "--out", vault, "--user", "rena"],
            "not JSON")


def _vault_with_record(tmp_path, record):
    vault = _shared_vault(tmp_path)
    with (vault / "vault.jsonl").open("a") as fh:
        fh.write(json.dumps(record) + "\n")
    return ["access", "doc.bin", "--out", vault, "--user", "rena"]


def journal_record_without_a_field(tmp_path):
    return (_vault_with_record(tmp_path, {"cmd": "access", "user": "rena"}),
            "lacks field 'file'")


def journal_record_not_an_object(tmp_path):
    return _vault_with_record(tmp_path, [1]), "not a JSON object"


def journal_field_of_the_wrong_type(tmp_path):
    record = {"cmd": "register", "user_id": "zed", "credentials": 5}
    return (_vault_with_record(tmp_path, record),
            "'credentials' must be a list of strings")


def journal_header_not_an_object(tmp_path):
    vault = _shared_vault(tmp_path)
    journal = vault / "vault.jsonl"
    lines = journal.read_text().splitlines(keepends=True)
    journal.write_text("[1]\n" + "".join(lines[1:]))
    return (["access", "doc.bin", "--out", vault, "--user", "rena"],
            "lacks the _config header line")


def journal_data_not_hex(tmp_path):
    record = {"cmd": "store", "owner": "olive", "file": "h.bin",
              "sharers": ["rena"], "data_hex": "zz"}
    return _vault_with_record(tmp_path, record), "'data_hex' is not hex"


def journal_integer_too_long(tmp_path):
    vault = _shared_vault(tmp_path)
    with (vault / "vault.jsonl").open("a") as fh:
        fh.write('{"cmd": "tick", "size": ' + "9" * 5000 + '}\n')
    return (["access", "doc.bin", "--out", vault, "--user", "rena"],
            "not JSON")


def _vault_with_keys(tmp_path, edit):
    """A shared vault whose keys.json is passed through edit, which takes
    the parsed file and returns the new text or object."""
    vault = _shared_vault(tmp_path)
    keys = vault / "keys.json"
    new = edit(json.loads(keys.read_text()))
    keys.write_text(new if isinstance(new, str) else json.dumps(new))
    return ["access", "doc.bin", "--out", vault, "--user", "rena"]


def _with_key(user, **fields):
    def edit(keys):
        keys[user] = {**keys.get(user, keys["rena"]), **fields}
        return keys
    return edit


def keys_not_json(tmp_path):
    return _vault_with_keys(tmp_path, lambda k: "{not json"), "is not JSON"


def keys_not_an_object(tmp_path):
    return (_vault_with_keys(tmp_path, lambda k: [1]),
            "keys.json' is not a JSON object")


def key_without_q(tmp_path):
    def edit(keys):
        del keys["rena"]["q"]
        return keys
    return (_vault_with_keys(tmp_path, edit),
            "the key of 'rena' needs integer fields p, q and e")


def key_with_a_text_e(tmp_path):
    return (_vault_with_keys(tmp_path, _with_key("rena", e="65537")),
            "the key of 'rena' needs integer fields p, q and e")


def key_with_p_equal_to_q(tmp_path):
    def edit(keys):
        keys["rena"]["q"] = keys["rena"]["p"]
        return keys
    return (_vault_with_keys(tmp_path, edit),
            "the key of 'rena': p and q must differ")


def key_with_a_composite_p(tmp_path):
    def edit(keys):
        keys["rena"]["p"] *= 9
        return keys
    return (_vault_with_keys(tmp_path, edit),
            "the key of 'rena': p or q is not prime")


def key_of_the_wrong_width(tmp_path):
    small = rsacrt.keygen(64, seed=1)
    return (_vault_with_keys(tmp_path, _with_key("rena", p=small.p,
                                                 q=small.q, e=small.e)),
            "the keypair given for 'rena' has a 64-bit modulus, not 512")


def key_for_an_unregistered_user(tmp_path):
    return (_vault_with_keys(tmp_path, _with_key("zed")),
            "holds a key for 'zed', whom the journal never registers")


def _vault_with_checkpoint(tmp_path, edit):
    """A shared vault whose checkpoint.json is passed through edit, which
    takes the parsed file and returns the new text or object."""
    vault = _shared_vault(tmp_path)
    checkpoint = vault / "checkpoint.json"
    new = edit(json.loads(checkpoint.read_text()))
    checkpoint.write_text(new if isinstance(new, str) else json.dumps(new))
    return ["access", "doc.bin", "--out", vault, "--user", "rena"]


def checkpoint_not_json(tmp_path):
    return (_vault_with_checkpoint(tmp_path, lambda cp: "{not json"),
            "checkpoint.json' is not JSON")


def checkpoint_not_an_object(tmp_path):
    return (_vault_with_checkpoint(tmp_path, lambda cp: [1]),
            "checkpoint.json' is not a JSON object")


def checkpoint_integer_too_long(tmp_path):
    def edit(cp):
        text = json.dumps(cp)
        return text[:-1] + ', "size": ' + "9" * 5000 + "}"
    return (_vault_with_checkpoint(tmp_path, edit),
            "checkpoint.json' is not JSON")


def checkpoint_point_with_a_text_y(tmp_path):
    def edit(cp):
        point = cp["world"]["points"]["rena"]["doc.bin"]
        point["y"] = str(point["y"])
        return cp
    return (_vault_with_checkpoint(tmp_path, edit),
            "the point of 'rena' for 'doc.bin': 'y' must be an integer")


def checkpoint_digest_not_hex(tmp_path):
    def edit(cp):
        cp["journal_sha256"] = "z" * 64
        return cp
    return (_vault_with_checkpoint(tmp_path, edit),
            "every digest must be 64 lower-case hex digits")


def script_not_json(tmp_path):
    script = tmp_path / "s.jsonl"
    script.write_text("register olive\n")
    return ["simulate", script, "--out", tmp_path], "not JSON"


NOT_UTF8 = b"\xff\xfe not text\n"


def key_file_not_utf8(tmp_path):
    blob, key = _encrypted(tmp_path)
    key.write_bytes(key.read_bytes() + NOT_UTF8)
    return (["decrypt", blob, "--out", tmp_path, "--key", key],
            "is not UTF-8 text")


def script_not_utf8(tmp_path):
    script = tmp_path / "s.jsonl"
    script.write_bytes(NOT_UTF8)
    return ["simulate", script, "--out", tmp_path], "codec can't decode"


def journal_not_utf8(tmp_path):
    vault = _shared_vault(tmp_path)
    with (vault / "vault.jsonl").open("ab") as fh:
        fh.write(NOT_UTF8)
    return (["access", "doc.bin", "--out", vault, "--user", "rena"],
            "is not UTF-8 text")


def element_one_digit_short(tmp_path):
    blob, key = _encrypted(tmp_path)
    blob.write_bytes(blob.read_bytes()[:-2] + b"\n")
    return (["decrypt", blob, "--out", tmp_path, "--key", key],
            "fractional digits")


def element_one_digit_extra(tmp_path):
    blob, key = _encrypted(tmp_path)
    blob.write_bytes(blob.read_bytes()[:-1] + b"0\n")
    return (["decrypt", blob, "--out", tmp_path, "--key", key],
            "fractional digits")


def element_last_digit_changed(tmp_path):
    blob, key = _encrypted(tmp_path)
    raw = blob.read_bytes()
    digit = (raw[-2] - ord("0") + 1) % 10
    blob.write_bytes(raw[:-2] + str(digit).encode() + b"\n")
    return (["decrypt", blob, "--out", tmp_path, "--key", key],
            "RoundoffError: element 267 is not in the key's codebook")


def key_file_with_a_wide_base(tmp_path):
    # pk_sk**r_n has 8,001 digits, past the int-to-str conversion limit
    plain = tmp_path / "m.bin"
    plain.write_bytes(SECRET)
    key = tmp_path / "wide.key"
    key.write_text(f"pk_sk = {10 ** 4000}\nr_n = 2\nstream_seed = 1\n")
    return (["encrypt", plain, "--out", tmp_path, "--key", key],
            "pk_sk must be below 2**64")


def pgm_of_negative_size(tmp_path):
    # w*h = 4 matches the payload, so only the sign gives it away
    image = tmp_path / "neg.pgm"
    image.write_bytes(b"P5\n-2 -2\n255\n" + bytes(4))
    return (["analyze", "hist", image, "--out", tmp_path],
            "PGM size -2x-2 is not positive")


@pytest.mark.parametrize("case", [
    key_file_with_a_word, journal_line_not_json,
    journal_record_without_a_field, journal_record_not_an_object,
    journal_field_of_the_wrong_type, journal_data_not_hex,
    journal_header_not_an_object, journal_integer_too_long, keys_not_json,
    keys_not_an_object, key_without_q, key_with_a_text_e,
    key_with_p_equal_to_q, key_with_a_composite_p, key_of_the_wrong_width,
    key_for_an_unregistered_user, checkpoint_not_json,
    checkpoint_not_an_object, checkpoint_integer_too_long,
    checkpoint_point_with_a_text_y, checkpoint_digest_not_hex,
    script_not_json, key_file_not_utf8,
    script_not_utf8, journal_not_utf8,
    element_one_digit_short, element_one_digit_extra,
    element_last_digit_changed, key_file_with_a_wide_base,
    pgm_of_negative_size,
], ids=lambda case: case.__name__)
def test_malformed_input_is_one_error_line(tmp_path, capsys, case):
    argv, expected = case(tmp_path)
    capsys.readouterr()
    assert run(*argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert expected in captured.err
    assert not list(tmp_path.rglob("*.out"))


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


def _vault_outputs(vault):
    return {p.name: p.read_bytes() for p in sorted(vault.iterdir())
            if p.suffix in (".blob", ".plain", ".jsonl", ".json")}


@pytest.mark.parametrize("deleted", [("keys.json",), ("checkpoint.json",),
                                     ("keys.json", "checkpoint.json")],
                         ids="+".join)
def test_stored_keys_change_no_output(tmp_path, deleted):
    # each deleted file is derived again before every command: the keys by
    # their prime search, the checkpoint by replaying the journal
    doc = tmp_path / "doc.bin"
    doc.write_bytes(SECRET)
    commands = [("share", doc, "--owner", "olive", "--users", "rena,sam"),
                ("access", "doc.bin", "--user", "rena"),
                ("revoke", "doc.bin", "--user", "sam"),
                ("access", "doc.bin", "--user", "sam"),
                ("access", "doc.bin", "--user", "rena")]
    kept, derived = tmp_path / "kept", tmp_path / "derived"
    codes = {kept: [], derived: []}
    for argv in commands:
        for vault in (kept, derived):
            for name in deleted if vault == derived else ():
                (vault / name).unlink(missing_ok=True)
            codes[vault].append(run(*argv, "--out", vault))
    assert codes[kept] == codes[derived] == [0, 0, 0, 1, 0]
    outputs = _vault_outputs(kept)
    assert set(outputs) == {"doc.bin.blob", "doc.bin.plain", "vault.jsonl",
                            "keys.json", "checkpoint.json"}
    assert outputs == _vault_outputs(derived)


def test_vault_commands_restore_the_checkpoint(tmp_path, monkeypatch):
    vault = _shared_vault(tmp_path)
    checkpoint = vault / "checkpoint.json"
    assert stat.S_IMODE(checkpoint.stat().st_mode) == 0o600
    assert json.loads(checkpoint.read_bytes())["journal_sha256"] == \
        hashlib.sha256((vault / "vault.jsonl").read_bytes()).hexdigest()

    def replay(*args):
        raise AssertionError("protocol.replay_commands ran")
    monkeypatch.setattr(protocol, "replay_commands", replay)
    second = tmp_path / "second.bin"
    second.write_bytes(SECRET[::-1])
    assert run("share", second, "--out", vault, "--owner", "olive",
               "--users", "sam") == 0
    # refused before journaling: the checkpoint stays valid
    assert run("share", second, "--out", vault, "--owner", "olive",
               "--users", "sam") == 1
    assert run("access", "doc.bin", "--out", vault, "--user", "rena") == 0
    assert (vault / "doc.bin.plain").read_bytes() == SECRET
    assert run("revoke", "doc.bin", "--out", vault, "--user", "sam") == 0
    # a denial is journaled, and the checkpoint written again
    assert run("access", "doc.bin", "--out", vault, "--user", "sam") == 1
    assert run("access", "second.bin", "--out", vault, "--user", "sam") == 0
    assert (vault / "second.bin.plain").read_bytes() == SECRET[::-1]
    assert [p.name for p in vault.iterdir() if p.name.startswith(".")] == []


def _swap_two_element_lines(vault):
    blob = vault / "doc.bin.blob"
    lines = blob.read_bytes().split(b"\n")
    # the last lines are single elements; pick two that differ
    i = next(i for i in range(len(lines) - 3, 0, -1)
             if lines[i] != lines[-2])
    lines[i], lines[-2] = lines[-2], lines[i]
    blob.write_bytes(b"\n".join(lines))


def _delete_blob(vault):
    (vault / "doc.bin.blob").unlink()


def _replace_renas_key(vault):
    keys = json.loads((vault / "keys.json").read_text())
    other = rsacrt.keygen(512, seed=99)
    keys["rena"] = {"p": other.p, "q": other.q, "e": other.e}
    (vault / "keys.json").write_text(json.dumps(keys))


@pytest.mark.parametrize("tamper", [_swap_two_element_lines, _delete_blob,
                                    _replace_renas_key],
                         ids=lambda f: f.__name__.strip("_"))
def test_a_checkpoint_that_does_not_match_is_replayed(tmp_path, monkeypatch,
                                                      tamper):
    # the same tampering in a vault without a checkpoint gives the output
    # of a replay; the checkpointed vault must give it too
    replay, replays, outputs = protocol.replay_commands, [], []

    def counted(*args):
        replays.append(args)
        return replay(*args)
    monkeypatch.setattr(protocol, "replay_commands", counted)
    for name in ("checkpointed", "replayed"):
        (tmp_path / name).mkdir()
        vault = _shared_vault(tmp_path / name)
        tamper(vault)
        if name == "replayed":
            (vault / "checkpoint.json").unlink()
        replays.clear()
        assert run("access", "doc.bin", "--out", vault, "--user", "rena") == 0
        assert len(replays) == 1
        assert (vault / "doc.bin.plain").read_bytes() == SECRET
        outputs.append(_vault_outputs(vault))
    assert outputs[0] == outputs[1]


def test_vault_access_takes_its_keys_from_the_key_store(tmp_path,
                                                        monkeypatch):
    vault = _shared_vault(tmp_path)

    def keygen(*args, **kwargs):
        raise AssertionError("rsacrt.keygen ran")
    monkeypatch.setattr(rsacrt, "keygen", keygen)
    assert run("access", "doc.bin", "--out", vault, "--user", "rena") == 0
    assert (vault / "doc.bin.plain").read_bytes() == SECRET


@pytest.fixture(scope="module")
def checkpointed_vault(tmp_path_factory):
    vault = _shared_vault(tmp_path_factory.mktemp("checkpointed"))
    return vault, json.loads((vault / "checkpoint.json").read_bytes())


def _json_paths(node, path=()):
    if isinstance(node, (dict, list)):
        children = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in children:
            yield path + (key,)
            yield from _json_paths(child, path + (key,))


_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-3, 2 ** 90),
    st.text(max_size=4), st.lists(st.integers(0, 9), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(0, 9), max_size=2))


@settings(derandomize=True, max_examples=120, deadline=None)
@given(data=st.data())
def test_a_mutated_checkpoint_raises_only_parvault_errors(checkpointed_vault,
                                                         data):
    # one node of the checkpoint replaced or deleted, or one byte of its
    # text overwritten; loading it and running each vault operation on
    # what it gives may be refused, but only with a ParvaultError
    vault, good = checkpointed_vault
    doc = copy.deepcopy(good)
    *head, last = data.draw(st.sampled_from(list(_json_paths(doc))))
    node = functools.reduce(operator.getitem, head, doc)
    how = data.draw(st.sampled_from(["replace", "delete", "byte"]))
    if how == "replace":
        node[last] = data.draw(_JSON_VALUES)
    elif how == "delete":
        del node[last]
    raw = bytearray(json.dumps(doc).encode())
    if how == "byte":
        raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(
            st.integers(0, 255))
    (vault / "checkpoint.json").write_bytes(raw)
    try:
        sim = cli._load_vault(str(vault), "doc.bin").sim
    except ParvaultError:
        return
    for op in (lambda: sim.request_access("rena", "doc.bin"),
               lambda: sim.store_file("olive", SECRET, ["sam"], "new.bin"),
               lambda: sim.revoke_and_reencrypt("olive", "doc.bin", "sam")):
        try:
            op()
        except ParvaultError:
            pass


def test_vault_without_a_key_store_gains_one(tmp_path):
    vault = _shared_vault(tmp_path)
    keys = vault / "keys.json"
    assert stat.S_IMODE(keys.stat().st_mode) == 0o600
    written = keys.read_bytes()
    assert set(json.loads(written)) == {"olive", "rena", "sam"}
    keys.unlink()  # a vault from before the key store
    assert run("access", "doc.bin", "--out", vault, "--user", "rena") == 0
    assert (vault / "doc.bin.plain").read_bytes() == SECRET
    assert keys.read_bytes() == written
    assert stat.S_IMODE(keys.stat().st_mode) == 0o600
    assert [p.name for p in vault.iterdir() if p.name.startswith(".")] == []


def test_vault_rejects_conflicting_parameters(tmp_path, capsys):
    doc = tmp_path / "doc.bin"
    doc.write_bytes(b"pinned world")
    vault = tmp_path / "vault"
    assert run("share", doc, "--out", vault, "--owner", "o",
               "--users", "u") == 0
    journal = (vault / "vault.jsonl").read_bytes()
    second = tmp_path / "second.bin"
    second.write_bytes(b"a second file")
    for flag, value, pinned in (("--prime", 101, secretshare.DEFAULT_PRIME),
                                ("--seed", 99, 2024)):
        capsys.readouterr()
        assert run("share", second, "--out", vault, "--owner", "o",
                   "--users", "u", flag, value) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert f"{flag} {value} conflicts with the journal's {pinned}; " \
               "the vault pins its parameters" in captured.err
        assert (vault / "vault.jsonl").read_bytes() == journal
        assert not (vault / "second.bin.blob").exists()


def test_vault_refuses_a_composite_prime(tmp_path, capsys):
    doc = tmp_path / "doc.bin"
    doc.write_bytes(b"a field needs a prime")
    vault = tmp_path / "vault"
    assert run("share", doc, "--out", vault, "--owner", "o", "--users", "a",
               "--prime", 2 ** 100) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert f"field prime {2 ** 100} is not prime" in captured.err
    assert not (vault / "vault.jsonl").exists()


def test_vault_share_takes_a_matching_or_omitted_parameter(tmp_path):
    doc = tmp_path / "doc.bin"
    doc.write_bytes(b"pinned world")
    vault = tmp_path / "vault"
    assert run("share", doc, "--out", vault, "--owner", "o", "--users", "u",
               "--seed", 7, "--precision", 40) == 0
    header = json.loads((vault / "vault.jsonl").read_text().splitlines()[0])
    assert (header["seed"], header["precision"]) == (7, 40)
    assert header["prime"] == secretshare.DEFAULT_PRIME
    second = tmp_path / "second.bin"
    second.write_bytes(b"a second file")
    assert run("share", second, "--out", vault, "--owner", "o",
               "--users", "u", "--seed", 7) == 0
    assert run("access", "second.bin", "--out", vault, "--user", "u") == 0
    assert (vault / "second.bin.plain").read_bytes() == b"a second file"


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


def test_simulate_fails_misshapen_steps(tmp_path, capsys):
    script = tmp_path / "s.jsonl"
    _write_script(script, [[1], {"cmd": "register", "user_id": "o",
                                 "credentials": 5}] + STEPS[1:2])
    assert run("simulate", script, "--out", tmp_path) == 1
    captured = capsys.readouterr()
    assert "not a JSON object" in captured.out
    assert "must be a list of strings" in captured.out
    assert captured.err == "error: 2 of 3 steps diverged\n"


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
    ["access", "f", "--user", "u", "--prime", "101"],  # pinned by share
    ["decrypt", "x.blob", "--key", "k", "--seed", "1"],  # nothing to seed
    # one of each pair would be ignored: the key file carries the seed and
    # the blob its precision (values off the default, which argparse counts
    # as given)
    ["encrypt", "m.bin", "--key", "m.key", "--seed", "9"],
    ["analyze", "corr", "i.pgm", "--encrypted", "i.blob", "--precision", "40"],
    # there is one keystream generator and no file to configure it
    ["keygen", "--config", "gen.ini"],
    ["encrypt", "m.bin", "--config", "gen.ini"],
    ["analyze", "corr", "i.pgm", "--config", "gen.ini"],
    ["bench", "--config", "gen.ini"],
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


def test_importing_the_cli_leaves_scipy_out(tmp_path):
    # only analyze and bench use the statistics package, and scipy with it
    probe = ("import sys\n"
             "import parvault.cli\n"
             "print(sorted(m for m in sys.modules\n"
             "             if m.split('.')[0] == 'scipy'\n"
             "             or m.startswith('parvault.statsuite')))\n")
    assert _launch([sys.executable, "-c", probe], tmp_path).stdout == "[]\n"


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
