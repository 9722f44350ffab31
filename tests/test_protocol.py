"""Four-party simulator: the full store/access flow, revocation, attacks."""

import json

import numpy as np
import pytest

from parvault import acl, fbsc, prng, protocol, rsacrt
from parvault.errors import ValidationError
from parvault.secretshare import DuplicatePointError, InconsistentPointError, \
    ThresholdError

PAYLOAD = b"quarterly numbers, draft 7: " + bytes(range(256)) * 4


def world(seed=2024, **kwargs):
    sim = protocol.Simulation(seed=seed, **kwargs)
    sim.register("olive", ["org:lab", "role:lead"], user_type="owner")
    sim.register("rena", ["org:lab"])
    sim.register("sam", ["org:guest"])
    return sim


def stored_world(**kwargs):
    sim = world(**kwargs)
    fid, assignment = sim.store_file("olive", PAYLOAD, ["rena", "sam"])
    return sim, fid, assignment


# ---------------------------------------------------------------------------
# bus
# ---------------------------------------------------------------------------

def test_bus_sequences_strictly_increase():
    sim, fid, _ = stored_world()
    sim.request_access("rena", fid)
    seqs = [m.seq for m in sim.bus.messages]
    assert seqs == list(range(1, len(seqs) + 1))
    assert all(m.kind in protocol.MESSAGE_KINDS for m in sim.bus.messages)


def test_bus_rejects_unknown_kind():
    with pytest.raises(ValidationError):
        protocol.MessageBus().send("a", "b", "Gossip")


def test_trace_hash_tracks_content():
    bus = protocol.MessageBus()
    bus.send("a", "b", "BlobPut", file_id="f")
    h1 = bus.trace_hash()
    bus.send("b", "a", "BlobGet", file_id="f")
    assert bus.trace_hash() != h1


# ---------------------------------------------------------------------------
# store
# ---------------------------------------------------------------------------

def test_store_then_access_roundtrip():
    sim, fid, _ = stored_world()
    assert sim.request_access("rena", fid) == PAYLOAD
    assert sim.request_access("sam", fid) == PAYLOAD


def test_point_assignment_covers_all_roles():
    sim, fid, assignment = stored_world()
    assert assignment == {"org_server": 1, "olive": 2, "rena": 3, "sam": 4}
    assert len(assignment) == 4  # d_x participants, one point each


def test_store_post_state():
    sim, fid, _ = stored_world()
    assert set(sim.cloud_blobs) == {fid}
    state = sim.server_files[fid]
    assert state["org_token"]["x"] == 1
    assert set(state["wrapped"]) == {"olive", "rena", "sam"}
    assert state["key_epoch"] == 0
    # the uploaded blob is the public copy: power byte scrubbed
    assert fbsc.parse_blob(sim.cloud_blobs[fid]).r_n == 0


def test_no_key_material_in_server_or_cloud_state():
    sim, fid, _ = stored_world()
    key = sim._fresh_symmetric_key(fid, 0)
    a0 = rsacrt.encode_payload_int(key.r_n, key.pk_sk)
    needles = [str(key.pk_sk).encode(), str(a0).encode()]
    for uid in ("olive", "rena", "sam"):
        needles.append(str(sim.user_state[uid]["rsa"].d).encode())
    cloud = sim.serialized_cloud_state()
    server = sim.serialized_server_state()
    for needle in needles:
        assert needle not in cloud
        assert needle not in server
    # the cloud additionally never sees any share point
    for uid in ("olive", "rena", "sam"):
        y = sim.user_state[uid]["points"][fid]["y"]
        assert str(y).encode() not in cloud


def test_zero_sharers_fails_threshold_with_no_residue():
    sim = world()
    with pytest.raises(ThresholdError):
        sim.store_file("olive", b"solo", [])
    assert sim.cloud_blobs == {}
    assert sim.policy_db.policies == {}


def test_one_key_per_file_name():
    sim = world()
    sim.store_file("olive", b"first", ["rena", "sam"], file_name="shared.bin")
    with pytest.raises(acl.PolicyExistsError):
        sim.store_file("olive", b"second", ["rena", "sam"],
                       file_name="shared.bin")


def test_store_requires_owner_type_and_two_credentials():
    sim = world()
    with pytest.raises(acl.NotOwnerError):
        sim.store_file("rena", b"data", ["sam", "olive"])
    sim.register("oscar", ["solo:cred"], user_type="owner")
    with pytest.raises(ValidationError):
        sim.store_file("oscar", b"data", ["rena", "sam"])


def test_empty_payload_rejected():
    sim = world()
    with pytest.raises(ValidationError):
        sim.store_file("olive", b"", ["rena", "sam"])


def test_tiny_field_prime_aborts_store_atomically():
    sim = world(p=101)
    with pytest.raises(rsacrt.PayloadTooLargeError):
        sim.store_file("olive", b"data", ["rena", "sam"])
    assert sim.cloud_blobs == {}
    assert sim.policy_db.policies == {}


def test_sixty_four_kib_payload():
    sim = world()
    rng = np.random.default_rng(17)
    big = rng.integers(0, 256, 64 * 1024, dtype=np.uint8).tobytes()
    fid, _ = sim.store_file("olive", big, ["rena", "sam"])
    assert sim.request_access("rena", fid) == big


# ---------------------------------------------------------------------------
# access control paths
# ---------------------------------------------------------------------------

def test_withheld_approval_leaves_user_empty_handed():
    sim, fid, _ = stored_world()
    before = sim.serialize_user_state("rena", fid)
    with pytest.raises(protocol.ApprovalWithheldError):
        sim.request_access("rena", fid, owner_approves=False)
    assert sim.serialize_user_state("rena", fid) == before


def test_unauthorized_user_denied():
    sim, fid, _ = stored_world()
    sim.register("walt", ["org:other"])
    with pytest.raises(protocol.AccessDeniedError):
        sim.request_access("walt", fid)


def test_revoked_user_denied_before_any_point_flow():
    sim, fid, _ = stored_world()
    sim.revoke_and_reencrypt("olive", fid, "sam")
    before = len(sim.bus.messages)
    with pytest.raises(protocol.AccessDeniedError):
        sim.request_access("sam", fid)
    tail = sim.bus.messages[before:]
    assert [m.kind for m in tail] == ["AccessRequest"]


def test_tampered_wrapped_key_fails_possession_proof():
    sim, fid, _ = stored_world()
    sim.server_files[fid]["wrapped"]["rena"] ^= 1
    with pytest.raises(InconsistentPointError):
        sim.request_access("rena", fid)


# ---------------------------------------------------------------------------
# revocation and re-keying
# ---------------------------------------------------------------------------

def test_revocation_rekeys_for_the_remaining_sharer():
    sim, fid, _ = stored_world()
    old_token = dict(sim.user_state["sam"]["points"][fid])
    old_blob = sim.cloud_blobs[fid]
    issued = sim.revoke_and_reencrypt("olive", fid, "sam")
    assert set(issued) == {"org_server", "olive", "rena"}
    assert sim.cloud_blobs[fid] != old_blob
    assert sim.server_files[fid]["key_epoch"] == 1
    assert "sam" not in sim.server_files[fid]["wrapped"]
    # the survivor holds a fresh epoch-1 point and still reads the file
    assert sim.user_state["rena"]["points"][fid]["epoch"] == 1
    assert sim.request_access("rena", fid) == PAYLOAD
    # sam keeps the stale point, and the ceremony rejects it
    assert sim.user_state["sam"]["points"][fid] == old_token
    org = sim.server_files[fid]["org_token"]
    owner_tok = sim.user_state["olive"]["points"][fid]
    with pytest.raises(InconsistentPointError, match="stale"):
        sim.server_reconstruct(fid, [org, owner_tok, old_token])


def test_revoke_then_regrant_restores_access():
    sim, fid, _ = stored_world()
    sim.revoke_and_reencrypt("olive", fid, "sam")
    issued = sim.re_grant("olive", fid, "sam")
    assert "sam" in issued
    assert sim.request_access("sam", fid) == PAYLOAD
    assert sim.server_files[fid]["key_epoch"] == 2


def test_revoking_a_stranger_changes_nothing():
    sim, fid, _ = stored_world()
    epoch_before = sim.policy_db.get_policy(fid).epoch
    blob_before = sim.cloud_blobs[fid]
    issued = sim.revoke_and_reencrypt("olive", fid, "walt-was-never-here")
    assert issued == {"org_server": 1, "olive": 2, "rena": 3, "sam": 4}
    assert sim.policy_db.get_policy(fid).epoch == epoch_before
    assert sim.cloud_blobs[fid] == blob_before


def test_repeated_revoke_lists_only_current_holders():
    sim, fid, _ = stored_world()
    issued = sim.revoke_and_reencrypt("olive", fid, "sam")
    blob_before = sim.cloud_blobs[fid]
    again = sim.revoke_and_reencrypt("olive", fid, "sam")
    assert again == issued
    assert "sam" not in again
    assert sim.cloud_blobs[fid] == blob_before


def test_owner_cannot_be_their_own_sharer():
    sim = world()
    with pytest.raises(ValidationError):
        sim.store_file("olive", PAYLOAD, ["olive", "rena"])
    assert sim.policy_db.policies == {}
    assert sim.cloud_blobs == {}
    sim, fid, assignment = stored_world()
    trace = sim.bus.trace_hash()
    with pytest.raises(ValidationError):
        sim.re_grant("olive", fid, "olive")
    assert sim.bus.trace_hash() == trace
    assert sim.policy_db.get_policy(fid).authorized_user_ids == {"rena", "sam"}
    assert sim.request_access("rena", fid) == PAYLOAD


def test_only_the_owner_revokes():
    sim, fid, _ = stored_world()
    with pytest.raises(acl.NotOwnerError):
        sim.revoke_and_reencrypt("rena", fid, "sam")


def test_epoch_tick_refreshes_policy():
    sim, fid, _ = stored_world()
    before = sim.policy_db.get_policy(fid).epoch
    after = sim.epoch_tick(fid)
    assert after == before + 1
    assert sim.request_access("rena", fid) == PAYLOAD


# ---------------------------------------------------------------------------
# adversary scenarios
# ---------------------------------------------------------------------------

def test_three_attacks_all_denied():
    sim, fid, _ = stored_world()
    report = sim.adversary_scenarios(fid)
    assert report["all_denied"]
    assert report["t1"]["denied"]
    assert report["t2"]["denied"]
    assert report["t2"]["posterior_uniform"]
    assert report["t3"]["denied"]
    assert report["t3"]["denied_before_owner"]


def test_duplicate_points_cannot_reconstruct():
    sim, fid, _ = stored_world()
    org = sim.server_files[fid]["org_token"]
    with pytest.raises(DuplicatePointError):
        sim.server_reconstruct(fid, [org] * 5)


def test_two_pooled_receiver_points_hit_threshold():
    sim, fid, _ = stored_world()
    toks = [sim.user_state["rena"]["points"][fid],
            sim.user_state["sam"]["points"][fid]]
    with pytest.raises(ThresholdError):
        sim.server_reconstruct(fid, toks)


def test_toy_posterior_is_uniform():
    assert protocol._toy_posterior_uniform()


# ---------------------------------------------------------------------------
# determinism and scripts
# ---------------------------------------------------------------------------

def _run_fixed_ops(sim):
    fid, _ = sim.store_file("olive", PAYLOAD, ["rena", "sam"],
                            file_name="det.bin")
    sim.request_access("rena", fid)
    sim.revoke_and_reencrypt("olive", fid, "sam")
    sim.request_access("rena", fid)
    return fid


def test_identical_seeds_identical_worlds():
    a, b = world(seed=5), world(seed=5)
    _run_fixed_ops(a)
    _run_fixed_ops(b)
    assert a.bus.trace_hash() == b.bus.trace_hash()
    assert a.serialized_cloud_state() == b.serialized_cloud_state()
    assert a.serialized_server_state() == b.serialized_server_state()


def test_different_seeds_diverge():
    a, b = world(seed=5), world(seed=6)
    _run_fixed_ops(a)
    _run_fixed_ops(b)
    assert a.serialized_cloud_state() != b.serialized_cloud_state()


def test_storage_audit_matches_formula():
    sim, fid, _ = stored_world()
    user = sim.serialize_user_state("rena", fid)
    m = len(sim.policy_db.get_user("rena").credentials)
    assert acl.count_user_parameters(user) == acl.storage_overhead(m, 0)[0]
    server = sim.serialize_server_file_state(fid)
    k_c = len(server["ciphertext_elements"])
    assert acl.count_server_parameters(server) == k_c + 1


SCRIPT = [
    {"cmd": "register", "user_id": "olive", "type": "owner",
     "credentials": ["org:lab", "role:lead"]},
    {"cmd": "register", "user_id": "rena", "credentials": ["org:lab"]},
    {"cmd": "register", "user_id": "sam", "credentials": ["org:guest"]},
    {"cmd": "store", "owner": "olive", "file": "s.bin",
     "sharers": ["rena", "sam"], "size": 300},
    {"cmd": "access", "user": "rena", "file": "s.bin", "expect": "grant"},
    {"cmd": "attack", "file": "s.bin"},
    {"cmd": "revoke", "owner": "olive", "file": "s.bin", "user": "sam"},
    {"cmd": "access", "user": "sam", "file": "s.bin", "expect": "deny"},
    {"cmd": "access", "user": "rena", "file": "s.bin", "expect": "grant"},
    {"cmd": "tick", "file": "s.bin"},
]


def test_replay_commands_outcomes():
    sim = protocol.Simulation(seed=11)
    outcomes = protocol.replay_commands(sim, SCRIPT)
    assert all(rec["ok"] for rec in outcomes)
    assert outcomes[4]["result"] == "grant"
    assert outcomes[5]["all_denied"]
    assert outcomes[7]["result"] == "deny"


def test_replay_flags_wrong_expectation():
    steps = SCRIPT[:5] + [{"cmd": "access", "user": "sam", "file": "s.bin",
                           "expect": "deny"}]
    outcomes = protocol.replay_commands(protocol.Simulation(seed=11), steps)
    assert not outcomes[-1]["ok"]
    assert outcomes[-1]["result"] == "grant"


def test_run_script_emits_trace(tmp_path):
    script = tmp_path / "scenario.jsonl"
    script.write_text("".join(json.dumps(s) + "\n" for s in SCRIPT))
    trace = tmp_path / "trace.jsonl"
    sim, outcomes = protocol.run_script(script, trace_path=trace, seed=11)
    assert all(rec["ok"] for rec in outcomes)
    lines = trace.read_text().splitlines()
    records = [json.loads(ln) for ln in lines]
    assert records[-1] == {"final_state_digest": sim.bus.trace_hash()}
    assert [r["seq"] for r in records[:-1]] == \
        [m.seq for m in sim.bus.messages]
    # replaying the same script reproduces the same digest
    sim2, _ = protocol.run_script(script, seed=11)
    assert sim2.bus.trace_hash() == sim.bus.trace_hash()
