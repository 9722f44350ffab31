"""Registry, policies, revocation, and the storage-overhead audit."""

import random

import pytest

from parvault import acl
from parvault.errors import ValidationError


def fresh_db():
    db = acl.PolicyDb()
    db.register_user(acl.UserRecord("olive", "owner", ["org:lab", "role:lead"]))
    db.register_user(acl.UserRecord("rena", "user", ["org:lab"]))
    db.register_user(acl.UserRecord("sam", "user", ["org:guest"]))
    return db


# ---------------------------------------------------------------------------
# registration
# ---------------------------------------------------------------------------

def test_fresh_registration_succeeds():
    db = fresh_db()
    assert db.get_user("olive").user_type == "owner"


def test_duplicate_id_rejected():
    db = fresh_db()
    with pytest.raises(acl.DuplicateUserError):
        db.register_user(acl.UserRecord("olive", "user", ["x"]))


def test_duplicate_credential_set_registers():
    db = fresh_db()
    db.register_user(acl.UserRecord("rena2", "user", ["org:lab"]))
    assert db.get_user("rena2").credentials == db.get_user("rena").credentials


def test_record_invariants():
    with pytest.raises(ValidationError):
        acl.UserRecord("", "user", ["a"])
    with pytest.raises(ValidationError):
        acl.UserRecord("u", "admin", ["a"])
    with pytest.raises(ValidationError):
        acl.UserRecord("u", "user", [])
    with pytest.raises(ValidationError):
        acl.UserRecord("u", "user", ["a", "a"])


# ---------------------------------------------------------------------------
# policies and access decisions
# ---------------------------------------------------------------------------

def test_policy_has_fixed_threshold_and_epoch_zero():
    db = fresh_db()
    entry = db.create_policy("olive", "f1", {"rena", "sam"})
    assert entry.epoch == 0
    row = db.snapshot()["policies"]["f1"]
    assert row["threshold"] == acl.THRESHOLD == 3
    assert row["priority"] == 0
    assert row["needs_reencryption"] is False


def test_policy_with_unregistered_user_rejected():
    db = fresh_db()
    with pytest.raises(acl.UnknownUserError):
        db.create_policy("olive", "f1", {"rena", "ghost"})


def test_non_owner_cannot_create_policy():
    db = fresh_db()
    with pytest.raises(acl.NotOwnerError):
        db.create_policy("rena", "f1", {"sam"})


def test_one_key_per_file():
    db = fresh_db()
    db.create_policy("olive", "f1", {"rena"})
    with pytest.raises(acl.PolicyExistsError):
        db.create_policy("olive", "f1", {"sam"})


def test_authorized_user_with_matching_credentials_granted():
    db = fresh_db()
    db.create_policy("olive", "f1", {"rena"})
    decision = db.check_access("rena", "f1", ["org:lab"])
    assert decision.granted
    assert decision.reason == "authorized"


def test_unauthorized_user_denied():
    db = fresh_db()
    db.create_policy("olive", "f1", {"rena"})
    assert not db.check_access("sam", "f1", ["org:guest"]).granted


def test_stale_credentials_denied():
    db = fresh_db()
    db.create_policy("olive", "f1", {"rena"})
    assert not db.check_access("rena", "f1", ["org:labx"]).granted
    assert db.check_access("rena", "f1", ["org:labx"]).reason == \
        "credential mismatch"


def test_unknown_user_denied_without_error():
    db = fresh_db()
    db.create_policy("olive", "f1", {"rena"})
    decision = db.check_access("ghost", "f1", ["whatever"])
    assert not decision.granted
    assert decision.reason == "unknown user"


def test_missing_policy_is_an_error():
    db = fresh_db()
    with pytest.raises(acl.NoPolicyError):
        db.check_access("rena", "nope", ["org:lab"])


# ---------------------------------------------------------------------------
# revocation
# ---------------------------------------------------------------------------

def test_revocation_moves_the_user_and_bumps_epoch():
    db = fresh_db()
    db.create_policy("olive", "f1", {"rena", "sam"})
    entry = db.revoke_user("olive", "f1", "rena")
    assert "rena" in entry.revoked_user_ids
    assert "rena" not in entry.authorized_user_ids
    assert entry.epoch == 1


def test_revoked_user_always_denied():
    db = fresh_db()
    db.create_policy("olive", "f1", {"rena", "sam"})
    db.revoke_user("olive", "f1", "rena")
    decision = db.check_access("rena", "f1", ["org:lab"])
    assert not decision.granted
    assert decision.reason == "user revoked"


def test_only_owner_can_revoke():
    db = fresh_db()
    db.create_policy("olive", "f1", {"rena"})
    with pytest.raises(acl.NotOwnerError):
        db.revoke_user("sam", "f1", "rena")


def test_revoking_a_stranger_is_a_noop():
    db = fresh_db()
    db.create_policy("olive", "f1", {"rena"})
    entry = db.revoke_user("olive", "f1", "sam")
    assert entry.epoch == 0
    assert "sam" not in entry.revoked_user_ids


def test_regrant_restores_access():
    db = fresh_db()
    db.create_policy("olive", "f1", {"rena", "sam"})
    db.revoke_user("olive", "f1", "rena")
    db.grant_user("olive", "f1", "rena")
    assert db.check_access("rena", "f1", ["org:lab"]).granted


def test_epoch_never_decreases_under_random_operations():
    db = fresh_db()
    db.create_policy("olive", "f1", {"rena", "sam"})
    rng = random.Random(99)
    last = 0
    for _ in range(300):
        op = rng.choice(("revoke", "grant", "tick"))
        uid = rng.choice(("rena", "sam"))
        if op == "revoke":
            db.revoke_user("olive", "f1", uid)
        elif op == "grant":
            db.grant_user("olive", "f1", uid)
        else:
            db.advance_epoch("f1")
        epoch = db.get_policy("f1").epoch
        assert epoch >= last
        last = epoch


# ---------------------------------------------------------------------------
# storage overhead
# ---------------------------------------------------------------------------

def test_overhead_formula():
    assert acl.storage_overhead(0, 0) == (1, 1)
    assert acl.storage_overhead(5, 2) == (6, 3)


def test_parameter_counters_follow_formula():
    user_state = {"credentials": ["a", "b", "c"], "point": {"x": 1, "y": 2}}
    assert acl.count_user_parameters(user_state) == 4
    file_state = {"ciphertext_elements": [("org_point", 1), ("wrapped", "u1")],
                  "binding_code": 7}
    assert acl.count_server_parameters(file_state) == 3
