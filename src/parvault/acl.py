"""Policy layer: user registry, per-file ACL entries, revocation state.

The registry holds UserRecord rows (id, type, credential strings), keyed
by user id; two users may hold the same credential set. Each file gets
exactly one PolicyEntry (one key per file), carrying the authorized and
revoked user sets and a monotone epoch. The threshold is the constant
THRESHOLD for every file; revocation and re-admission change only the
sets and the epoch, and the protocol layer re-keys the file itself.

The store lives in memory and keeps no history of its own: a world is
rebuilt by replaying commands through the protocol layer (the CLI keeps
them in its vault journal), or restored from the snapshot in a protocol
checkpoint, and snapshot() gives the JSON view the cloud backs up.

Storage-overhead accounting lives here too: a user carries their m
credentials plus one share point (m+1 parameters), the server carries the
per-file ciphertext-rooted elements plus one binding code (K_c+1), and
the audit helpers count leaf parameters in serialized state so tests can
hold the bookkeeping to those formulas.
"""

from dataclasses import dataclass, field

from .errors import ParvaultError, ValidationError

USER_TYPES = ("owner", "user")

THRESHOLD = 3


class DuplicateUserError(ParvaultError):
    """user_id already registered."""


class UnknownUserError(ParvaultError):
    """user_id not in the registry."""


class NotOwnerError(ParvaultError):
    """Operation reserved for the policy owner."""


class PolicyExistsError(ParvaultError):
    """A policy for this file already exists (one key per file)."""


class NoPolicyError(ParvaultError):
    """No policy recorded for this file."""


@dataclass
class UserRecord:
    """Registry row: identity, type, and attribute credential strings."""

    user_id: str
    user_type: str
    credentials: list

    def __post_init__(self):
        if not self.user_id:
            raise ValidationError("user_id must be non-empty")
        if self.user_type not in USER_TYPES:
            raise ValidationError(f"user_type must be one of {USER_TYPES}")
        if not self.credentials:
            raise ValidationError("credentials list must be non-empty")
        if len(set(self.credentials)) != len(self.credentials):
            raise ValidationError("duplicate credential strings for one user")


@dataclass
class PolicyEntry:
    file_id: str
    owner_id: str
    authorized_user_ids: set
    epoch: int = 0
    revoked_user_ids: set = field(default_factory=set)


@dataclass(frozen=True)
class AccessDecision:
    granted: bool
    reason: str


class PolicyDb:
    """In-memory registry and policy store; snapshot() is its only
    serialized form."""

    def __init__(self):
        self.users = {}
        self.policies = {}

    # -- registry -----------------------------------------------------------

    def register_user(self, record):
        if record.user_id in self.users:
            raise DuplicateUserError(f"user {record.user_id!r} already registered")
        self.users[record.user_id] = record
        return record.user_id

    def get_user(self, user_id):
        try:
            return self.users[user_id]
        except KeyError:
            raise UnknownUserError(f"unknown user {user_id!r}") from None

    # -- policies -----------------------------------------------------------

    def create_policy(self, owner_id, file_id, authorized):
        owner = self.get_user(owner_id)
        if owner.user_type != "owner":
            raise NotOwnerError(f"{owner_id!r} is not an owner")
        if file_id in self.policies:
            raise PolicyExistsError(f"file {file_id!r} already has a policy; "
                                    "one key per file")
        for uid in authorized:
            self.get_user(uid)
        entry = PolicyEntry(file_id=file_id, owner_id=owner_id,
                            authorized_user_ids=set(authorized))
        self.policies[file_id] = entry
        return entry

    def get_policy(self, file_id):
        try:
            return self.policies[file_id]
        except KeyError:
            raise NoPolicyError(f"no policy for file {file_id!r}") from None

    def check_access(self, user_id, file_id, presented_credentials):
        """Grant only to an authorized, unrevoked user presenting exactly
        the registered credential list."""
        entry = self.get_policy(file_id)
        if user_id not in self.users:
            return AccessDecision(False, "unknown user")
        if user_id in entry.revoked_user_ids:
            return AccessDecision(False, "user revoked")
        if user_id not in entry.authorized_user_ids:
            return AccessDecision(False, "user not authorized")
        registered = self.users[user_id].credentials
        if list(presented_credentials) != list(registered):
            return AccessDecision(False, "credential mismatch")
        return AccessDecision(True, "authorized")

    def revoke_user(self, owner_id, file_id, user_id):
        entry = self.get_policy(file_id)
        if owner_id != entry.owner_id:
            raise NotOwnerError(f"{owner_id!r} does not own {file_id!r}")
        if user_id not in entry.authorized_user_ids:
            return entry
        entry.authorized_user_ids.discard(user_id)
        entry.revoked_user_ids.add(user_id)
        entry.epoch += 1
        return entry

    def grant_user(self, owner_id, file_id, user_id):
        """Re-admit a user (possibly previously revoked); epoch advances."""
        entry = self.get_policy(file_id)
        if owner_id != entry.owner_id:
            raise NotOwnerError(f"{owner_id!r} does not own {file_id!r}")
        self.get_user(user_id)
        entry.revoked_user_ids.discard(user_id)
        entry.authorized_user_ids.add(user_id)
        entry.epoch += 1
        return entry

    def advance_epoch(self, file_id):
        entry = self.get_policy(file_id)
        entry.epoch += 1
        return entry.epoch

    # -- snapshots ----------------------------------------------------------

    def snapshot(self):
        """JSON-serializable view of the whole store: the cloud's ACL
        backup. threshold, priority and needs_reencryption are constants,
        written so the audited bytes keep their format."""
        return {
            "users": {uid: {"user_type": rec.user_type,
                            "credentials": list(rec.credentials)}
                      for uid, rec in sorted(self.users.items())},
            "policies": {fid: {"owner_id": e.owner_id,
                               "authorized": sorted(e.authorized_user_ids),
                               "revoked": sorted(e.revoked_user_ids),
                               "threshold": THRESHOLD,
                               "epoch": e.epoch,
                               "priority": 0,
                               "needs_reencryption": False}
                         for fid, e in sorted(self.policies.items())},
        }


# ---------------------------------------------------------------------------
# storage-overhead accounting
# ---------------------------------------------------------------------------

def storage_overhead(m, k_c):
    """Parameter counts (user, server) for m credentials and k_c
    ciphertext-rooted elements: (m+1, k_c+1)."""
    if m < 0 or k_c < 0:
        raise ValidationError("counts must be nonnegative")
    return m + 1, k_c + 1


def count_user_parameters(user_state):
    """Leaf parameters in a serialized per-user, per-file state: credential
    strings plus the single share point."""
    count = len(user_state.get("credentials", []))
    if user_state.get("point") is not None:
        count += 1
    return count


def count_server_parameters(file_state):
    """Leaf parameters in a serialized server per-file state: each
    ciphertext-rooted element plus the binding code."""
    count = len(file_state.get("ciphertext_elements", []))
    if file_state.get("binding_code") is not None:
        count += 1
    return count
