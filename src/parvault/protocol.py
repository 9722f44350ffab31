"""Deterministic four-party access-control simulator.

Participants are a data owner, the organization server, a cloud store, and
data users, talking over an in-process bus that stamps every message with a
strictly increasing sequence number; identical seeds and scripts give
identical traces. The flow for a stored file is:

  owner registers a policy -> payload is padded and stream-encrypted ->
  the symmetric secret (r_n, pk_sk) is framed as one integer, RSA-wrapped
  for each participant, and shared as the constant term of a parabolic
  polynomial -> points go one to the server, one to the owner, one to each
  receiver -> the blob (power byte scrubbed) and an ACL backup go to the
  cloud -> the server forgets every raw secret.

An access then needs three parties: the requester's point, the server's
point, and an explicit owner approval carrying the owner point. The server
reconstructs the polynomial, checks every presented point's binding code
and the stored file binding code, hands the requester its wrapped key, and
only proceeds once the requester proves possession by echoing a digest of
the unwrapped payload (two-way authentication). Reconstructed secrets live
in locals only; nothing key-shaped is ever written to server or cloud
state. Revocation re-keys: fresh cipher secret, fresh polynomial, fresh
points at a bumped key epoch, so stale points fail binding verification
even before the ACL says no.

The cloud participant stores ciphertext blobs and an ACL backup and nothing
else; its serialized state is the surface the blindness byte-scan audits.
"""

import json
from dataclasses import dataclass

from . import acl, fbsc, prng, rsacrt, secretshare
from .digests import digest64_ints, digest64_text
from .errors import ParvaultError, ValidationError
from .secretshare import (DuplicatePointError, InconsistentPointError,
                          SharePoint, ThresholdError)

MESSAGE_KINDS = ("StoreRequest", "PolicyCreate", "PointIssue", "AccessRequest",
                 "OwnerApproval", "PointPresentation", "BlobPut", "BlobGet",
                 "ReencryptNotice")

DEFAULT_PK_BITS = 56  # 17-digit pk_sk; wide enough that byte-scans mean something


class AccessDeniedError(ParvaultError):
    """The ACL said no before any point handling."""


class ApprovalWithheldError(ParvaultError):
    """The data owner declined to contribute the owner point."""


class ReencryptionError(ParvaultError):
    """Re-keying could not complete; the old blob stays authoritative."""


@dataclass(frozen=True)
class SimMessage:
    seq: int
    sender: str
    recipient: str
    kind: str
    info: tuple  # sorted (key, value) pairs, hashable and deterministic


class MessageBus:
    """Seq-ordered delivery log; the trace is the protocol's audit trail."""

    def __init__(self):
        self.messages = []

    def send(self, sender, recipient, kind, **info):
        if kind not in MESSAGE_KINDS:
            raise ValidationError(f"unknown message kind {kind!r}")
        msg = SimMessage(seq=len(self.messages) + 1, sender=sender,
                         recipient=recipient, kind=kind,
                         info=tuple(sorted(info.items())))
        self.messages.append(msg)
        return msg

    def trace_lines(self):
        for m in self.messages:
            yield json.dumps({"seq": m.seq, "from": m.sender, "to": m.recipient,
                              "kind": m.kind, "info": dict(m.info)},
                             sort_keys=True)

    def trace_hash(self):
        return digest64_text("\n".join(self.trace_lines()))


class Simulation:
    """One deterministic world: registry, participants, bus, cloud."""

    def __init__(self, seed=2024, p=secretshare.DEFAULT_PRIME, rsa_bits=512,
                 precision=fbsc.DEFAULT_PRECISION, pk_bits=DEFAULT_PK_BITS,
                 base_config=None, key_power=None):
        if base_config is None:
            base_config = prng.DEFAULT_CONFIG.reseeded(seed)
        self.base_config = base_config
        self.seed = seed
        self.p = p
        self.rsa_bits = rsa_bits
        self.precision = precision
        self.pk_bits = pk_bits
        self.key_power = key_power  # None draws r_n per key; int pins it
        self.bus = MessageBus()
        self.policy_db = acl.PolicyDb()
        # per-participant local stores; the cloud one is the audited surface
        self.user_state = {}
        self.server_files = {}
        self.cloud_blobs = {}
        self.cloud_acl_backup = {}
        self._file_counter = 0

    # -- derived deterministic streams --------------------------------------

    def _sub_config(self, tag, file_id, epoch):
        base = self.base_config
        return base.reseeded(digest64_ints(base.seed, digest64_text(file_id),
                                           epoch, digest64_text(tag)))

    def _fresh_symmetric_key(self, file_id, key_epoch):
        cfg = self._sub_config("symkey", file_id, key_epoch)
        return fbsc.generate_key(cfg, pk_bits=self.pk_bits,
                                 r_n=self.key_power)

    def _keystream_for(self, file_id, key_epoch, length):
        cfg = self._sub_config("keystream", file_id, key_epoch)
        return prng.generate_bytes(cfg, length)

    def _pad_config(self, file_id):
        return self._sub_config("padding", file_id, 0)

    # -- registration --------------------------------------------------------

    def register(self, user_id, credentials, user_type="user"):
        """Add a participant: registry row plus a personal RSA keypair."""
        record = acl.UserRecord(user_id=user_id, user_type=user_type,
                                credentials=list(credentials))
        self.policy_db.register_user(record)
        rsa_seed = digest64_ints(self.seed, digest64_text(user_id))
        keypair = rsacrt.keygen(self.rsa_bits, seed=rsa_seed)
        self.user_state[user_id] = {"rsa": keypair, "points": {}}
        return user_id

    # -- store ---------------------------------------------------------------

    def store_file(self, owner_id, data, sharers, file_name=None):
        """Algorithm steps 1..6: policy, pad, encrypt, wrap, share, upload.

        Returns (file_id, assignment) with assignment mapping each holder
        to its point x. Nothing reaches the cloud unless every step works.
        """
        data = bytes(data)
        if not data:
            raise ValidationError("payload must be non-empty")
        sharer_ids = sorted(set(sharers))
        if owner_id in sharer_ids:
            raise ValidationError(f"owner {owner_id!r} cannot also be a "
                                  "sharer; the owner always holds a point")
        d_x = 2 + len(sharer_ids)
        if d_x < 3:
            raise ThresholdError("need at least one sharer besides owner "
                                 "and server to reach threshold 3")
        owner = self.policy_db.get_user(owner_id)
        if owner.user_type != "owner":
            raise acl.NotOwnerError(f"{owner_id!r} is not an owner")
        if len(owner.credentials) < 2:
            raise ValidationError("owner needs at least two credentials to "
                                  "derive the policy polynomial")
        for uid in sharer_ids:
            self.policy_db.get_user(uid)
        if file_name is None:
            self._file_counter += 1
            file_id = f"file-{self._file_counter:04d}"
        else:
            file_id = file_name
        self.bus.send(owner_id, "org_server", "StoreRequest",
                      file_id=file_id, size=len(data))
        self.policy_db.create_policy(owner_id, file_id, set(sharer_ids))
        self.bus.send("org_server", "org_server", "PolicyCreate",
                      file_id=file_id, authorized=",".join(sharer_ids))
        try:
            issued = self._encrypt_and_share(file_id, data, owner_id,
                                             sharer_ids, key_epoch=0)
        except Exception:
            # all-or-nothing: forget the policy, leave the cloud untouched
            self.policy_db.policies.pop(file_id, None)
            raise
        return file_id, issued

    def _encrypt_and_share(self, file_id, plaintext, owner_id, sharer_ids,
                           key_epoch):
        """The shared crypto path of store and re-encrypt. Commits server
        and cloud state only after every artifact is built."""
        key = self._fresh_symmetric_key(file_id, key_epoch)
        a0 = rsacrt.encode_payload_int(key.r_n, key.pk_sk)
        if a0 >= self.p:
            raise rsacrt.PayloadTooLargeError(
                "framed key exceeds the field prime; raise p or lower pk_bits")
        padded = prng.pad_message(plaintext, self._pad_config(file_id),
                                  epoch=key_epoch)
        keystream = self._keystream_for(file_id, key_epoch, len(padded))
        elements = fbsc.encrypt_stream(padded, key, keystream, self.precision)

        owner = self.policy_db.get_user(owner_id)
        poly = secretshare.derive_coefficients(owner.credentials, a0, self.p)
        points = secretshare.generate_points(poly, 2 + len(sharer_ids))
        holders = ["org_server", owner_id] + sharer_ids
        tokens = {}
        for holder, pt in zip(holders, points):
            kc = secretshare.binding_code(a0, pt, self.p).kc
            tokens[holder] = secretshare.point_record(pt, self.p, kc,
                                                      file_id, key_epoch)
        wrapped = {}
        for uid in [owner_id] + sharer_ids:
            public = self.user_state[uid]["rsa"].public
            wrapped[uid] = rsacrt.wrap(key.r_n, key.pk_sk, public).p_k
        file_kc = tokens["org_server"]["kc"]

        blob = fbsc.EncryptedBlob(
            r_n=key.r_n, f_digits=self.precision,
            key_fingerprint=key.fingerprint,
            n1_len=prng.N1_LENGTH, n2_len=prng.N2_REPEATS,
            epoch=key_epoch, elements=elements)
        raw_public = fbsc.serialize_blob(blob.public_copy())

        # commit point: server bookkeeping, point delivery, cloud upload
        self.server_files[file_id] = {
            "org_token": tokens["org_server"],
            "wrapped": wrapped,
            "binding_code": file_kc,
            "key_epoch": key_epoch,
        }
        assignment = {}
        for holder in holders:
            assignment[holder] = tokens[holder]["x"]
            if holder != "org_server":
                self.user_state[holder]["points"][file_id] = tokens[holder]
            self.bus.send("org_server", holder, "PointIssue",
                          file_id=file_id, x=tokens[holder]["x"],
                          epoch=key_epoch)
        self.bus.send("org_server", "cloud", "BlobPut", file_id=file_id,
                      size=len(raw_public), epoch=key_epoch)
        self.cloud_blobs[file_id] = raw_public
        self.cloud_acl_backup = self.policy_db.snapshot()
        return assignment

    # -- access --------------------------------------------------------------

    def _verify_and_reconstruct(self, file_id, presented_tokens):
        """Rebuild the secret from presented tokens and hold every token to
        its binding code and the current key epoch."""
        state = self.server_files[file_id]
        pts = []
        for tok in presented_tokens:
            if tok["file_id"] != file_id:
                raise InconsistentPointError("token bound to another file")
            if tok["epoch"] != state["key_epoch"]:
                raise InconsistentPointError(
                    f"token epoch {tok['epoch']} stale; current key epoch "
                    f"is {state['key_epoch']}")
            pts.append(SharePoint(x=tok["x"], y=tok["y"], role=tok["role"]))
        a0, poly = secretshare.reconstruct_secret(pts, self.p)
        for tok in presented_tokens:
            pt = SharePoint(x=tok["x"], y=tok["y"], role=tok["role"])
            if secretshare.binding_code(a0, pt, self.p).kc != tok["kc"]:
                raise InconsistentPointError(
                    f"binding code mismatch for point x={tok['x']}")
        org = state["org_token"]
        org_pt = SharePoint(x=org["x"], y=org["y"], role=org["role"])
        if secretshare.binding_code(a0, org_pt, self.p).kc != state["binding_code"]:
            raise InconsistentPointError("file binding code mismatch")
        return a0, poly

    def server_reconstruct(self, file_id, presented_tokens):
        """Public face of the reconstruction ceremony, for audits: returns
        only the secret, after full token verification."""
        a0, _ = self._verify_and_reconstruct(file_id, presented_tokens)
        return a0

    def _decrypt_blob(self, file_id, r_n, pk_sk):
        raw = self.cloud_blobs[file_id]
        self.bus.send("org_server", "cloud", "BlobGet", file_id=file_id)
        blob = fbsc.parse_blob(raw)
        key = fbsc.SymmetricKey(pk_sk=pk_sk, r_n=r_n)
        keystream = self._keystream_for(file_id, blob.epoch,
                                        len(blob.elements))
        padded = fbsc.decrypt_stream(blob.elements, key, keystream,
                                     blob.f_digits)
        return prng.unpad_message(padded)

    def request_access(self, user_id, file_id, owner_approves=True,
                       credentials=None, token=None):
        """Algorithm steps 7..8: authenticate, approve, reconstruct, unwrap,
        decrypt, return plaintext.

        credentials/token exist so adversarial tests can present foreign
        material; by default the requester's own registered credentials and
        issued point are used.
        """
        entry = self.policy_db.get_policy(file_id)
        if credentials is None:
            rec = self.policy_db.users.get(user_id)
            credentials = list(rec.credentials) if rec else []
        self.bus.send(user_id, "org_server", "AccessRequest", file_id=file_id)
        decision = self.policy_db.check_access(user_id, file_id, credentials)
        if not decision.granted:
            raise AccessDeniedError(decision.reason)
        if token is None:
            token = self.user_state[user_id]["points"].get(file_id)
        if token is None:
            raise AccessDeniedError("no authorization point issued")
        self.bus.send(user_id, "org_server", "PointPresentation",
                      file_id=file_id, x=token["x"])
        self.bus.send(entry.owner_id, "org_server", "OwnerApproval",
                      file_id=file_id, user_id=user_id,
                      approved=bool(owner_approves))
        if not owner_approves:
            raise ApprovalWithheldError(
                f"owner {entry.owner_id!r} withheld approval for {user_id!r}")
        state = self.server_files[file_id]
        owner_token = self.user_state[entry.owner_id]["points"][file_id]
        a0, _poly = self._verify_and_reconstruct(
            file_id, [state["org_token"], owner_token, token])

        # wrapped key to the requester; possession proven by digest echo
        wrapped = rsacrt.WrappedKey(p_k=state["wrapped"][user_id])
        user_rsa = self.user_state[user_id]["rsa"]
        payload = rsacrt.crt_recombine(wrapped.p_k, user_rsa)
        if digest64_ints(payload) != digest64_ints(a0):
            raise InconsistentPointError(
                "requester's unwrapped payload does not match the "
                "reconstructed secret")
        r_n, pk_sk = rsacrt.decode_payload(a0)
        return self._decrypt_blob(file_id, r_n, pk_sk)

    # -- revocation / re-keying ---------------------------------------------

    def _old_key_via_ceremony(self, file_id, entry, exclude):
        """Recover the current secret with org + owner + one remaining
        sharer, never the excluded user's point."""
        remaining = sorted(entry.authorized_user_ids - {exclude})
        if not remaining:
            raise ReencryptionError(
                "re-keying needs one remaining authorized sharer")
        state = self.server_files[file_id]
        owner_token = self.user_state[entry.owner_id]["points"][file_id]
        helper_token = self.user_state[remaining[0]]["points"][file_id]
        a0, _ = self._verify_and_reconstruct(
            file_id, [state["org_token"], owner_token, helper_token])
        return rsacrt.decode_payload(a0)

    def revoke_and_reencrypt(self, owner_id, file_id, user_id):
        """Revoke one user and re-key the file for everyone left. Runs the
        same ceremony as re_grant; revoking a non-sharer changes nothing."""
        return self._rekey(owner_id, file_id, user_id, admit=False)

    def re_grant(self, owner_id, file_id, user_id):
        """Admit (or re-admit) a user and re-key the file for the enlarged
        set. Runs the same ceremony as revoke_and_reencrypt; granting a
        current sharer changes nothing."""
        return self._rekey(owner_id, file_id, user_id, admit=True)

    def _rekey(self, owner_id, file_id, user_id, admit):
        """Recover the current secret without user_id's point, admit or
        revoke user_id, and re-encrypt under a fresh secret and fresh points
        at the next key epoch. Returns the new assignment, or the current
        one when the ACL already says what was asked."""
        entry = self.policy_db.get_policy(file_id)
        if owner_id != entry.owner_id:
            raise acl.NotOwnerError(f"{owner_id!r} does not own {file_id!r}")
        if admit and user_id == owner_id:
            raise ValidationError(f"owner {owner_id!r} cannot also be a "
                                  "sharer; the owner always holds a point")
        if (user_id in entry.authorized_user_ids) == admit:
            return self._current_assignment(file_id)
        r_n, pk_sk = self._old_key_via_ceremony(file_id, entry,
                                                exclude=user_id)
        plaintext = self._decrypt_blob(file_id, r_n, pk_sk)
        if admit:
            self.policy_db.grant_user(owner_id, file_id, user_id)
        else:
            self.policy_db.revoke_user(owner_id, file_id, user_id)
        new_epoch = self.server_files[file_id]["key_epoch"] + 1
        # a revoked user keeps their now-stale point; it fails the epoch
        # and binding checks, which is the point of re-keying
        issued = self._encrypt_and_share(file_id, plaintext, owner_id,
                                         sorted(entry.authorized_user_ids),
                                         key_epoch=new_epoch)
        for holder in issued:
            if holder != "org_server":
                self.bus.send("org_server", holder, "ReencryptNotice",
                              file_id=file_id, epoch=new_epoch)
        self.policy_db.mark_reencrypted(file_id)
        self.cloud_acl_backup = self.policy_db.snapshot()
        return issued

    def _current_assignment(self, file_id):
        """Point x of every current holder: the server, the owner and each
        authorized user. Revoked users' stale points are not listed."""
        entry = self.policy_db.get_policy(file_id)
        out = {"org_server": self.server_files[file_id]["org_token"]["x"]}
        for uid in [entry.owner_id] + sorted(entry.authorized_user_ids):
            out[uid] = self.user_state[uid]["points"][file_id]["x"]
        return out

    def epoch_tick(self, file_id):
        """Logical policy refresh: bump the epoch and re-verify that every
        authorized user still has a registered credential set."""
        entry = self.policy_db.get_policy(file_id)
        for uid in sorted(entry.authorized_user_ids):
            rec = self.policy_db.users.get(uid)
            if rec is None or not rec.credentials:
                self.policy_db.revoke_user(entry.owner_id, file_id, uid)
        return self.policy_db.advance_epoch(file_id)

    # -- adversarial scenarios ----------------------------------------------

    def adversary_scenarios(self, file_id):
        """The three scripted attacks; each must come back denied."""
        entry = self.policy_db.get_policy(file_id)
        sharers = sorted(entry.authorized_user_ids)
        if len(sharers) < 2:
            raise ValidationError("scenarios need at least two sharers")
        state = self.server_files[file_id]
        report = {}

        # T1: many copies of one party's point are still one point
        org = state["org_token"]
        try:
            self._verify_and_reconstruct(file_id, [org] * 5)
            report["t1"] = {"denied": False, "detail": "reconstructed"}
        except DuplicatePointError as exc:
            report["t1"] = {"denied": True, "detail": str(exc)}

        # T2: two receivers pool points; threshold blocks, and at p=101 a
        # brute force shows the two points say nothing about the secret
        toks = [self.user_state[sharers[0]]["points"][file_id],
                self.user_state[sharers[1]]["points"][file_id]]
        try:
            self._verify_and_reconstruct(file_id, toks)
            report["t2"] = {"denied": False, "detail": "reconstructed"}
        except ThresholdError as exc:
            report["t2"] = {"denied": True, "detail": str(exc),
                            "posterior_uniform": _toy_posterior_uniform()}

        # T3: a leaked point presented by an unregistered identity dies at
        # the credential check, before any owner involvement
        leaked = self.user_state[sharers[0]]["points"][file_id]
        before = len(self.bus.messages)
        try:
            self.request_access("mallory", file_id,
                                credentials=["guessed"], token=leaked)
            report["t3"] = {"denied": False, "detail": "granted"}
        except AccessDeniedError as exc:
            tail = self.bus.messages[before:]
            early = not any(m.kind in ("OwnerApproval", "PointPresentation")
                            for m in tail)
            report["t3"] = {"denied": True, "detail": str(exc),
                            "denied_before_owner": early}

        report["all_denied"] = all(report[k]["denied"]
                                   for k in ("t1", "t2", "t3"))
        return report

    # -- audited surfaces ----------------------------------------------------

    def serialized_cloud_state(self):
        """Every byte the cloud holds: blobs verbatim plus the ACL backup."""
        parts = [self.cloud_blobs[fid] for fid in sorted(self.cloud_blobs)]
        parts.append(json.dumps(self.cloud_acl_backup, sort_keys=True)
                     .encode())
        return b"\x00".join(parts)

    def serialized_server_state(self):
        """The server's persistent bookkeeping, for ephemerality audits."""
        view = {"files": self.server_files,
                "policies": self.policy_db.snapshot()}
        return json.dumps(view, sort_keys=True, default=str).encode()

    def serialize_user_state(self, user_id, file_id):
        """Per-user, per-file policy parameters: credentials + the point."""
        rec = self.policy_db.get_user(user_id)
        return {"credentials": list(rec.credentials),
                "point": self.user_state[user_id]["points"].get(file_id)}

    def serialize_server_file_state(self, file_id):
        """Server per-file policy parameters: ciphertext-rooted elements
        (org point and each wrapped key) + the binding code."""
        state = self.server_files[file_id]
        elements = [("org_point", state["org_token"]["x"])]
        for uid in sorted(state["wrapped"]):
            elements.append(("wrapped", uid))
        return {"ciphertext_elements": elements,
                "binding_code": state["binding_code"]}


def _toy_posterior_uniform(p=101, seed=7):
    """At p=101: two shares of a random parabola admit exactly one
    coefficient pair for every candidate secret, by full enumeration."""
    import numpy as np

    cfg = prng.DEFAULT_CONFIG.reseeded(seed)
    a0, a1, raw = prng.generate_values(cfg, 3)
    poly = secretshare.ParabolicPolicy(a0=a0 % p, a1=a1 % p,
                                       a2=1 + raw % (p - 1), p=p)
    pts = secretshare.generate_points(poly, 3)[:2]
    c1 = np.arange(p).reshape(-1, 1)
    c2 = np.arange(p).reshape(1, -1)
    for s in range(p):
        fits = np.ones((p, p), dtype=bool)
        for q in pts:
            fits &= (s + c1 * q.x + c2 * q.x * q.x) % p == q.y
        if int(fits.sum()) != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# scenario scripts
# ---------------------------------------------------------------------------

def replay_commands(sim, steps):
    """Apply ordered command records to a simulation; returns outcomes.

    Commands: register, store, access, revoke, grant, tick, attack. Steps
    with an "expect" field ("grant"/"deny") are checked and the mismatch
    recorded rather than raised; outcomes lists one record per step.
    """
    outcomes = []
    for idx, step in enumerate(steps):
        cmd = step.get("cmd")
        rec = {"step": idx, "cmd": cmd, "ok": True}
        try:
            if cmd == "register":
                sim.register(step["user_id"], step["credentials"],
                             step.get("type", "user"))
            elif cmd == "store":
                data = bytes.fromhex(step["data_hex"]) if "data_hex" in step \
                    else prng.generate_bytes(
                        sim._sub_config("scriptdata", step["file"], idx),
                        int(step.get("size", 256)))
                fid, _ = sim.store_file(step["owner"], data, step["sharers"],
                                        file_name=step["file"])
                rec["file_id"] = fid
            elif cmd == "access":
                expect = step.get("expect", "grant")
                try:
                    data = sim.request_access(
                        step["user"], step["file"],
                        owner_approves=step.get("owner_approves", True))
                    rec["result"] = "grant"
                    rec["size"] = len(data)
                except (AccessDeniedError, ApprovalWithheldError,
                        InconsistentPointError, ThresholdError) as exc:
                    rec["result"] = "deny"
                    rec["detail"] = str(exc)
                rec["ok"] = rec["result"] == expect
            elif cmd == "revoke":
                sim.revoke_and_reencrypt(step["owner"], step["file"],
                                         step["user"])
            elif cmd == "grant":
                sim.re_grant(step["owner"], step["file"], step["user"])
            elif cmd == "tick":
                rec["epoch"] = sim.epoch_tick(step["file"])
            elif cmd == "attack":
                rep = sim.adversary_scenarios(step["file"])
                rec["all_denied"] = rep["all_denied"]
                rec["ok"] = rep["all_denied"]
            else:
                raise ValidationError(f"unknown script command {cmd!r}")
        except ParvaultError as exc:
            rec["ok"] = False
            rec["error"] = str(exc)
        outcomes.append(rec)
    return outcomes


def run_script(script_path, trace_path=None, seed=2024, rsa_bits=512):
    """Replay a script file; returns (sim, outcomes).

    One JSON command per line, replay_commands semantics. A trace file
    gets one message per line plus a final state digest line.
    """
    sim = Simulation(seed=seed, rsa_bits=rsa_bits)
    with open(script_path) as fh:
        steps = [json.loads(line) for line in fh if line.strip()]
    outcomes = replay_commands(sim, steps)
    if trace_path:
        with open(trace_path, "w") as fh:
            for line in sim.bus.trace_lines():
                fh.write(line + "\n")
            fh.write(json.dumps({"final_state_digest":
                                 sim.bus.trace_hash()}) + "\n")
    return sim, outcomes
