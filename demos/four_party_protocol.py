"""The whole scheme in one sitting: owner, organization server, cloud,
and two receivers.

Every run is a pure function of the seed; the closing digest pins the
complete message trace.
"""

from parvault import protocol

sim = protocol.Simulation(seed=2024)
sim.register("olive", ["org:lab", "role:lead"], user_type="owner")
sim.register("rena", ["org:lab"])
sim.register("sam", ["org:guest"])
print("registered olive (owner), rena, sam")

payload = b"Q3 wet-lab notebook, pages 14-31"
fid, assignment = sim.store_file("olive", payload, ["rena", "sam"])
print(f"\nolive stores {len(payload)} bytes as {fid}")
for holder, x in sorted(assignment.items(), key=lambda kv: kv[1]):
    print(f"  x={x}  {holder}")
print(f"cloud now holds {len(sim.cloud_blobs[fid])} opaque bytes "
      "(no key, no points)")

print(f"\nrena asks: {sim.request_access('rena', fid)!r}")

try:
    sim.request_access("sam", fid, owner_approves=False)
except protocol.ApprovalWithheldError as exc:
    print(f"sam asks, olive says no: {exc}")

print("\nadversary scenarios:")
report = sim.adversary_scenarios(fid)
for name in ("t1", "t2", "t3"):
    print(f"  {name}: denied={report[name]['denied']}  "
          f"{report[name]['detail']}")

print("\nolive revokes sam; the file re-encrypts under a fresh key")
sim.revoke_and_reencrypt("olive", fid, "sam")
try:
    sim.request_access("sam", fid)
except protocol.AccessDeniedError as exc:
    print(f"  sam again: {exc}")
print(f"  rena still reads: {sim.request_access('rena', fid)!r}")

print(f"\n{len(sim.bus.messages)} messages exchanged; "
      f"trace digest {sim.bus.trace_hash():#018x}")
