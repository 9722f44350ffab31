"""One byte at a time through the involution f(x) = (pk - x^(1/r))^r.

f is its own inverse on the real line, so the same table encrypts and
decrypts; the keystream XOR in front of it is what makes repeated bytes
differ. A wrong key's table does not hold these elements, so decryption
under it is refused.
"""

from parvault import fbsc, prng

key = fbsc.SymmetricKey(pk_sk=16, r_n=2)
print(f"key: pk_sk = {key.pk_sk}, r_n = {key.r_n}")
print()
print("  x   f(x)                         f(f(x))")
for x in (0, 9, 100, 255):
    element = fbsc.involute(x, key)
    back = fbsc.anti_involute(element, key)
    shown = str(element)[:28]
    print(f"{x:>5}  {shown:<28} {back:>6}")
print()

message = b"attack at dawn"
stream_cfg = prng.GeneratorConfig(seed=77, m=prng.DEFAULT_CONFIG.m,
                                  i_num=prng.DEFAULT_CONFIG.i_num)
keystream = prng.generate_bytes(stream_cfg, len(message))
elements = fbsc.encrypt_stream(message, key, keystream)
print(f"{message!r} encrypts to {len(elements)} real elements; first three:")
for el in elements[:3]:
    print(f"  {el}")
print()

plain = fbsc.decrypt_stream(elements, key, keystream)
print(f"decrypted: {plain!r}")

wrong = fbsc.SymmetricKey(pk_sk=17, r_n=2)
try:
    fbsc.decrypt_stream(elements, wrong, keystream)
except fbsc.RoundoffError as exc:
    print(f"wrong key (pk_sk=17): refused, {exc}")
