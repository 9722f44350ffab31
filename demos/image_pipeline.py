"""Encrypt an image and measure what should survive: nothing.

A natural image has adjacent-pixel correlation near 1 and a lumpy
histogram. Its ciphertext, mapped back onto the pixel grid through the
rank quantizer, should show near-zero correlation, a flat histogram, and
a bit stream the randomness battery cannot tell from noise.
"""

from parvault import fbsc, prng
from parvault.digests import digest64_ints, digest64_text
from parvault.statsuite import (adjacent_correlation, battery_passed,
                                element_bits, element_image,
                                histogram_chi_square, nist_battery,
                                synthetic_image)


def seeded(tag, seed=4):
    mix = digest64_ints(seed, digest64_text(tag))
    return prng.DEFAULT_CONFIG.reseeded(mix)


def main():
    image = synthetic_image("terrain", size=256, seed=0)
    key = fbsc.generate_key(seeded("key"), pk_bits=56)
    keystream = prng.generate_bytes(seeded("stream"), image.size)
    elements = fbsc.encrypt_stream(image.tobytes(), key, keystream)
    encrypted = element_image(elements, image.shape)

    print("adjacent-pixel correlation, 16384 sampled pairs:")
    print("  direction   original   encrypted")
    for d, label in (("h", "horizontal"), ("v", "vertical"),
                     ("d", "diagonal")):
        orig = adjacent_correlation(image, d)
        enc = adjacent_correlation(encrypted, d)
        print(f"  {label:<10} {orig:+9.4f}   {enc:+9.4f}")

    for name, pixels in (("original", image), ("encrypted", encrypted)):
        chi2, p, _ = histogram_chi_square(pixels.tobytes())
        print(f"{name} histogram: chi2 = {chi2:9.1f}, p = {p:.4f}")

    bits = element_bits(elements[:125_000] if len(elements) >= 125_000
                        else elements)
    results = nist_battery(bits)
    ran = [r for r in results if r.status == "ok"]
    print(f"battery on {bits.size} ciphertext bits: "
          f"{sum(1 for r in ran if r.passed)}/{len(ran)} ran tests pass "
          f"(all applicable: {battery_passed(results)})")


if __name__ == "__main__":
    main()
