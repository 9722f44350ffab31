"""Parabolic sharing: coefficients, points, binding codes, reconstruction."""

import pytest
from hypothesis import given, settings, strategies as st

from parvault import secretshare as ss
from parvault.errors import ValidationError

P = ss.DEFAULT_PRIME

# the documented worked example: F(X) = 94 X^2 + 166 X + 1234
GOLDEN_POLY = ss.ParabolicPolicy(a0=1234, a1=166, a2=94, p=P)
GOLDEN_POINTS = [(1, 1494), (2, 1942), (3, 2578), (4, 3402), (5, 4414),
                 (6, 5614)]


def _fnv64(text):
    # independent digest oracle, same published constants
    h = 14695981039346656037
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 1099511628211) % (1 << 64)
    return h


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------

def test_coefficients_from_attributes_match_digest_oracle():
    attrs = ["org:research", "clearance:blue", "site:hq"]
    pol = ss.derive_coefficients(attrs, 1234, P)
    assert pol.a0 == 1234
    assert pol.a1 == _fnv64("org:research") % P
    assert pol.a2 == _fnv64("clearance:blue\x1fsite:hq") % P
    again = ss.derive_coefficients(attrs, 1234, P)
    assert (again.a1, again.a2) == (pol.a1, pol.a2)


def test_zero_secret_still_shares():
    pol = ss.derive_coefficients(["a", "b"], 0, P)
    assert pol.a0 == 0
    pts = ss.generate_points(pol, 3)
    a0, _ = ss.reconstruct_secret(pts, P)
    assert a0 == 0


def test_single_attribute_rejected():
    with pytest.raises(ValidationError):
        ss.derive_coefficients(["only"], 1, P)


def test_empty_attribute_rejected():
    with pytest.raises(ValidationError):
        ss.derive_coefficients(["ok", ""], 1, P)


def test_zero_a2_resalted_until_curved():
    # hunt a tail whose digest lands on 0 mod 101, then confirm the salt
    # loop still produces a genuine parabola
    tail = next(f"attr{i}" for i in range(100_000) if _fnv64(f"attr{i}") % 101 == 0)
    pol = ss.derive_coefficients(["head", tail], 7, 101)
    assert pol.a2 != 0
    assert ss.derive_coefficients(["head", tail], 7, 101) == pol


def test_secret_must_fit_the_field():
    with pytest.raises(ValidationError):
        ss.derive_coefficients(["a", "b"], 101, 101)


def test_degenerate_policy_rejected():
    with pytest.raises(ValidationError):
        ss.ParabolicPolicy(a0=5, a1=3, a2=0, p=101)


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------

def test_golden_six_points():
    pts = ss.generate_points(GOLDEN_POLY, 6)
    assert [(pt.x, pt.y) for pt in pts] == GOLDEN_POINTS


def test_point_roles_by_position():
    pts = ss.generate_points(GOLDEN_POLY, 4)
    assert [pt.role for pt in pts] == ["organization", "owner",
                                       "receiver", "receiver"]


def test_threshold_needs_three_participants():
    with pytest.raises(ss.ThresholdError):
        ss.generate_points(GOLDEN_POLY, 2)


def test_small_field_reduces_like_direct_evaluation():
    pol = ss.ParabolicPolicy(a0=1234 % 101, a1=166 % 101, a2=94 % 101, p=101)
    for pt in ss.generate_points(pol, 6):
        assert pt.y == (1234 + 166 * pt.x + 94 * pt.x * pt.x) % 101


def test_zero_x_never_issued():
    with pytest.raises(ValidationError):
        ss.SharePoint(x=0, y=1)


# ---------------------------------------------------------------------------
# binding codes
# ---------------------------------------------------------------------------

def test_binding_code_deterministic_and_in_range():
    pt = ss.SharePoint(x=3, y=2578)
    a = ss.binding_code(90210, pt, P)
    b = ss.binding_code(90210, pt, P)
    assert a == b
    assert 0 <= a < P


def test_binding_codes_distinct_across_golden_points():
    codes = [ss.binding_code(90210, ss.SharePoint(x=x, y=y), P)
             for x, y in GOLDEN_POINTS]
    assert len(set(codes)) == len(codes)


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------

def test_golden_reconstruction():
    pts = [ss.SharePoint(x=2, y=1942), ss.SharePoint(x=4, y=3402),
           ss.SharePoint(x=5, y=4414)]
    a0, pol = ss.reconstruct_secret(pts, P)
    assert a0 == 1234
    assert (pol.a0, pol.a1, pol.a2) == (1234, 166, 94)


def test_reconstruction_of_constant_plus_square():
    pol = ss.ParabolicPolicy(a0=5, a1=0, a2=1, p=P)
    pts = ss.generate_points(pol, 3)
    a0, back = ss.reconstruct_secret(pts, P)
    assert a0 == 5
    assert (back.a0, back.a1, back.a2) == (5, 0, 1)


def test_all_twenty_golden_subsets_agree():
    pts = [ss.SharePoint(x=x, y=y) for x, y in GOLDEN_POINTS]
    seen = set()
    for i in range(6):
        for j in range(i + 1, 6):
            for k in range(j + 1, 6):
                _, pol = ss.reconstruct_secret([pts[i], pts[j], pts[k]], P)
                seen.add((pol.a0, pol.a1, pol.a2))
    assert seen == {(1234, 166, 94)}


def test_fewer_than_three_points_rejected():
    pts = [ss.SharePoint(x=2, y=1942), ss.SharePoint(x=4, y=3402)]
    with pytest.raises(ss.ThresholdError):
        ss.reconstruct_secret(pts, P)


def test_duplicate_x_rejected():
    pts = [ss.SharePoint(x=2, y=1942)] * 3
    with pytest.raises(ss.DuplicatePointError):
        ss.reconstruct_secret(pts, P)


def test_fourth_point_on_curve_accepted():
    pts = [ss.SharePoint(x=x, y=y) for x, y in GOLDEN_POINTS[:4]]
    a0, _ = ss.reconstruct_secret(pts, P)
    assert a0 == 1234


def test_fourth_point_off_curve_rejected():
    pts = [ss.SharePoint(x=x, y=y) for x, y in GOLDEN_POINTS[:3]]
    pts.append(ss.SharePoint(x=4, y=3403))
    with pytest.raises(ss.InconsistentPointError):
        ss.reconstruct_secret(pts, P)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([101, 7919, (1 << 89) - 1]), st.data())
def test_completeness_over_three_fields(p, data):
    a0 = data.draw(st.integers(0, p - 1))
    a1 = data.draw(st.integers(0, p - 1))
    a2 = data.draw(st.integers(1, p - 1))
    pol = ss.ParabolicPolicy(a0=a0, a1=a1, a2=a2, p=p)
    lo = min(p - 1, 4000)
    xs = data.draw(st.lists(st.integers(1, lo), min_size=3, max_size=3,
                            unique=True))
    pts = [ss.SharePoint(x=x, y=pol.evaluate(x)) for x in xs]
    rec_a0, rec = ss.reconstruct_secret(pts, p)
    assert rec_a0 == a0
    assert (rec.a0, rec.a1, rec.a2) == (a0, a1, a2)
