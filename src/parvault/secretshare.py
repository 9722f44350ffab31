"""Degree-2 secret sharing over a prime field.

The policy polynomial is F(X) = a0 + a1*X + a2*X**2 mod p with the secret
sitting in a0 and the other two coefficients derived from the owner's
attribute strings. Authorization points (X, F(X)) for X = 1..d_x go one to
the organization server, one to the owner, and one to each receiver; any
three distinct points rebuild the polynomial by Lagrange interpolation and
hand back the secret as F(0). For a1 and a2 drawn uniformly at random, two
points pin down nothing: for every candidate secret there is exactly one
parabola through them (acceptance criterion 3 enumerates this at p=101).
Here a1 and a2 are public digests of the owner's attributes, not random
draws, so that argument does not cover this scheme's points.

The point with X=0 is the secret itself and is never issued.
"""

from dataclasses import dataclass

from .digests import digest64_text, digest64_ints
from .errors import ParvaultError, ValidationError

# Mersenne prime wide enough that the framed (r_n, pk_sk) payload integer
# always fits as a field element
DEFAULT_PRIME = (1 << 89) - 1

ROLES = ("organization", "owner", "receiver")

# attribute strings are joined with an unlikely separator before digesting
_JOIN = "\x1f"


class ThresholdError(ParvaultError):
    """Fewer than three points: below the reconstruction threshold."""


class DuplicatePointError(ParvaultError):
    """Two presented points share an x coordinate."""


class InconsistentPointError(ParvaultError):
    """An extra point does not lie on the reconstructed parabola."""


@dataclass(frozen=True)
class ParabolicPolicy:
    """F(X) = a0 + a1*X + a2*X^2 over Z_p; a0 is the shared secret."""

    a0: int
    a1: int
    a2: int
    p: int

    def __post_init__(self):
        if self.p < 2:
            raise ValidationError("modulus must be at least 2")
        for name in ("a0", "a1", "a2"):
            v = getattr(self, name)
            if not (0 <= v < self.p):
                raise ValidationError(f"{name} must lie in [0, p)")
        if self.a2 == 0:
            raise ValidationError("a2 must be nonzero (degree 2 required)")

    def evaluate(self, x):
        return (self.a0 + self.a1 * x + self.a2 * x * x) % self.p


@dataclass(frozen=True)
class SharePoint:
    """One authorization point (x, y) with its protocol role label."""

    x: int
    y: int
    role: str = "receiver"

    def __post_init__(self):
        if self.x < 1:
            raise ValidationError("x must be at least 1; x=0 is never issued")
        if self.y < 0:
            raise ValidationError("y must be nonnegative")
        if self.role not in ROLES:
            raise ValidationError(f"role must be one of {ROLES}")


def derive_coefficients(owner_attributes, secret, p=DEFAULT_PRIME):
    """Build the policy polynomial from attribute strings and the secret.

    a1 digests the first attribute, a2 the rest joined; a zero a2 is
    re-digested with a counter salt until nonzero so the curve is a real
    parabola.
    """
    attrs = list(owner_attributes)
    if len(attrs) < 2:
        raise ValidationError("at least two owner attributes are required")
    if any(not a for a in attrs):
        raise ValidationError("attributes must be non-empty strings")
    if not (0 <= secret < p):
        raise ValidationError("secret must lie in [0, p)")
    a1 = digest64_text(attrs[0]) % p
    tail = _JOIN.join(attrs[1:])
    a2 = digest64_text(tail) % p
    salt = 0
    while a2 == 0:
        salt += 1
        a2 = digest64_text(f"{tail}{_JOIN}{salt}") % p
    return ParabolicPolicy(a0=secret, a1=a1, a2=a2, p=p)


def _role_for(x):
    # point 1 to the organization, 2 to the owner, the rest to receivers
    if x == 1:
        return "organization"
    if x == 2:
        return "owner"
    return "receiver"


def generate_points(policy, d_x):
    """Issue points at X = 1..d_x. d_x < 3 cannot meet the threshold."""
    if d_x < 3:
        raise ThresholdError(f"d_x={d_x} participants cannot reach threshold 3")
    return [SharePoint(x=x, y=policy.evaluate(x), role=_role_for(x))
            for x in range(1, d_x + 1)]


def binding_code(sec_key, point, p=DEFAULT_PRIME):
    """kc = digest(sec_key, x, y) mod p, the file binding code."""
    return digest64_ints(sec_key, point.x, point.y) % p


def reconstruct_secret(points, p=DEFAULT_PRIME):
    """Rebuild (a0, policy) from the first three points; verify the rest.

    Raises ThresholdError below three points, DuplicatePointError on a
    repeated x, InconsistentPointError when a surplus point is off-curve.
    """
    pts = list(points)
    if len(pts) < 3:
        raise ThresholdError(f"{len(pts)} points presented, need 3")
    use, extra = pts[:3], pts[3:]
    xs = [pt.x for pt in use]
    if len(set(xs)) != 3:
        raise DuplicatePointError("presented points share an x coordinate")
    # expand sum_j y_j * l_j(X) into coefficients of 1, X, X^2
    a0 = a1 = a2 = 0
    for j, pt in enumerate(use):
        xm, xk = (xs[m] for m in range(3) if m != j)
        den = (xs[j] - xm) * (xs[j] - xk) % p
        scale = pt.y * pow(den, -1, p) % p
        a2 = (a2 + scale) % p
        a1 = (a1 - scale * (xm + xk)) % p
        a0 = (a0 + scale * xm * xk) % p
    if a2 == 0:
        raise InconsistentPointError("points are collinear; not a parabola")
    policy = ParabolicPolicy(a0=a0, a1=a1, a2=a2, p=p)
    for pt in extra:
        if policy.evaluate(pt.x) != pt.y:
            raise InconsistentPointError(f"point x={pt.x} is off-curve")
    return a0, policy


# ---------------------------------------------------------------------------
# authorization-point records
# ---------------------------------------------------------------------------

def point_record(point, p, kc, file_id, epoch):
    """The JSON-serializable token handed to a participant."""
    return {"p": p, "x": point.x, "y": point.y, "role": point.role,
            "kc": kc, "file_id": file_id, "epoch": epoch}
