"""BN254 G2 arithmetic and curve constants.

G2 is the r-order subgroup of the sextic twist E'/Fq2: ``y^2 = x^3 + 3/xi``
with ``xi = 9 + u``.  :class:`G2Point` is the affine wrapper (one Fq2
inversion per ``+``); the Miller loop (in :mod:`repro.pairing.ate`) maps it
into Fq12 via the untwist embedding ``(x, y) -> (x * w^2, y * w^3)``.

Everything that chains many group operations — scalar multiplication, the
subgroup test, the prover's G2 MSM — runs on the ``g2_jac_*`` kernels
instead: Jacobian coordinates over raw int pairs, with Fq2 elements
flattened into the tuple.  An *element* is ``(X0, X1, Y0, Y1, Z0, Z1)``
(``x = X/Z^2``, ``y = Y/Z^3``, infinity at ``Z = 0``) and an affine *base*
is ``(x0, x1, y0, y1)``.  The kernels never invert; only
:func:`g2_jac_to_affine` pays one Fq2 inversion at the end.

Subgroup membership uses the twist Frobenius psi instead of ``[r]Q``: on
E'(Fq2), psi satisfies ``psi^2 - t*psi + p = 0``, so ``psi(Q) = [t-1]Q``
gives ``[(t-1)^2 - t(t-1) + p]Q = [p + 1 - t]Q = [r]Q = O``; conversely
psi acts as ``[p]`` on G2 and ``p = t - 1 (mod r)``.  With ``t - 1 =
6 x0^2`` that is a 127-bit scalar multiplication instead of a 254-bit one
(El Housni, Guillevic, Piellard, AFRICACRYPT 2022).
"""

from ..errors import CurveError
from ..field.extension import (
    BN254_P,
    Fq2,
    Fq6,
    Fq12,
    XI,
    fq2_raw,
    fq6_raw,
    fq12_raw,
)

#: Order of G1 and G2 (the Groth16 scalar field).
BN254_R = 21888242871839275222246405745257275088548364400416034343698204186575808495617

#: The BN parameter x0: p, r and the trace t = 6 x0^2 + 1 are polynomials in it.
BN_X0 = 4965661367192848881

#: 6 x0 + 2, the optimal ate Miller loop length.
ATE_LOOP_COUNT = 29793968203157093288

#: t - 1 = 6 x0^2: the eigenvalue of the twist Frobenius psi on G2.
PSI_EIGENVALUE = 6 * BN_X0 * BN_X0

#: Twist curve coefficient b' = 3 / xi.
B2 = XI.inverse() * 3


# -- raw-int Jacobian kernels on the twist -----------------------------------
#
# Fq2 values travel as two canonical ints (c0, c1); every kernel returns
# canonical coordinates.  Formulas are the a = 0 ones from the
# Explicit-Formulas Database (dbl-2009-l, add-2007-bl, madd-2007-bl).

_P = BN254_P

G2_JAC_INFINITY = (1, 0, 1, 0, 0, 0)


def _f2mul(a0, a1, b0, b1):
    """Karatsuba product in Fq2 (u^2 = -1), reduced."""
    t0 = a0 * b0
    t1 = a1 * b1
    return (t0 - t1) % _P, ((a0 + a1) * (b0 + b1) - t0 - t1) % _P


def _f2sqr(a0, a1):
    """Complex squaring in Fq2, reduced."""
    return (a0 + a1) * (a0 - a1) % _P, 2 * a0 * a1 % _P


def g2_jac_is_infinity(pt):
    return not (pt[4] or pt[5])


def g2_jac_double(pt):
    """2 * pt (dbl-2009-l: 2M + 5S in Fq2)."""
    X0, X1, Y0, Y1, Z0, Z1 = pt
    if not (Z0 or Z1) or not (Y0 or Y1):
        return G2_JAC_INFINITY
    A0, A1 = _f2sqr(X0, X1)
    B0, B1 = _f2sqr(Y0, Y1)
    C0, C1 = _f2sqr(B0, B1)
    D0, D1 = _f2sqr(X0 + B0, X1 + B1)
    D0 = 2 * (D0 - A0 - C0) % _P
    D1 = 2 * (D1 - A1 - C1) % _P
    E0, E1 = 3 * A0, 3 * A1
    F0, F1 = _f2sqr(E0, E1)
    X30 = (F0 - 2 * D0) % _P
    X31 = (F1 - 2 * D1) % _P
    Y30, Y31 = _f2mul(E0, E1, D0 - X30, D1 - X31)
    Y30 = (Y30 - 8 * C0) % _P
    Y31 = (Y31 - 8 * C1) % _P
    Z30, Z31 = _f2mul(Y0, Y1, Z0, Z1)
    return (X30, X31, Y30, Y31, 2 * Z30 % _P, 2 * Z31 % _P)


def g2_jac_add(pt1, pt2):
    """pt1 + pt2 for Jacobian operands (add-2007-bl; exact on every input)."""
    X10, X11, Y10, Y11, Z10, Z11 = pt1
    X20, X21, Y20, Y21, Z20, Z21 = pt2
    if not (Z10 or Z11):
        return pt2
    if not (Z20 or Z21):
        return pt1
    ZZ10, ZZ11 = _f2sqr(Z10, Z11)
    ZZ20, ZZ21 = _f2sqr(Z20, Z21)
    U10, U11 = _f2mul(X10, X11, ZZ20, ZZ21)
    U20, U21 = _f2mul(X20, X21, ZZ10, ZZ11)
    S10, S11 = _f2mul(Y10, Y11, *_f2mul(Z20, Z21, ZZ20, ZZ21))
    S20, S21 = _f2mul(Y20, Y21, *_f2mul(Z10, Z11, ZZ10, ZZ11))
    if U10 == U20 and U11 == U21:
        if S10 != S20 or S11 != S21:
            return G2_JAC_INFINITY
        return g2_jac_double(pt1)
    H0, H1 = U20 - U10, U21 - U11
    I0, I1 = _f2sqr(2 * H0, 2 * H1)
    J0, J1 = _f2mul(H0, H1, I0, I1)
    r0, r1 = 2 * (S20 - S10), 2 * (S21 - S11)
    V0, V1 = _f2mul(U10, U11, I0, I1)
    X30, X31 = _f2sqr(r0, r1)
    X30 = (X30 - J0 - 2 * V0) % _P
    X31 = (X31 - J1 - 2 * V1) % _P
    Y30, Y31 = _f2mul(r0, r1, V0 - X30, V1 - X31)
    T0, T1 = _f2mul(S10, S11, J0, J1)
    Y30 = (Y30 - 2 * T0) % _P
    Y31 = (Y31 - 2 * T1) % _P
    Z30, Z31 = _f2sqr(Z10 + Z20, Z11 + Z21)
    Z30, Z31 = _f2mul(Z30 - ZZ10 - ZZ20, Z31 - ZZ11 - ZZ21, H0, H1)
    return (X30, X31, Y30, Y31, Z30, Z31)


def g2_jac_add_affine(pt1, base):
    """Mixed addition: Jacobian ``pt1`` plus affine ``(x0, x1, y0, y1)``
    (madd-2007-bl)."""
    X10, X11, Y10, Y11, Z10, Z11 = pt1
    x20, x21, y20, y21 = base
    if not (Z10 or Z11):
        return (x20, x21, y20, y21, 1, 0)
    ZZ0, ZZ1 = _f2sqr(Z10, Z11)
    U20, U21 = _f2mul(x20, x21, ZZ0, ZZ1)
    S20, S21 = _f2mul(y20, y21, *_f2mul(Z10, Z11, ZZ0, ZZ1))
    if X10 == U20 and X11 == U21:
        if Y10 != S20 or Y11 != S21:
            return G2_JAC_INFINITY
        return g2_jac_double(pt1)
    H0, H1 = U20 - X10, U21 - X11
    HH0, HH1 = _f2sqr(H0, H1)
    I0, I1 = 4 * HH0, 4 * HH1
    J0, J1 = _f2mul(H0, H1, I0, I1)
    r0, r1 = 2 * (S20 - Y10), 2 * (S21 - Y11)
    V0, V1 = _f2mul(X10, X11, I0, I1)
    X30, X31 = _f2sqr(r0, r1)
    X30 = (X30 - J0 - 2 * V0) % _P
    X31 = (X31 - J1 - 2 * V1) % _P
    Y30, Y31 = _f2mul(r0, r1, V0 - X30, V1 - X31)
    T0, T1 = _f2mul(Y10, Y11, J0, J1)
    Y30 = (Y30 - 2 * T0) % _P
    Y31 = (Y31 - 2 * T1) % _P
    Z30, Z31 = _f2sqr(Z10 + H0, Z11 + H1)
    return (X30, X31, Y30, Y31, (Z30 - ZZ0 - HH0) % _P, (Z31 - ZZ1 - HH1) % _P)


def g2_jac_neg(pt):
    return (pt[0], pt[1], -pt[2] % _P, -pt[3] % _P, pt[4], pt[5])


def g2_jac_to_affine(pt):
    """Jacobian -> affine ``(x0, x1, y0, y1)``, or None for infinity."""
    X0, X1, Y0, Y1, Z0, Z1 = pt
    if not (Z0 or Z1):
        return None
    # 1/Z = conj(Z) / norm(Z): one base-field inversion
    ninv = pow((Z0 * Z0 + Z1 * Z1) % _P, -1, _P)
    zi0, zi1 = Z0 * ninv % _P, -Z1 * ninv % _P
    zi20, zi21 = _f2sqr(zi0, zi1)
    zi30, zi31 = _f2mul(zi20, zi21, zi0, zi1)
    return _f2mul(X0, X1, zi20, zi21) + _f2mul(Y0, Y1, zi30, zi31)


def g2_jac_mul(pt, k):
    """k * pt for any int ``k`` (signed 4-bit windows, like ``jac_mul``).

    The scalar is NOT reduced mod r: the membership oracle and points off
    the subgroup rely on the plain integer multiple.  Negative ``k``
    multiplies the negated point.
    """
    if k < 0:
        k, pt = -k, g2_jac_neg(pt)
    if k == 0 or g2_jac_is_infinity(pt):
        return G2_JAC_INFINITY
    window = 4
    half = 1 << (window - 1)
    full = 1 << window
    mask = full - 1
    digits = []  # least significant first
    while k:
        d = k & mask
        k >>= window
        if d > half:
            d -= full
            k += 1
        digits.append(d)
    multiples = [pt]  # multiples[i] = (i + 1) * pt
    for _ in range(half - 1):
        multiples.append(g2_jac_add(multiples[-1], pt))
    result = G2_JAC_INFINITY
    for d in reversed(digits):
        for _ in range(window):
            result = g2_jac_double(result)
        if d > 0:
            result = g2_jac_add(result, multiples[d - 1])
        elif d < 0:
            result = g2_jac_add(result, g2_jac_neg(multiples[-d - 1]))
    return result


class G2Point:
    """Affine point on the BN254 sextic twist (or infinity: x is None)."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y

    @staticmethod
    def infinity():
        return G2Point(None, None)

    @property
    def is_infinity(self):
        return self.x is None

    @staticmethod
    def on_curve(x, y):
        return y.square() == x.square() * x + B2

    @classmethod
    def make(cls, x, y):
        if not cls.on_curve(x, y):
            raise CurveError("point not on BN254 twist")
        return cls(x, y)

    def __eq__(self, other):
        return isinstance(other, G2Point) and self.x == other.x and self.y == other.y

    def __hash__(self):
        return hash((self.x, self.y))

    def __repr__(self):
        if self.is_infinity:
            return "G2Point(INF)"
        return "G2Point(%r, %r)" % (self.x, self.y)

    def __neg__(self):
        if self.is_infinity:
            return self
        return G2Point(self.x, -self.y)

    def __add__(self, other):
        if self.is_infinity:
            return other
        if other.is_infinity:
            return self
        if self.x == other.x:
            if self.y == -other.y:
                return G2Point.infinity()
            lam = (self.x.square() * 3) * (self.y + self.y).inverse()
        else:
            lam = (other.y - self.y) * (other.x - self.x).inverse()
        x3 = lam.square() - self.x - other.x
        y3 = lam * (self.x - x3) - self.y
        return G2Point(x3, y3)

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        # NOTE: the scalar is NOT reduced mod r here — a point off the
        # subgroup has no order-r reduction to apply.
        return G2Point.from_jacobian(g2_jac_mul(self.to_jacobian(), k))

    __mul__ = __rmul__

    def double(self):
        return self + self

    def to_affine_tuple(self):
        """The raw ``(x0, x1, y0, y1)`` base the Jacobian kernels take."""
        return (self.x.c0, self.x.c1, self.y.c0, self.y.c1)

    def to_jacobian(self):
        if self.is_infinity:
            return G2_JAC_INFINITY
        return self.to_affine_tuple() + (1, 0)

    @staticmethod
    def from_jacobian(jac):
        aff = g2_jac_to_affine(jac)
        if aff is None:
            return G2Point.infinity()
        return G2Point(fq2_raw(aff[0], aff[1]), fq2_raw(aff[2], aff[3]))

    def in_subgroup(self):
        """Whether the point lies in the r-order subgroup: psi(Q) == [t-1]Q.

        One 127-bit Jacobian scalar multiplication and a projective
        comparison; no inversion (exactness argument in the module
        docstring).
        """
        if self.is_infinity:
            return True
        fx, fy = twist_frobenius((self.x, self.y))
        X0, X1, Y0, Y1, Z0, Z1 = g2_jac_mul(self.to_jacobian(), PSI_EIGENVALUE)
        if not (Z0 or Z1):
            return False
        # (fx, fy) == (X / Z^2, Y / Z^3)  <=>  X == fx Z^2 and Y == fy Z^3
        ZZ0, ZZ1 = _f2sqr(Z0, Z1)
        if (X0, X1) != _f2mul(fx.c0, fx.c1, ZZ0, ZZ1):
            return False
        return (Y0, Y1) == _f2mul(fy.c0, fy.c1, *_f2mul(ZZ0, ZZ1, Z0, Z1))


#: Standard G2 generator.
G2_GENERATOR = G2Point.make(
    Fq2(
        10857046999023057135944570762232829481370756359578518086990519993285655852781,
        11559732032986387107991004021392285783925812861821192530917403151452391805634,
    ),
    Fq2(
        8495653923123431417604973247489272438418190587263600148770280649306958101930,
        4082367875863433681332203403145435568316851327593401208105741076214120093531,
    ),
)

# Fq12 constants for the untwist embedding.
_W2 = Fq12(Fq6(Fq2.zero(), Fq2.one(), Fq2.zero()), Fq6.zero())  # w^2 = v
_W3 = Fq12(Fq6.zero(), Fq6(Fq2.zero(), Fq2.one(), Fq2.zero()))  # w^3 = v*w


def _embed_fq2(x):
    # x is a canonical Fq2 (point coordinate or tower constant): build the
    # sparse embedding without re-reducing any limb
    return fq12_raw(
        fq6_raw(x, fq2_raw(0, 0), fq2_raw(0, 0)),
        fq6_raw(fq2_raw(0, 0), fq2_raw(0, 0), fq2_raw(0, 0)),
    )


def embed_fq(x):
    """Embed a base-field int into Fq12 (``x`` reduced once here)."""
    return _embed_fq2(Fq2(x, 0))


def untwist(pt):
    """Map a G2 twist point into E(Fq12): (x, y) -> (x w^2, y w^3)."""
    if pt.is_infinity:
        return None
    return (_embed_fq2(pt.x) * _W2, _embed_fq2(pt.y) * _W3)


def embed_g1(pt):
    """Map a BN254 G1 affine Point into E(Fq12) coordinates."""
    if pt.is_infinity:
        return None
    return (embed_fq(pt.x), embed_fq(pt.y))


# Frobenius directly on twist coordinates.  Untwisting, applying x -> x^p on
# E(Fq12), and re-twisting multiplies the Fq2 coordinates by powers of
# w^(p-1), which collapses to the Fq2 scalar xi^((p-1)/6) because w^6 = xi
# and p = 1 mod 6.  The Fq2 Frobenius itself is conjugation (p = 3 mod 4).
_W_FROB = XI.pow((BN254_P - 1) // 6)
TWIST_FROB_X = _W_FROB.square()
TWIST_FROB_Y = TWIST_FROB_X * _W_FROB


def twist_frobenius(pt):
    """pi(Q) on twist coordinates: untwist -> Frobenius -> twist, fused."""
    x, y = pt
    return (x.conjugate() * TWIST_FROB_X, y.conjugate() * TWIST_FROB_Y)
