"""BN254 G2: the raw-int Jacobian kernels and the psi subgroup test.

Two legs, both pinned to the affine ``G2Point`` group law:

* kernel parity — ``g2_jac_double``/``g2_jac_add``/``g2_jac_add_affine``/
  ``g2_jac_to_affine`` and ``G2Point.__rmul__`` agree with affine
  arithmetic, including the doubling, cancellation and identity branches
  and inputs whose Jacobian ``Z`` is not 1;
* membership — ``G2Point.in_subgroup`` (``psi(Q) == [6 x0^2] Q``) agrees
  with the definition ``[r] Q == O``, computed here by affine
  double-and-add, on subgroup points, on pure cofactor-torsion points
  ``[r] R`` and on mixed points ``Q + [r] R``; and ``g2_from_bytes``
  rejects every non-member.
"""

import pickle
import random

import pytest

from repro.engine import Engine, EngineConfig
from repro.engine.group import G2JacobianGroup
from repro.engine.msm import msm_generic
from repro.errors import EncodingError
from repro.field.extension import BN254_P, Fq2
from repro.groth16.serialize import _fq2_sqrt, g2_from_bytes, g2_to_bytes
from repro.pairing.bn254 import (
    ATE_LOOP_COUNT,
    B2,
    BN254_R,
    BN_X0,
    G2_GENERATOR,
    G2_JAC_INFINITY,
    PSI_EIGENVALUE,
    G2Point,
    g2_jac_add,
    g2_jac_add_affine,
    g2_jac_double,
    g2_jac_mul,
    g2_jac_to_affine,
    twist_frobenius,
)

G = G2_GENERATOR
P = BN254_P


def affine_mul(k, pt):
    """k * pt by affine double-and-add: the oracle the kernels answer to."""
    if k < 0:
        k, pt = -k, -pt
    result = G2Point.infinity()
    while k:
        if k & 1:
            result = result + pt
        pt = pt + pt
        k >>= 1
    return result


def oracle_in_subgroup(pt):
    return affine_mul(BN254_R, pt).is_infinity


def lift_random(rng):
    """A random point of the whole twist E'(Fq2), found by lifting x."""
    while True:
        x = Fq2(rng.randrange(P), rng.randrange(P))
        try:
            y = _fq2_sqrt(x.square() * x + B2)
        except EncodingError:
            continue
        return G2Point.make(x, y)


def scaled(pt, z0, z1):
    """A Jacobian representative of ``pt`` with Z = z0 + z1 u."""
    z = Fq2(z0, z1)
    zz = z.square()
    x = pt.x * zz
    y = pt.y * zz * z
    return (x.c0, x.c1, y.c0, y.c1, z.c0, z.c1)


def to_point(jac):
    return G2Point.from_jacobian(jac)


@pytest.fixture(scope="module")
def members():
    rng = random.Random(20221)
    return [rng.randrange(1, BN254_R) * G for _ in range(4)]


@pytest.fixture(scope="module")
def torsion():
    """Pure cofactor-torsion points [r] R (order divides the cofactor)."""
    rng = random.Random(20222)
    out = []
    while len(out) < 4:
        c = affine_mul(BN254_R, lift_random(rng))
        if not c.is_infinity:
            out.append(c)
    return out


# -- constants ----------------------------------------------------------------


def test_bn_constants():
    trace = PSI_EIGENVALUE + 1
    assert BN254_R == P + 1 - trace
    assert ATE_LOOP_COUNT == 6 * BN_X0 + 2
    assert PSI_EIGENVALUE % BN254_R == P % BN254_R


def test_psi_is_p_on_g2(members):
    for q in [G] + members:
        fx, fy = twist_frobenius((q.x, q.y))
        assert G2Point(fx, fy) == PSI_EIGENVALUE * q
        assert G2Point(fx, fy) == affine_mul(P % BN254_R, q)


# -- kernel parity ------------------------------------------------------------


def test_double_matches_affine(members):
    for q in [G] + members:
        want = q + q
        assert to_point(g2_jac_double(q.to_jacobian())) == want
        assert to_point(g2_jac_double(scaled(q, 5, 7))) == want
    assert g2_jac_double(G2_JAC_INFINITY) == G2_JAC_INFINITY


def test_add_matches_affine(members):
    a, b = members[0], members[1]
    ja, jb = scaled(a, 3, 11), scaled(b, 13, 2)
    assert to_point(g2_jac_add(ja, jb)) == a + b
    assert to_point(g2_jac_add(ja, a.to_jacobian())) == a + a  # P + P
    assert to_point(g2_jac_add(ja, scaled(-a, 9, 1))).is_infinity  # P + (-P)
    assert g2_jac_add(ja, G2_JAC_INFINITY) is ja
    assert g2_jac_add(G2_JAC_INFINITY, jb) is jb


def test_add_affine_matches_affine(members):
    a, b = members[2], members[3]
    ja = scaled(a, 17, 19)
    assert to_point(g2_jac_add_affine(ja, b.to_affine_tuple())) == a + b
    assert to_point(g2_jac_add_affine(ja, a.to_affine_tuple())) == a + a
    assert to_point(g2_jac_add_affine(ja, (-a).to_affine_tuple())).is_infinity
    got = g2_jac_add_affine(G2_JAC_INFINITY, b.to_affine_tuple())
    assert to_point(got) == b


def test_to_affine(members):
    q = members[0]
    assert g2_jac_to_affine(G2_JAC_INFINITY) is None
    assert g2_jac_to_affine(scaled(q, 23, 29)) == q.to_affine_tuple()
    assert G2Point.from_jacobian(G2_JAC_INFINITY).is_infinity


def test_kernels_exact_off_the_subgroup(torsion):
    """The formulas hold on all of E'(Fq2), not only on G2."""
    c, d = torsion[0], torsion[1]
    assert to_point(g2_jac_add(scaled(c, 2, 3), scaled(d, 4, 5))) == c + d
    assert to_point(g2_jac_double(scaled(c, 6, 7))) == c + c
    assert to_point(g2_jac_mul(c.to_jacobian(), 1000003)) == affine_mul(1000003, c)


@pytest.mark.parametrize("k", [
    0, 1, 2, 15, 16, 17, BN254_R, BN254_R + 1, 3 * BN254_R + 12345,
    -1, -987654321, 2**300 + 5,
], ids=lambda k: "k%d" % k if abs(k) < 10**6 else "k_big")
def test_rmul_matches_affine(k):
    assert k * G == affine_mul(k, G)


def test_rmul_negative_and_unreduced(torsion):
    k = 1234567890123
    assert (-k) * G == -(k * G)
    assert BN254_R * G == G2Point.infinity()
    assert (BN254_R + 1) * G == G
    # off the subgroup the scalar is not reduced mod r
    c = torsion[0]
    assert BN254_R * c == affine_mul(BN254_R, c)
    assert not (BN254_R * c).is_infinity
    assert (-5) * c == affine_mul(-5, c)
    assert 0 * c == G2Point.infinity()


# -- the psi subgroup test ----------------------------------------------------


def test_members_agree_with_oracle(members):
    assert G2Point.infinity().in_subgroup()
    for q in [G] + members:
        assert q.in_subgroup()
        assert oracle_in_subgroup(q)


def test_random_twist_points_agree_with_oracle():
    rng = random.Random(20223)
    for _ in range(4):
        pt = lift_random(rng)
        assert pt.in_subgroup() == oracle_in_subgroup(pt)


def test_torsion_points_rejected(torsion):
    for c in torsion:
        assert not oracle_in_subgroup(c)
        assert not c.in_subgroup()
        assert not (-c).in_subgroup()


def test_mixed_points_rejected(members, torsion):
    for q, c in zip(members, torsion):
        mixed = q + c
        assert not oracle_in_subgroup(mixed)
        assert not mixed.in_subgroup()


def test_decoder_rejects_every_non_member(members, torsion):
    bad = list(torsion) + [q + c for q, c in zip(members, torsion)]
    for pt in bad:
        with pytest.raises(EncodingError, match="subgroup"):
            g2_from_bytes(g2_to_bytes(pt))
    for q in members:
        assert g2_from_bytes(g2_to_bytes(q)) == q


# -- the MSM adapter ----------------------------------------------------------


def test_group_pickles_and_matches_naive(members):
    group = pickle.loads(pickle.dumps(G2JacobianGroup()))
    scalars = [3, BN254_R - 2, 2**200 + 1, 77]
    want = G2Point.infinity()
    for q, k in zip(members, scalars):
        want = want + k * q
    bases = [q.to_affine_tuple() for q in members]
    assert to_point(msm_generic(group, bases, scalars)) == want
    assert to_point(group.scalar_mul(bases[0], 5)) == 5 * members[0]


def test_engine_serial_parallel_parity(members):
    rng = random.Random(20224)
    points = members * 3
    scalars = [rng.randrange(BN254_R) for _ in points]
    serial = Engine()
    parallel = Engine(EngineConfig(workers=2, min_parallel_msm=1, adaptive=False))
    try:
        a = serial.msm_g2(points, scalars)
        b = parallel.msm_g2(points, scalars)
    finally:
        parallel.close()
    assert a == b
