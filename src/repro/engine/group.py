"""The Group protocol: what the generic MSM needs from a group.

Two adapters cover every group in the repro:

* :class:`JacobianGroup` — G1-style short-Weierstrass curves.  *Elements*
  are Jacobian ``(X, Y, Z)`` int tuples, *bases* are affine ``(x, y)``
  tuples, and bucket accumulation uses batched affine additions (one field
  inversion per batch via ``PrimeField.batch_inverse``) with mixed
  Jacobian adds for the bucket aggregation.  Curves carrying the GLV
  endomorphism (``j = 0``, ``p = 1 mod 3``) additionally expose
  :meth:`~JacobianGroup.glv_split`, which the MSM uses to halve scalar
  widths over an endomorphism-mapped base set.
* :class:`G2JacobianGroup` — BN254 G2 on the sextic twist.  *Elements*
  are Jacobian ``(X0, X1, Y0, Y1, Z0, Z1)`` tuples over Fq2, *bases* are
  affine ``(x0, x1, y0, y1)`` tuples, and the arithmetic is the
  ``g2_jac_*`` kernels of :mod:`repro.pairing.bn254`.  Bucket
  accumulation is batched-affine like :class:`JacobianGroup`: the Fq2
  denominators are inverted through their base-field norms, one
  ``PrimeField.batch_inverse`` per round.  No GLV/GLS split.

Both are picklable (they hold only curve constants; memoized endomorphism
data is rebuilt lazily after unpickling), so they can cross a process-pool
boundary for the parallel MSM path.
"""

from ..field.prime_field import PrimeField
from ..pairing.bn254 import (
    BN254_P,
    BN254_R,
    G2_JAC_INFINITY,
    g2_jac_add,
    g2_jac_add_affine,
    g2_jac_double,
    g2_jac_is_infinity,
    g2_jac_mul,
)

_FQ = PrimeField(BN254_P)


class Group:
    """Abstract group interface consumed by :func:`repro.engine.msm.msm_generic`.

    ``element`` is the accumulator representation; ``base`` is the (possibly
    cheaper) representation input points arrive in.  For groups with no
    mixed addition the two coincide and ``add_mixed`` is plain ``add``.
    """

    def identity(self):
        raise NotImplementedError

    def is_identity(self, el):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def double(self, el):
        raise NotImplementedError

    def add_mixed(self, el, base):
        """Accumulate a base point into an element (mixed add if available)."""
        raise NotImplementedError

    def scalar_mul(self, base, k):
        """k * base, returned as an element (used for the 1-point shortcut)."""
        raise NotImplementedError

    def neg_base(self, base):
        """-base, in base representation (signed-digit windows need it)."""
        raise NotImplementedError

    def glv_split(self, bases, scalars):
        """Halve scalar widths via an endomorphism, or None if unsupported.

        Returns ``(new_bases, new_scalars)`` with every scalar positive and
        at most ~half the bit width, such that the MSM over the new pairs
        equals the MSM over the old ones.
        """
        return None

    def reduce_buckets(self, bucket_lists):
        """Collapse each bucket's list of bases to one base (or None).

        Both adapters implement it as batched-affine accumulation.
        """
        raise NotImplementedError


class JacobianGroup(Group):
    """Adapter for ``repro.ec.curve`` Jacobian arithmetic on one curve."""

    def __init__(self, curve):
        # lazy import: repro.ec.msm delegates into the engine, so this
        # module must not import repro.ec at module scope
        from ..ec import curve as _c

        self.curve = curve
        self.order = curve.order
        self._inf = _c.JAC_INFINITY
        self._add = _c.jac_add
        self._double = _c.jac_double
        self._add_affine = _c.jac_add_affine
        self._mul = _c.jac_mul
        self._endo = None
        self._endo_resolved = False

    def __getstate__(self):
        return self.curve

    def __setstate__(self, curve):
        self.__init__(curve)

    def identity(self):
        return self._inf

    def is_identity(self, el):
        return el[2] == 0

    def add(self, a, b):
        return self._add(self.curve, a, b)

    def double(self, el):
        return self._double(self.curve, el)

    def add_mixed(self, el, base):
        return self._add_affine(self.curve, el, base)

    def scalar_mul(self, base, k):
        return self._mul(self.curve, (base[0], base[1], 1), k)

    def neg_base(self, base):
        return (base[0], (-base[1]) % self.curve.field.p)

    # -- GLV ------------------------------------------------------------------

    def _endomorphism(self):
        """Memoized ``(beta, lam, basis)`` or None (rebuilt after pickling)."""
        if not self._endo_resolved:
            from ..ec.glv import curve_endomorphism, glv_basis

            params = curve_endomorphism(self.curve)
            if params is not None:
                beta, lam = params
                self._endo = (beta, lam, glv_basis(lam, self.order))
            self._endo_resolved = True
        return self._endo

    def glv_split(self, bases, scalars):
        endo = self._endomorphism()
        if endo is None:
            return None
        from ..ec.glv import split_scalar

        beta, _lam, basis = endo
        p = self.curve.field.p
        n = self.order
        new_bases, new_scalars = [], []
        for base, k in zip(bases, scalars):
            k1, k2 = split_scalar(k, n, basis)
            x, y = base
            if k1:
                if k1 > 0:
                    new_bases.append(base)
                    new_scalars.append(k1)
                else:
                    new_bases.append((x, (-y) % p))
                    new_scalars.append(-k1)
            if k2:
                xb = beta * x % p
                if k2 > 0:
                    new_bases.append((xb, y))
                    new_scalars.append(k2)
                else:
                    new_bases.append((xb, (-y) % p))
                    new_scalars.append(-k2)
        return new_bases, new_scalars

    # -- batched-affine bucket accumulation -----------------------------------

    def reduce_buckets(self, bucket_lists):
        """Collapse bucket point-lists via rounds of batched affine adds.

        Each round pairs up the points remaining in every bucket and
        performs all the affine additions together, paying one modular
        inversion per *round* (Montgomery batch inversion) instead of one
        Jacobian mixed add per point.  Exact special cases: ``P + (-P)``
        cancels to the identity (both points dropped), ``P + P`` becomes an
        affine doubling.  Returns one affine tuple (or None) per bucket.
        """
        field = self.curve.field
        p = field.p
        a_coeff = self.curve.a
        lists = bucket_lists
        while True:
            denoms = []
            jobs = []  # (bucket, x1, y1, x2, y2, is_double)
            nxt = [None] * len(lists)
            pending = False
            for bi, lst in enumerate(lists):
                m = len(lst)
                if m <= 1:
                    nxt[bi] = lst
                    continue
                pending = True
                keep = []
                i = 0
                while i + 1 < m:
                    x1, y1 = lst[i]
                    x2, y2 = lst[i + 1]
                    if x1 == x2:
                        if (y1 + y2) % p == 0:
                            pass  # P + (-P): cancels, drop both
                        else:
                            denoms.append(2 * y1 % p)
                            jobs.append((bi, x1, y1, 0, 0, True))
                    else:
                        denoms.append((x2 - x1) % p)
                        jobs.append((bi, x1, y1, x2, y2, False))
                    i += 2
                if i < m:
                    keep.append(lst[i])
                nxt[bi] = keep
            if not pending:
                break
            invs = field.batch_inverse(denoms)
            for (bi, x1, y1, x2, y2, dbl), inv_d in zip(jobs, invs):
                if dbl:
                    lam = (3 * x1 * x1 + a_coeff) * inv_d % p
                    x3 = (lam * lam - 2 * x1) % p
                else:
                    lam = (y2 - y1) * inv_d % p
                    x3 = (lam * lam - x1 - x2) % p
                nxt[bi].append((x3, (lam * (x1 - x3) - y1) % p))
            lists = nxt
        return [lst[0] if lst else None for lst in lists]


class G2JacobianGroup(Group):
    """Adapter for the BN254 twist's raw-int Jacobian kernels (stateless)."""

    order = BN254_R

    def identity(self):
        return G2_JAC_INFINITY

    def is_identity(self, el):
        return g2_jac_is_infinity(el)

    def add(self, a, b):
        return g2_jac_add(a, b)

    def double(self, el):
        return g2_jac_double(el)

    def add_mixed(self, el, base):
        return g2_jac_add_affine(el, base)

    def scalar_mul(self, base, k):
        return g2_jac_mul(base + (1, 0), k)

    def neg_base(self, base):
        return (base[0], base[1], -base[2] % BN254_P, -base[3] % BN254_P)

    def reduce_buckets(self, bucket_lists):
        """Batched-affine bucket accumulation over Fq2.

        Same rounds and special cases as :meth:`JacobianGroup.reduce_buckets`.
        A denominator ``d`` in Fq2 inverts as ``conj(d) / N(d)`` with the
        norm ``N(d) = d0^2 + d1^2`` in Fq, so each round batch-inverts the
        norms (nonzero for nonzero ``d``: -1 is a non-residue mod p).
        """
        p = BN254_P
        lists = bucket_lists
        while True:
            norms = []
            jobs = []  # (bucket, base1, base2 or None for a doubling, d0, d1)
            nxt = [None] * len(lists)
            pending = False
            for bi, lst in enumerate(lists):
                m = len(lst)
                if m <= 1:
                    nxt[bi] = lst
                    continue
                pending = True
                keep = []
                i = 0
                while i + 1 < m:
                    b1 = lst[i]
                    b2 = lst[i + 1]
                    if b1[0] == b2[0] and b1[1] == b2[1]:
                        if (b1[2] + b2[2]) % p == 0 and (b1[3] + b2[3]) % p == 0:
                            pass  # P + (-P): cancels, drop both
                        else:
                            d0, d1 = 2 * b1[2], 2 * b1[3]
                            norms.append((d0 * d0 + d1 * d1) % p)
                            jobs.append((bi, b1, None, d0, d1))
                    else:
                        d0, d1 = b2[0] - b1[0], b2[1] - b1[1]
                        norms.append((d0 * d0 + d1 * d1) % p)
                        jobs.append((bi, b1, b2, d0, d1))
                    i += 2
                if i < m:
                    keep.append(lst[i])
                nxt[bi] = keep
            if not pending:
                break
            invs = _FQ.batch_inverse(norms)
            for (bi, b1, b2, d0, d1), ninv in zip(jobs, invs):
                x10, x11, y10, y11 = b1
                if b2 is None:
                    # lam = 3 x1^2 / (2 y1)
                    x20, x21 = x10, x11
                    n0 = 3 * (x10 + x11) * (x10 - x11)
                    n1 = 6 * x10 * x11
                else:
                    x20, x21, y20, y21 = b2
                    n0, n1 = y20 - y10, y21 - y11
                i0 = d0 * ninv % p
                i1 = -d1 * ninv % p
                t0 = n0 * i0
                t1 = n1 * i1
                l0 = (t0 - t1) % p
                l1 = ((n0 + n1) * (i0 + i1) - t0 - t1) % p
                x30 = ((l0 + l1) * (l0 - l1) - x10 - x20) % p
                x31 = (2 * l0 * l1 - x11 - x21) % p
                u0, u1 = x10 - x30, x11 - x31
                t0 = l0 * u0
                t1 = l1 * u1
                nxt[bi].append((
                    x30, x31,
                    (t0 - t1 - y10) % p,
                    ((l0 + l1) * (u0 + u1) - t0 - t1 - y11) % p,
                ))
            lists = nxt
        return [lst[0] if lst else None for lst in lists]
