"""Prepared proving keys and compiled circuits: per-statement precomputation.

A Groth16 proving key's CRS queries are mostly sparse — for a typical NOPE
statement the bulk of ``b_query`` entries are the identity (variables that
never appear on a B side).  Preparing a key walks each query once, keeps
only the non-identity entries, and strips G1 and G2 points down to the
affine int tuples the Jacobian MSMs consume.  Every later proof then
gathers scalars against the sparse index lists instead of rescanning
full-length queries and re-unwrapping Point objects.

Preparation is memoized per proving-key object (weakly, so keys can be
garbage collected); one ``StatementKeys`` therefore pays the walk once no
matter how many proofs it produces.

The same pattern covers the field side: :func:`compile_system` lowers a
synthesized ``ConstraintSystem`` into a
:class:`~repro.r1cs.compiled.CompiledCircuit` (flat CSR matrices), memoized
by ``structure_hash()`` so every system with the same structure — in
particular the synthesize-once / bind-per-proof statement flow — shares one
compiled artifact.  :func:`eval_cache_get`/:func:`eval_cache_put` hold the
last checked A/B/C evaluations per *system* (weakly), which the engine
combines with the system's dirty-wire set to re-evaluate only re-bound rows
on repeat proofs.
"""

import weakref

from ..telemetry import metrics as _metrics

_COMPILE_HIT = _metrics.counter("engine.compile.hit")
_COMPILE_MISS = _metrics.counter("engine.compile.miss")
_EVAL_CACHE_HIT = _metrics.counter("engine.evalcache.hit")
_EVAL_CACHE_MISS = _metrics.counter("engine.evalcache.miss")

_PREPARED = weakref.WeakKeyDictionary()

#: structure-hash -> CompiledCircuit (structures per process are few)
_COMPILED = {}

#: system -> (CompiledCircuit, (a_evals, b_evals, c_evals))
_EVAL_CACHE = weakref.WeakKeyDictionary()


def compile_system(system):
    """The memoized CSR lowering of ``system``, keyed by structure hash."""
    key = (system.structure_hash(), system.field.p)
    compiled = _COMPILED.get(key)
    if compiled is None:
        from ..r1cs.compiled import CompiledCircuit

        _COMPILE_MISS.inc()
        compiled = CompiledCircuit.from_system(system)
        _COMPILED[key] = compiled
    else:
        _COMPILE_HIT.inc()
    return compiled


def eval_cache_get(system, compiled):
    """Cached evals for ``system``, or None if absent or from another
    structure (the compiled-object identity guards staleness)."""
    entry = _EVAL_CACHE.get(system)
    if entry is not None and entry[0] is compiled:
        _EVAL_CACHE_HIT.inc()
        return entry[1]
    _EVAL_CACHE_MISS.inc()
    return None


def eval_cache_put(system, compiled, evals):
    _EVAL_CACHE[system] = (compiled, evals)


class SparseQuery:
    """Non-identity entries of one CRS query: parallel (index, base) lists."""

    __slots__ = ("indices", "bases")

    def __init__(self, indices, bases):
        self.indices = indices
        self.bases = bases

    def gather(self, scalars, offset=0):
        """(bases, scalars) for entries whose scalar is nonzero.

        ``scalars[index + offset]`` supplies the scalar for each entry.
        """
        out_bases, out_scalars = [], []
        for i, base in zip(self.indices, self.bases):
            s = scalars[i + offset]
            if s:
                out_bases.append(base)
                out_scalars.append(s)
        return out_bases, out_scalars


def _sparse_g1(points):
    indices, bases = [], []
    for i, pt in enumerate(points):
        if not pt.is_infinity:
            indices.append(i)
            bases.append((pt.x, pt.y))
    return SparseQuery(indices, bases)


def _sparse_g2(points):
    indices, bases = [], []
    for i, pt in enumerate(points):
        if not pt.is_infinity:
            indices.append(i)
            bases.append(pt.to_affine_tuple())
    return SparseQuery(indices, bases)


class PreparedProvingKey:
    """Sparse, MSM-ready views of a proving key's CRS queries."""

    __slots__ = ("pk", "curve", "a", "b_g1", "b_g2", "l", "h")

    def __init__(self, pk):
        self.pk = pk
        self.curve = pk.alpha_g1.curve
        self.a = _sparse_g1(pk.a_query)
        self.b_g1 = _sparse_g1(pk.b_g1_query)
        self.b_g2 = _sparse_g2(pk.b_g2_query)
        self.l = _sparse_g1(pk.l_query)
        self.h = _sparse_g1(pk.h_query)


def prepare_proving_key(pk):
    """A :class:`PreparedProvingKey` for ``pk``, memoized weakly per key."""
    prepared = _PREPARED.get(pk)
    if prepared is None:
        prepared = PreparedProvingKey(pk)
        _PREPARED[pk] = prepared
    return prepared
