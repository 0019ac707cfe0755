"""The three workloads and their verdict oracle.

Each workload is one caller in a closed loop: the next operation starts
only when the last one returns.  Its inputs come from ``--seed`` alone;
every operation carries the verdict a correct system must reach:

* ``accept`` — the call returns (with the expected NOPE status);
* ``revoked`` — the call raises CertificateError for a revoked certificate;
* ``bad_proof`` — the call raises ProofError.

Any other outcome, or an unexpected exception, is a failed operation.
"""

import random
import time

from repro.ca.ocsp import DEFAULT_VALIDITY
from repro.core import NopeClient, PinStore, VerificationCache
from repro.core.common import TS_GRANULARITY, truncate_timestamp
from repro.ec import TOY29
from repro.errors import CertificateError, ProofError, ReproError
from repro.profiles import TOY
from repro.sig import EcdsaPrivateKey
from repro.x509.cert import SubjectPublicKeyInfo
from repro.wire import encode_envelope, extract_proof
from repro.x509.san import is_nope_san
from repro.x509.validate import chain_wire_size

from hostspeed import HostMeter
import world as W

ACCEPT, REVOKED, BAD_PROOF = "accept", "revoked", "bad_proof"


def verdict_of(call):
    """Run ``call``; returns (verdict, result or exception)."""
    try:
        return ACCEPT, call()
    except CertificateError as exc:
        if "revoked" in str(exc):
            return REVOKED, exc
        return "rejected:%s" % exc, exc
    except ProofError as exc:
        return BAD_PROOF, exc
    except Exception as exc:  # any other outcome is a wrong one
        return "error:%s: %s" % (type(exc).__name__, exc), exc


class Op:
    """One operation: ``call()`` and what a correct system answers.

    ``check(result)`` returns a problem string (or None) for an accepted
    call; ``sizes`` are the served chain's :func:`chain_sizes` (None: the
    call returns the chain); ``fallback`` marks a NOPE verification that needs the previous
    TS bucket.
    """

    __slots__ = ("label", "call", "expected", "check", "sizes", "fallback")

    def __init__(self, label, call, expected, check=None, sizes=None,
                 fallback=False):
        self.label = label
        self.call = call
        self.expected = expected
        self.check = check
        self.sizes = sizes
        self.fallback = fallback


class Phase:
    """What one timed phase measured."""

    def __init__(self):
        self.latencies = []
        #: each latency at the reference host speed (see hostspeed.py)
        self.norm_latencies = []
        #: chain_sizes() of each operation's chain
        self.sizes = []
        self.failures = []
        self._failed_ops = set()
        self.fallbacks = 0
        self.elapsed = 0.0

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def failed(self):
        return len(self._failed_ops)

    def fail(self, op, problem):
        self._failed_ops.add(id(op))
        self.failures.append("%s: %s" % (op.label, problem))

    def judge(self, op, verdict, result):
        if verdict != op.expected:
            self.fail(op, "expected %s, got %s" % (op.expected, verdict))
        elif verdict == ACCEPT and op.check is not None:
            problem = op.check(result)
            if problem:
                self.fail(op, problem)


#: a timed phase runs at least this many operations, so that runs whose
#: first ``issue`` operation alone outlasts ``--seconds`` still prove
#: twice and peak memory does not depend on how fast the host was
MIN_OPS = 2


def run_phase(workload, seconds, tracer=None, counters=None, max_ops=None,
              meter=None):
    """Closed loop over ``workload.ops()`` for ``seconds`` of wall time
    and at least MIN_OPS operations (or, for the self-test, until
    ``max_ops`` operations)."""
    phase = Phase()
    ops = workload.ops()
    meter = meter or HostMeter()
    perf = time.perf_counter
    start = perf()
    deadline = start + seconds
    while True:
        op = next(ops)
        call = op.call if tracer is None else (lambda op=op: tracer.call(op.call))
        if counters is not None:
            counters.start()
        (verdict, result), latency, norm_latency = meter.time(
            lambda: verdict_of(call))
        if counters is not None:
            counters.stop()
        phase.latencies.append(latency)
        phase.norm_latencies.append(norm_latency)
        phase.sizes.append(op.sizes or chain_sizes(result))
        phase.fallbacks += workload.fallback_count(op, verdict, result)
        phase.judge(op, verdict, result)
        done = perf() >= deadline and phase.attempted >= MIN_OPS
        if done or phase.attempted == max_ops:
            break
    phase.elapsed = perf() - start
    workload.finish(phase)
    return phase


def chain_sizes(chain):
    """(DER bytes of a chain, characters of its proof SANs, bytes of the
    proof envelopes they decode to); zeros for a call that returned none."""
    if not isinstance(chain, list):
        return (0, 0, 0)
    names = chain[0].san_names()
    envelope_bytes = 0
    for domain in [n for n in names if not is_nope_san(n)]:
        try:
            payload = extract_proof(names, domain)
        except ReproError:
            continue
        if payload.envelope is not None:
            envelope_bytes += len(encode_envelope(payload.envelope))
    return (chain_wire_size(chain),
            sum(len(n) for n in names if is_nope_san(n)), envelope_bytes)


class Workload:
    name = None
    #: whether set-up loads the proving key and readies the prover
    with_prover = False

    def __init__(self, world, seed):
        self.world = world
        self.rng = random.Random(seed)

    def ops(self):
        raise NotImplementedError

    def fallback_count(self, op, verdict, result):
        return int(op.fallback and verdict == ACCEPT)

    def finish(self, phase):
        """Checks that run after the timed phase."""

    def client(self, cache=None, nope_aware=True):
        statement, keys = self.world.statement()
        client = NopeClient(
            TOY,
            self.world.ca.trust_anchors(),
            root_zsk_dnskey=self.world.root_zsk_dnskey(),
            backend=self.world.verifier,
            pin_store=PinStore(preloaded=W.NOPE_DOMAINS + W.MULTI_DOMAINS
                               + (W.OWNER_DOMAIN,)),
            verification_cache=cache,
            nope_aware=nope_aware,
        )
        client.register_statement(statement, keys)
        return client


class Issue(Workload):
    """The domain owner obtains certificates, each for a fresh TLS key."""

    name = "issue"
    with_prover = True

    def __init__(self, world, seed):
        super().__init__(world, seed)
        self.prover = world.prover(W.OWNER_DOMAIN)
        self.issued = []

    def ops(self):
        world = self.world
        clock = world.clock
        while True:
            # where in its TS bucket the proof is stamped decides whether
            # the certificate's notBefore crosses into the next bucket
            W.align_clock(clock, self.rng.randrange(TS_GRANULARITY))
            with W.seeded_secrets(self.rng.getrandbits(64)):
                key = EcdsaPrivateKey.generate(TOY29)
            ts = clock.now()

            def call(key=key):
                chain, _ = self.prover.obtain_certificate(
                    world.acme, key, clock, timer=W.proof_timer()
                )
                return chain

            def check(chain, key=key, ts=ts):
                self.issued.append((chain, key, ts))

            yield Op("issue", call, ACCEPT, check)

    def fallback_count(self, op, verdict, result):
        return 0  # counted when the chains are verified, in finish()

    def finish(self, phase):
        """Every issued chain, re-verified by a fresh NOPE client and by
        a legacy client."""
        now = self.world.clock.now()
        ocsp = self.world.ca.ocsp
        for chain, key, ts in self.issued:
            op = Op("issue-verify", None, ACCEPT)
            leaf = chain[0]
            if leaf.spki.raw_key_bytes() != SubjectPublicKeyInfo(
                    key.public_key).raw_key_bytes():
                phase.fail(op, "certificate is for another key")
            nope = self.client()
            verdict, report = verdict_of(lambda: nope.verify_server(
                W.OWNER_DOMAIN, chain, now, ocsp_responder=ocsp))
            if verdict == ACCEPT and not report.nope_ok:
                verdict = "accepted without a NOPE proof"
            legacy = self.client(nope_aware=False)
            legacy_verdict, _ = verdict_of(lambda: legacy.verify_server(
                W.OWNER_DOMAIN, chain, now, ocsp_responder=ocsp))
            for got in (verdict, legacy_verdict):
                if got != ACCEPT:
                    phase.fail(op, "issued chain: %s" % got)
            if truncate_timestamp(leaf.not_before) != truncate_timestamp(ts):
                phase.fallbacks += 1
        self.issued = []


class _Connections(Workload):
    """Shared by the client workloads: one connection to a served chain."""

    def __init__(self, world, seed, cache):
        super().__init__(world, seed)
        self.cache = cache
        self.nope_client = self.client(cache=cache)
        self._sizes = {}

    def connection(self, name, domain=None, expected=None):
        world = self.world
        item = world.chains[name]
        chain = world.chain(name)
        if name not in self._sizes:
            self._sizes[name] = chain_sizes(chain)
        ocsp = world.ca.ocsp
        client = self.nope_client
        if item.kind == "multi" and domain is None:
            domains = list(item.domains)

            def call():
                return client.verify_domains(
                    domains, chain, world.clock.now(), ocsp_responder=ocsp)

            def check(reports):
                if not all(r.nope_ok for r in reports.values()):
                    return "a batched domain was accepted without its proof"
        else:
            domain = domain or item.domains[0]

            def call():
                return client.verify_server(
                    domain, chain, world.clock.now(), ocsp_responder=ocsp)

            def check(report):
                if report.nope_ok != item.nope:
                    return "NOPE status %s, expected %s" % (
                        report.nope_ok, item.nope)

        return Op("%s/%s" % (name, domain or "batch"), call,
                  expected or item.verdict, check, self._sizes[name],
                  item.fallback)


class Connect(_Connections):
    """A cold client: no verification cache, every chain fully checked.

    The shares of each kind of chain are chosen so that every verify path
    runs in every run, with the accept path dominant; they do not model
    measured traffic.
    """

    name = "connect"
    #: one deck of connections, by chain: 60% single-domain NOPE (one in
    #: six of them needs the TS fallback), 10% batched multi-domain, 25%
    #: legacy and, from REJECTS, one must-reject chain (5%); the stream is
    #: a run of decks, each shuffled, so every run sees the same mix
    #: whatever the seed
    DECK = (("n0",) * 4 + ("n1",) * 3 + ("n2",) * 3 + ("n3",) * 2
            + ("multi",) * 2 + ("l0", "l0", "l1", "l1", "l2"))
    #: the must-reject chains, one per deck in turn
    REJECTS = ("rebound", "corrupt_san", "downgrade")

    def __init__(self, world, seed):
        super().__init__(world, seed, cache=None)

    def ops(self):
        decks = 0
        while True:
            deck = list(self.DECK) + [self.REJECTS[decks % len(self.REJECTS)]]
            decks += 1
            self.rng.shuffle(deck)
            for name in deck:
                yield self.connection(name)


class Revisit(_Connections):
    """Repeat connections through a verification cache, with expiry and
    revocation mixed in.

    Popularity is Zipf-like, as web request popularity is commonly found
    to be (Breslau et al., "Web Caching and Zipf-like Distributions",
    INFOCOM 1999, report exponents of 0.64-0.83).  The number of targets,
    their kinds and the expiry interval are chosen so that every cache
    path runs in every run; they do not model measured traffic.
    """

    name = "revisit"
    #: the chain kind at each popularity rank (fixed, so the hit mix is the
    #: same in every run); the seed picks which chain holds each rank
    RANK_KINDS = ("nope", "nope", "multi", "nope", "legacy", "nope",
                  "multi", "legacy", "legacy")
    #: connections per rank in one deck of 60: 60 * r**-0.8 / sum_r r**-0.8
    #: over the 9 ranks, rounded
    DECK_COUNTS = (18, 10, 7, 6, 5, 4, 4, 3, 3)
    #: the simulated clock steps past the OCSP window every this many
    #: connections, so every cache entry expires and is verified again
    #: (about three times in a 20-second run)
    EXPIRE_EVERY = 150

    def __init__(self, world, seed):
        super().__init__(world, seed, cache=VerificationCache())
        rng = self.rng
        pools = {
            "nope": [(d, d) for d in W.NOPE_DOMAINS],
            "multi": [("multi", d) for d in W.MULTI_DOMAINS],
            "legacy": [(d, d) for d in W.LEGACY_DOMAINS],
        }
        for pool in pools.values():
            rng.shuffle(pool)
        self.ranked = [pools[kind].pop() for kind in self.RANK_KINDS]
        #: the connection at which the rank-3 certificate is revoked
        self.revoke_at = rng.randrange(60, 120)
        self.revoke_name = self.ranked[3][0]
        self.revoked = False
        self._misses = 0

    def ops(self):
        rng = self.rng
        world = self.world
        index = 0
        while True:
            deck = [target for target, count in zip(self.ranked, self.DECK_COUNTS)
                    for _ in range(count)]
            rng.shuffle(deck)
            for name, domain in deck:
                if index and index % self.EXPIRE_EVERY == 0:
                    world.clock.advance(DEFAULT_VALIDITY + 1)
                if index == self.revoke_at:
                    world.ca.revoke(world.chains[self.revoke_name].leaf.serial)
                    self.revoked = True
                index += 1
                expected = (REVOKED if self.revoked and name == self.revoke_name
                            else None)
                yield self.connection(name, domain, expected)

    def fallback_count(self, op, verdict, result):
        # only a cache miss runs the proof check
        misses, self._misses = self._misses, self.cache.misses
        return int(op.fallback and verdict == ACCEPT
                   and self.cache.misses > misses)


WORKLOADS = {w.name: w for w in (Issue, Connect, Revisit)}
