"""The benchmark's world: a DNSSEC hierarchy, a CA with two CT logs and
ACME, the S_NOPE statement and its keys, and a set of certificates issued
ahead of time.

The world's keys come from a fixed seed (``WORLD_SEED``), not from
``--seed``: the program draws every key from the ``secrets`` module, and
:func:`seeded_secrets` points the program's modules at a seeded stand-in
while the world is built.  That makes the hierarchy, and with it the R1CS
structure (the root ZSK is a compile-time constant of the statement),
identical in every run, so the Groth16 trusted setup (~150 s on two cores)
and the proofs of the pre-issued certificates (~15 s each) are made once
per checkout and cached under ``.bench_build/perfbench/``.  Everything
else is rebuilt in every run and counts toward ``setup_s``.

With the simulation backend nothing is cached: the whole world, including
its "trusted setup" and the pre-issued certificates, is built live (the
harness self-test uses this).
"""

import contextlib
import hashlib
import os
import pickle
import random
import secrets
import sys
import time
from pathlib import Path

from repro.ca import AcmeServer, CertificationAuthority, CtLog, PlainDnsView
from repro.clock import DAY, FakeClock, SimClock
from repro.core import NopeProver, StatementKeys, make_backend, run_legacy_acme
from repro.core.common import TS_GRANULARITY, truncate_timestamp
from repro.core.prover import build_multi_domain_csr
from repro.core.statement import NopeStatement, StatementShape
from repro.dns.name import DomainName
from repro.ec import TOY29
from repro.engine import get_engine
from repro import profiles
from repro.profiles import TOY
from repro.sig import EcdsaPrivateKey
from repro.x509.cert import Certificate, SubjectPublicKeyInfo
from repro.x509.san import ALPHABET, is_nope_san

#: seeds every key of the world; the cached CRS is bound to the keys it makes
WORLD_SEED = 0x4E4F5045
START = 1_700_000_000
CA_NAME = "Repro Encrypt"

#: the domain the ``issue`` workload obtains certificates for
OWNER_DOMAIN = "issue"
NOPE_DOMAINS = ("n0", "n1", "n2", "n3")
#: the one pre-issued NOPE chain whose notBefore lands a TS bucket after
#: its proof's timestamp, so clients verify it twice (the TS fallback)
FALLBACK_DOMAIN = "n3"
MULTI_DOMAINS = ("m0", "m1")
LEGACY_DOMAINS = ("l0", "l1", "l2")
ALL_DOMAINS = (OWNER_DOMAIN,) + NOPE_DOMAINS + MULTI_DOMAINS + LEGACY_DOMAINS

#: what the injected issuance timer reports as proof-generation wall time;
#: it sets how far the simulated clock moves during one issuance, so the
#: TS-bucket crossings depend on the seed and not on prover speed
PROOF_WALL_S = 20.0

ROOT = Path(__file__).resolve().parent.parent
CACHE_DIR = ROOT / ".bench_build" / "perfbench"


class _SeededSecrets:
    """Stand-in for the ``secrets`` module, drawing from a seeded PRNG."""

    def __init__(self, seed):
        self._rng = random.Random(seed)

    def randbelow(self, n):
        return self._rng.randrange(n)

    def randbits(self, k):
        return self._rng.getrandbits(k)

    def token_bytes(self, nbytes=32):
        return self._rng.getrandbits(8 * nbytes).to_bytes(nbytes, "big")

    def token_hex(self, nbytes=32):
        return self.token_bytes(nbytes).hex()


@contextlib.contextmanager
def seeded_secrets(seed):
    """Make every loaded ``repro`` module draw randomness from ``seed``."""
    shim = _SeededSecrets(seed)
    modules = [
        m for name, m in list(sys.modules.items())
        if name.startswith("repro") and getattr(m, "secrets", None) is secrets
    ]
    for module in modules:
        module.secrets = shim
    try:
        yield
    finally:
        for module in modules:
            module.secrets = secrets


def proof_timer():
    """The injected ``timer=`` for ``obtain_certificate``: every issuance
    reads a proof-generation time of exactly ``PROOF_WALL_S``."""
    return FakeClock(start=0.0, tick=PROOF_WALL_S).time


def align_clock(clock, offset):
    """Move the simulated clock to ``offset`` seconds into the next TS bucket."""
    clock.sleep_until(truncate_timestamp(clock.now()) + TS_GRANULARITY + offset)


class World:
    """One run's parties; see :func:`load_world`."""

    def __init__(self, backend):
        self.backend = backend
        #: the proof backend clients verify with
        self.verifier = make_backend(backend)
        with seeded_secrets(WORLD_SEED):
            self.clock = SimClock(START)
            self.hierarchy = profiles.build_hierarchy(
                TOY, ALL_DOMAINS, inception=START - DAY,
                expiration=START + 365 * DAY,
            )
            self.logs = [CtLog("log-a", self.clock), CtLog("log-b", self.clock)]
            self.ca = CertificationAuthority(CA_NAME, self.clock, self.logs, TOY29)
        self.acme = AcmeServer(self.ca, PlainDnsView(self.hierarchy), self.clock)
        self.provers = {}
        self.keys = None
        #: name -> PreIssued, the certificates the client workloads serve
        self.chains = {}
        #: the constraint count, and the cache build's times (groth16)
        self.build = {}

    def root_zsk_dnskey(self):
        return self.hierarchy.root.zsk.dnskey()

    def prover(self, domain):
        """A prover for ``domain`` with its statement synthesized and
        compiled, holding the world's keys."""
        if domain not in self.provers:
            prover = NopeProver(TOY, self.hierarchy, domain, backend=self.backend)
            # the synthesize-once structure every later proof re-binds
            cs = prover._structure_cs()
            get_engine().compile(cs)
            prover.keys = self.keys
            self.provers[domain] = prover
        return self.provers[domain]

    def statement(self):
        """(NopeStatement, StatementKeys) a client registers; a client
        needs the statement's shape and verifying key, not its R1CS."""
        return NopeStatement(StatementShape(TOY, 1)), self.keys

    def chain(self, name):
        return [self.chains[name].leaf, self.ca.intermediate_cert]


class PreIssued:
    """A certificate issued ahead of time, with what a client must conclude.

    ``verdict`` is ``accept`` or ``bad_proof``; ``nope`` says whether an
    accepted chain carries a proof; ``fallback`` says whether its proof
    only verifies at the previous TS bucket.
    """

    def __init__(self, name, kind, domains, leaf, verdict, nope, fallback):
        self.name = name
        self.kind = kind
        self.domains = tuple(domains)
        self.leaf = leaf
        self.verdict = verdict
        self.nope = nope
        self.fallback = fallback

    def to_record(self):
        record = dict(self.__dict__)
        record["leaf"] = self.leaf.to_der()
        return record

    @classmethod
    def from_record(cls, record):
        record = dict(record)
        record["leaf"] = Certificate.from_der(record["leaf"])
        return cls(**record)


def _crosses_bucket(leaf, ts):
    return truncate_timestamp(leaf.not_before) != truncate_timestamp(ts)


def _zone(world, domain):
    return world.hierarchy.zones[DomainName.parse(domain)]


def issue_chain_set(world):
    """Issue every certificate the ``connect`` and ``revisit`` workloads
    serve, through the real ACME/CA/CT path; returns [PreIssued]."""
    clock, ca = world.clock, world.ca
    out = []
    for domain in NOPE_DOMAINS:
        align_clock(clock, TS_GRANULARITY - 1 if domain == FALLBACK_DOMAIN else 0)
        ts = clock.now()
        chain, _ = world.prover(domain).obtain_certificate(
            world.acme, EcdsaPrivateKey.generate(TOY29), clock,
            timer=proof_timer(),
        )
        out.append(PreIssued(
            domain, "nope", [domain], chain[0], "accept", True,
            _crosses_bucket(chain[0], ts),
        ))
    # one certificate binding two NOPE domains (batched verification)
    align_clock(clock, 0)
    ts = clock.now()
    csr, _ = build_multi_domain_csr(
        [world.prover(d) for d in MULTI_DOMAINS],
        EcdsaPrivateKey.generate(TOY29), ca.org_name, ts,
    )
    leaf = ca.issue(MULTI_DOMAINS[0], csr.spki, csr.san_names())[0]
    out.append(PreIssued(
        "multi", "multi", MULTI_DOMAINS, leaf, "accept", True,
        _crosses_bucket(leaf, ts),
    ))
    for domain in LEGACY_DOMAINS:
        chain, _ = run_legacy_acme(
            world.acme, _zone(world, domain), domain,
            EcdsaPrivateKey.generate(TOY29), clock,
        )
        out.append(PreIssued(
            domain, "legacy", [domain], chain[0], "accept", False, False,
        ))
    return out + _must_reject(world, {p.name: p.leaf for p in out})


def _must_reject(world, leaves):
    """Chains a NOPE client must refuse as bad proofs."""
    ca = world.ca
    other_key = SubjectPublicKeyInfo(EcdsaPrivateKey.generate(TOY29).public_key)
    n0, n1, n2 = NOPE_DOMAINS[:3]
    # a compromised CA signs what an honest one's SAN screen would refuse
    ca.compromised = True
    try:
        # n0's proof under another TLS key: the pairing check fails
        rebound = ca.issue_rogue(n0, other_key, leaves[n0].san_names())
        # one character of an n1 proof SAN changed: the SAN checksum fails
        sans = leaves[n1].san_names()
        i = next(i for i, s in enumerate(sans) if is_nope_san(s))
        pos = 10
        swapped = ALPHABET[(ALPHABET.index(sans[i][pos]) + 1) % 26]
        sans[i] = sans[i][:pos] + swapped + sans[i][pos + 1:]
        corrupt = ca.issue_rogue(n1, other_key, sans)
    finally:
        ca.compromised = False
    # an honest plain certificate for a domain the client pins to NOPE
    downgrade, _ = run_legacy_acme(
        world.acme, _zone(world, n2), n2, EcdsaPrivateKey.generate(TOY29),
        world.clock,
    )
    return [
        PreIssued("rebound", "reject", [n0], rebound[0], "bad_proof", True,
                  False),
        PreIssued("corrupt_san", "reject", [n1], corrupt[0], "bad_proof",
                  True, False),
        PreIssued("downgrade", "reject", [n2], downgrade[0], "bad_proof",
                  False, False),
    ]


# -- the per-checkout cache (groth16 only) ----------------------------------


def cache_paths():
    """(client part, proving key) cache files for this source tree."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    digest.update(Path(__file__).read_bytes())
    tag = digest.hexdigest()[:16]
    return (CACHE_DIR / ("world-%s.pkl" % tag),
            CACHE_DIR / ("pk-%s.pkl" % tag))


def _dump(obj, path):
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        pickle.dump(obj, fh, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, path)


def build_cache():
    """Trusted setup and pre-issued certificates for the Groth16 world.

    Run once per checkout (in its own process); returns the build times.
    """
    world_path, pk_path = cache_paths()
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    world = World("groth16")
    prover = world.prover(OWNER_DOMAIN)
    t0 = time.perf_counter()
    world.keys = prover.trusted_setup()
    t_setup = time.perf_counter()
    chains = issue_chain_set(world)
    t_chains = time.perf_counter()
    keys = world.keys
    build = {
        "trusted_setup_s": round(t_setup - t0, 3),
        "pre_issue_s": round(t_chains - t_setup, 3),
        "constraints": prover._structure_cs().num_constraints,
    }
    _dump(keys.proving_key, pk_path)
    _dump({
        "shape_id": keys.shape_id,
        "verifying_key": keys.verifying_key,
        "structure_hash": prover._structure_cs().structure_hash(),
        "root_zsk": world.root_zsk_dnskey().to_bytes(),
        "ca_root": world.ca.root_cert.to_der(),
        "clock": world.clock.now(),
        "chains": [c.to_record() for c in chains],
        "build": build,
    }, world_path)
    return build


def load_world(backend, with_prover):
    """Build this run's world: the live parties plus the cached (groth16)
    or freshly made (simulation) keys and pre-issued certificates.

    ``with_prover`` also loads the proving key and synthesizes, compiles
    and prepares the issuing domain's statement.
    """
    world = World(backend)
    if backend == "simulation":
        prover = world.prover(OWNER_DOMAIN)
        t0 = time.perf_counter()
        world.keys = prover.trusted_setup()
        world.build = {
            "trusted_setup_s": time.perf_counter() - t0,
            "constraints": prover._structure_cs().num_constraints,
        }
        world.chains = {c.name: c for c in issue_chain_set(world)}
        return world
    world_path, pk_path = cache_paths()
    with open(world_path, "rb") as fh:
        record = pickle.load(fh)
    if (record["root_zsk"] != world.root_zsk_dnskey().to_bytes()
            or record["ca_root"] != world.ca.root_cert.to_der()):
        raise RuntimeError("cached world does not match the seeded world")
    proving_key = None
    if with_prover:
        with open(pk_path, "rb") as fh:
            proving_key = pickle.load(fh)
    world.keys = StatementKeys(
        record["shape_id"], proving_key, record["verifying_key"]
    )
    world.build = record["build"]
    world.clock.sleep_until(record["clock"])
    for item in record["chains"]:
        issued = PreIssued.from_record(item)
        world.chains[issued.name] = issued
        # the CA's issuance log, so its revocation path knows the serial
        world.ca.issued[issued.leaf.serial] = issued.leaf
    if with_prover:
        cs = world.prover(OWNER_DOMAIN)._structure_cs()
        if cs.structure_hash() != record["structure_hash"]:
            raise RuntimeError("cached CRS does not match the statement")
        get_engine().prepare(proving_key)
    return world
