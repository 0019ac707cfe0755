"""Per-layer tracing from outside the program.

The traced run wraps calls into each layer's public functions, patched at
the names their callers bind (``repro.core.client`` imports
``validate_chain`` directly, so that is where it is patched).  A wrapper
records calls, failures (the call raised) and busy time, where busy time
is self time: the call's duration minus the time of traced calls nested
inside it.  Counters the program keeps itself (``msm.*``, ``fft.size``,
``cache.*``, ``r1cs.*``) are read from its metrics registry.

Only the traced run installs wrappers; the untraced run executes the
program unmodified.
"""

import contextlib
import functools
import importlib
import time

from repro.telemetry import metrics

#: (owner, attribute, layer name); the owner is "module" or "module:Class"
TARGETS = (
    # setup path
    ("repro.profiles", "build_hierarchy", "dns.build_hierarchy"),
    ("repro.core.statement:NopeStatement", "synthesize", "core.statement.synthesize"),
    ("repro.engine.core:Engine", "compile", "engine.compile"),
    ("repro.engine.core:Engine", "prepare", "engine.prepare"),
    # prove path
    ("repro.core.backend", "prove", "groth16.prove"),
    ("repro.core.statement:NopeStatement", "bind_witness", "core.statement.bind"),
    ("repro.engine.core:Engine", "evaluate_r1cs", "engine.evaluate_r1cs"),
    ("repro.engine.core:Engine", "coset_extend_many", "engine.coset_extend"),
    ("repro.engine.core:Engine", "coset_ifft", "engine.coset_ifft"),
    # every public MSM entry point funnels into this one
    ("repro.engine.core:Engine", "_msm", "engine.msm"),
    # issuance protocol
    ("repro.core.prover", "seal", "wire.seal"),
    ("repro.x509.csr:CertificateRequest", "build", "x509.csr.build"),
    ("repro.x509.csr:CertificateRequest", "sign", "x509.csr.sign"),
    ("repro.ca.acme:AcmeServer", "new_order", "ca.acme.new_order"),
    ("repro.ca.acme:AcmeServer", "validate", "ca.acme.validate"),
    ("repro.ca.acme:AcmeServer", "finalize", "ca.acme.finalize"),
    ("repro.ca.authority:CertificationAuthority", "issue", "ca.authority.issue"),
    ("repro.ca.authority:CertificationAuthority", "_screen_nope_sans", "ca.authority.screen"),
    ("repro.ca.ct:CtLog", "submit", "ca.ct.submit"),
    ("repro.dns.zone:Zone", "sign", "dns.zone.sign"),
    # verify path
    ("repro.core.client:NopeClient", "verify_server", "core.client.verify_server"),
    ("repro.core.client:NopeClient", "verify_domains", "core.client.verify_domains"),
    ("repro.core.client", "extract_proof", "wire.extract_proof"),
    ("repro.wire.transport", "decode_envelope", "wire.decode"),
    ("repro.wire.registry:Groth16Codec", "decode", "wire.proof_decode"),
    ("repro.core.client", "validate_chain", "x509.validate_chain"),
    ("repro.ca.ocsp:OcspResponder", "status", "ca.ocsp.status"),
    ("repro.ca.ocsp:OcspResponder", "verify_response", "ca.ocsp.verify_response"),
    ("repro.core.backend", "verify", "groth16.verify"),
    ("repro.core.backend", "verify_batch", "groth16.verify_batch"),
    ("repro.pairing.ate", "multi_miller", "pairing.miller"),
    ("repro.groth16.verify", "multi_miller", "pairing.miller"),
    ("repro.pairing.ate", "final_exponentiation", "pairing.final_exp"),
    ("repro.groth16.verify", "final_exponentiation", "pairing.final_exp"),
    # client cache
    ("repro.core.client:VerificationCache", "lookup", "core.client.cache_lookup"),
)

LAYERS = tuple(dict.fromkeys(name for _, _, name in TARGETS))

#: layers reported for the set-up phase too (as ``setup.<layer>``)
SETUP_LAYERS = (
    "dns.build_hierarchy", "dns.zone.sign", "core.statement.synthesize",
    "engine.compile", "engine.prepare",
)

#: layers whose calls can fail; their failures are reported too
FALLIBLE = (
    "groth16.verify", "groth16.verify_batch", "wire.decode",
    "x509.validate_chain", "ca.ocsp.verify_response",
    "core.client.verify_server", "core.client.verify_domains",
)

#: the root span around each timed operation; its self time is the part
#: of an operation no traced layer accounts for
OP = "op"


def _owner(spec):
    module, _, cls = spec.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Calls, failures and self time per layer.

    Records go to the sink of the current phase: ``op`` while a timed
    operation runs (see :meth:`call`), ``setup`` while :meth:`phase`
    says so, and ``idle`` otherwise (bookkeeping between operations).
    """

    def __init__(self):
        self.sinks = {"idle": {}, "setup": {}, "op": {}}
        self.sink = self.sinks["idle"]
        self._stack = []
        self._saved = []
        self._op = self.wrap(OP, lambda fn: fn())

    @contextlib.contextmanager
    def phase(self, name):
        outer, self.sink = self.sink, self.sinks[name]
        try:
            yield
        finally:
            self.sink = outer

    def exclude(self, seconds):
        """Leave ``seconds`` (spent by the benchmark, not the program) out
        of the self time of the innermost call running now."""
        if self._stack:
            self._stack[-1] += seconds

    def wrap(self, name, fn):
        stack = self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                elapsed = perf() - t0
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stats = self.sink.get(name)
                if stats is None:
                    stats = self.sink[name] = [0, 0.0, 0]
                stats[0] += 1
                stats[1] += elapsed - nested
                stats[2] += failed

        return traced

    def install(self):
        for spec, attr, name in TARGETS:
            owner = _owner(spec)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                patched = classmethod(self.wrap(name, raw.__func__))
            elif isinstance(raw, staticmethod):
                patched = staticmethod(self.wrap(name, raw.__func__))
            else:
                patched = self.wrap(name, raw)
            setattr(owner, attr, patched)

    def uninstall(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def call(self, fn):
        """Run one timed operation under the root span."""
        with self.phase("op"):
            return self._op(fn)


class CounterDelta:
    """Sums the program's own metrics over chosen intervals (the timed
    operations), leaving out whatever runs between them."""

    def __init__(self):
        self.total = {}
        self._before = None

    def start(self):
        self._before = metrics.REGISTRY.snapshot()

    def stop(self):
        delta = metrics.REGISTRY.delta_since(self._before)
        for name, (kind, value) in delta.items():
            if kind == "counter":
                self.total[name] = self.total.get(name, 0) + value
            elif kind == "histogram":
                prev = self.total.setdefault(name, {"count": 0, "sum": 0})
                prev["count"] += value["count"]
                prev["sum"] += value["sum"]

    def count(self, name):
        value = self.total.get(name, 0)
        return value["count"] if isinstance(value, dict) else value

    def sum(self, name):
        value = self.total.get(name, 0)
        return value["sum"] if isinstance(value, dict) else value


def layer_metrics(sink, names=LAYERS, prefix=""):
    """``<layer>.calls`` / ``.busy_s`` (and ``.failed``) for each layer."""
    out = {}
    for name in names:
        calls, busy, failed = sink.get(name, (0, 0.0, 0))
        out[prefix + name + ".calls"] = (calls, "count")
        out[prefix + name + ".busy_s"] = (busy, "s")
        if name in FALLIBLE:
            out[prefix + name + ".failed"] = (failed, "count")
    return out
