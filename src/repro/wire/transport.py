"""Envelope <-> X.509 SAN transport.

The only sanctioned path between proof envelopes and certificate SANs.
Producers call :func:`envelope_to_sans`; consumers call
:func:`extract_proof`, which strictly decodes the one SAN payload version
(a proof envelope) and returns a :class:`WirePayload` view.  Every decoded
payload therefore carries an envelope and its nullifier.
"""

from ..errors import WireError
from ..x509.san import PAYLOAD_BYTES, decode_payload_chars, encode_payload_sans
from ..x509 import san as _san
from .envelope import ProofEnvelope, decode_envelope, encode_envelope, envelope_size

#: both registered kinds carry a 128-byte body, so the SAN layout's fixed
#: payload size must match envelope_size(128)
assert PAYLOAD_BYTES == envelope_size(128)


class WirePayload:
    """What a certificate's SAN set said about one domain's proof."""

    __slots__ = ("envelope", "consumed")

    def __init__(self, envelope, consumed):
        #: the decoded :class:`ProofEnvelope`
        self.envelope = envelope
        #: which SAN names this payload was assembled from
        self.consumed = consumed

    @property
    def body(self):
        """Raw proof body bytes (what the backend verifies)."""
        return self.envelope.body

    @property
    def managed(self):
        """The envelope's managed-statement flag."""
        return self.envelope.managed

    @property
    def nullifier(self):
        return self.envelope.nullifier


def envelope_to_sans(env, domain=None):
    """Encode an envelope into its SAN hostname set."""
    if not isinstance(env, ProofEnvelope):
        raise WireError("envelope_to_sans wants a ProofEnvelope")
    domain = (domain or env.domain).rstrip(".")
    if domain != env.domain:
        raise WireError(
            "envelope sealed for %s cannot be emitted under %s"
            % (env.domain, domain)
        )
    return encode_payload_sans(encode_envelope(env), domain)


def extract_proof(san_names, domain):
    """Decode the NOPE SAN set for ``domain`` into a :class:`WirePayload`.

    The payload is decoded as a strict envelope — which recomputes the
    nullifier over *this* domain, so an envelope lifted from another
    domain's certificate is rejected here with
    :class:`repro.errors.NullifierError`.  Any other SAN payload version
    is rejected with :class:`repro.errors.EncodingError`.
    """
    chars, consumed = _san._collect_payload_chars(san_names, domain)
    env = decode_envelope(decode_payload_chars(chars), domain)
    return WirePayload(env, consumed)
