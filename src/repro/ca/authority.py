"""The certification authority: issuance, CT logging, revocation.

Models the parts of a Let's Encrypt-like CA that NOPE interacts with
(Figure 2 steps 5-7): signing subscriber certificates beneath an
intermediate, submitting precertificates to CT logs and embedding the
returned SCTs, and operating OCSP/CRL revocation.

Attacker knobs (§3.1 CA attacker): ``compromised`` enables signing
arbitrary certificates without domain validation — including *backdated*
ones (the attack the N/TS binding plus SCT-consistency check defeats), and
``suppress_revocations`` models a CA refusing to revoke.

An honest CA additionally screens NOPE SAN sets at issuance: every
envelope must decode strictly for the domain it rides under, and its
nullifier must not have appeared in a previously issued certificate —
cutting proof-replay off at the CA before a client ever sees it.  A
compromised CA skips the screen (the Figure 3 attack rows rely on rogue
certificates going out unfiltered).
"""

from ..clock import DAY
from ..errors import EncodingError, ProtocolError, RevocationError
from ..sig.ecdsa import EcdsaPrivateKey
from ..wire import extract_proof
from ..x509.san import is_nope_san
from ..x509.cert import (
    Certificate,
    Name,
    SubjectPublicKeyInfo,
    aia_ocsp_extension,
    basic_constraints_extension,
    ct_poison_extension,
    key_usage_extension,
    san_extension,
    sct_list_extension,
)
from .crl import CrlDistributor
from .ocsp import OcspResponder

DEFAULT_LIFETIME = 90 * DAY


class CertificationAuthority:
    """A two-tier CA (root + intermediate) with CT and revocation."""

    def __init__(self, org_name, clock, ct_logs, signing_curve, min_scts=2):
        self.org_name = org_name
        self.clock = clock
        self.ct_logs = list(ct_logs)
        self.min_scts = min_scts
        self.compromised = False
        now = clock.now()
        ten_years = now + 10 * 365 * DAY
        self.root_key = EcdsaPrivateKey.generate(signing_curve)
        root_name = Name.build(
            common_name="%s Root" % org_name, organization=org_name, country="XX"
        )
        self.root_cert = Certificate(
            serial=Certificate.new_serial(),
            issuer=root_name,
            subject=root_name,
            spki=SubjectPublicKeyInfo(self.root_key.public_key),
            not_before=now - DAY,
            not_after=ten_years,
            extensions=[basic_constraints_extension(True), key_usage_extension()],
        ).sign(self.root_key)
        self.intermediate_key = EcdsaPrivateKey.generate(signing_curve)
        inter_name = Name.build(
            common_name="%s Intermediate" % org_name,
            organization=org_name,
            country="XX",
        )
        self.intermediate_cert = Certificate(
            serial=Certificate.new_serial(),
            issuer=root_name,
            subject=inter_name,
            spki=SubjectPublicKeyInfo(self.intermediate_key.public_key),
            not_before=now - DAY,
            not_after=ten_years,
            extensions=[basic_constraints_extension(True), key_usage_extension()],
        ).sign(self.root_key)
        self.ocsp = OcspResponder(self.intermediate_key, clock)
        self.crl = CrlDistributor(clock)
        self.issued = {}  # serial -> Certificate
        #: envelope nullifier -> serial of the certificate it rode in;
        #: honest issuance refuses a nullifier it has already embedded
        self.seen_nullifiers = {}

    # -- issuance -------------------------------------------------------------

    def _build_tbs(self, subject_cn, spki, sans, not_before, lifetime, extra):
        return Certificate(
            serial=Certificate.new_serial(),
            issuer=self.intermediate_cert.subject,
            subject=Name.build(common_name=subject_cn),
            spki=spki,
            not_before=not_before,
            not_after=not_before + lifetime,
            extensions=[
                key_usage_extension(),
                basic_constraints_extension(False),
                aia_ocsp_extension("http://ocsp.%s.test" % self.org_name.lower().replace(" ", "-")),
                san_extension(sans),
            ]
            + list(extra),
        )

    def _screen_nope_sans(self, sans):
        """Honest-CA strict screen over a request's NOPE SAN set.

        Every NOPE SAN must belong to a complete, strictly-decodable
        payload for one of the requested domains, and no envelope
        nullifier may repeat across this CA's issuance history.  Returns
        the nullifiers about to be embedded.
        """
        nope = [s for s in sans if is_nope_san(s)]
        if not nope:
            return []
        consumed = set()
        nullifiers = []
        for domain in (s for s in sans if not is_nope_san(s)):
            try:
                payload = extract_proof(sans, domain)
            except EncodingError:
                continue  # no (valid) payload for this domain; any
                # fragments it owns stay unconsumed and fail below
            consumed.update(payload.consumed)
            nullifiers.append(payload.nullifier)
        orphaned = [s for s in nope if s not in consumed]
        if orphaned:
            raise ProtocolError(
                "NOPE SAN fragments decode for no requested domain "
                "(first: %s)" % orphaned[0]
            )
        for nullifier in nullifiers:
            prior = self.seen_nullifiers.get(nullifier)
            if prior is not None:
                raise ProtocolError(
                    "proof envelope already embedded in certificate "
                    "serial %d (nullifier reuse)" % prior
                )
        return nullifiers

    def issue(self, subject_cn, spki, sans, not_before=None, lifetime=DEFAULT_LIFETIME):
        """Issue a certificate: precert -> CT logs -> SCTs -> final cert.

        Returns the chain [leaf, intermediate].  An honest CA stamps
        ``not_before`` with the current time and screens the NOPE SAN set
        (strict decode + nullifier anti-reuse); only a compromised CA may
        backdate or skip the screen.
        """
        if not_before is None:
            not_before = self.clock.now()
        elif not self.compromised:
            raise ProtocolError("honest CAs do not backdate certificates")
        nullifiers = [] if self.compromised else self._screen_nope_sans(sans)
        precert = self._build_tbs(
            subject_cn, spki, sans, not_before, lifetime, [ct_poison_extension()]
        ).sign(self.intermediate_key)
        pre_der = precert.to_der()
        scts = [log.submit(pre_der) for log in self.ct_logs[: self.min_scts]]
        leaf = self._build_tbs(
            subject_cn,
            spki,
            sans,
            not_before,
            lifetime,
            [sct_list_extension([s.to_bytes() for s in scts])],
        )
        leaf.serial = precert.serial
        leaf.sign(self.intermediate_key)
        self.issued[leaf.serial] = leaf
        for nullifier in nullifiers:
            self.seen_nullifiers[nullifier] = leaf.serial
        return [leaf, self.intermediate_cert]

    def issue_rogue(self, subject_cn, spki, sans, not_before=None):
        """CA-attacker path: issue without any validation (maybe backdated)."""
        if not self.compromised:
            raise ProtocolError("CA is not compromised")
        return self.issue(subject_cn, spki, sans, not_before=not_before)

    # -- revocation ----------------------------------------------------------------

    def revoke(self, serial, requester_is_owner=True):
        """Revoke via OCSP and CRL.

        A compromised CA (or one whose revocation infrastructure the
        attacker controls) can refuse (§3.3: "that CA can refuse to issue
        revocation statements").
        """
        if self.compromised and not requester_is_owner:
            raise RevocationError("compromised CA ignores the request")
        if self.ocsp.suppress_revocations:
            raise RevocationError("CA refuses to revoke")
        if serial not in self.issued:
            raise RevocationError("unknown serial")
        self.ocsp.revoke(serial)
        self.crl.revoke(serial)

    def trust_anchors(self):
        return [self.root_cert]
