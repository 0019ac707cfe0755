"""X.509: DER, certificates, CSRs, chain validation, NOPE SAN encoding."""

from . import oid
from .asn1 import AsnNode, DerReader, parse_tree, read_tlv
from .cert import (
    CERT_SIG_ALGS,
    Certificate,
    Extension,
    Name,
    SubjectPublicKeyInfo,
    aia_ocsp_extension,
    basic_constraints_extension,
    ct_poison_extension,
    key_usage_extension,
    parse_aia_ocsp,
    parse_basic_constraints,
    parse_san,
    parse_sct_list,
    san_extension,
    sct_list_extension,
    sig_alg_for_key,
)
from .csr import CertificateRequest
from .san import (
    LABEL_LEN,
    PAYLOAD_BYTES,
    chars_for_bytes,
    encode_payload_sans,
    is_nope_san,
)
from .validate import chain_wire_size, hostname_matches, validate_chain

__all__ = [
    "oid",
    "Certificate",
    "CertificateRequest",
    "Extension",
    "Name",
    "SubjectPublicKeyInfo",
    "CERT_SIG_ALGS",
    "sig_alg_for_key",
    "san_extension",
    "parse_san",
    "basic_constraints_extension",
    "parse_basic_constraints",
    "key_usage_extension",
    "aia_ocsp_extension",
    "parse_aia_ocsp",
    "sct_list_extension",
    "parse_sct_list",
    "ct_poison_extension",
    "encode_payload_sans",
    "chars_for_bytes",
    "is_nope_san",
    "PAYLOAD_BYTES",
    "LABEL_LEN",
    "validate_chain",
    "hostname_matches",
    "chain_wire_size",
    "DerReader",
    "read_tlv",
    "parse_tree",
    "AsnNode",
]
