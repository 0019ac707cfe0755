"""NOPE payload <-> Subject Alternative Name encoding (paper Appendix D).

The SAN payload is the 197-byte canonical proof envelope from
:mod:`repro.wire` (kind tag, body version, flags, statement digest, body,
nullifier).  It is base-37 encoded into hostname-safe characters
(alphabet a-z, 0-9, '-'), wrapped with a version character and a
position-weighted checksum character, zero-padded to a whole number of
50-character labels (350 characters in 7 labels), and attached under an
``n0pe.`` prefix::

    n0pe.<label>...<label>.<domain>

For long domains the labels are spread across multiple SANs whose
prefixes count up (``n0pe.``, ``n1pe.``, ...) to fix the order.

There is one payload version (``b``, version 1).  The paper's layout — a
raw 128-byte proof in 197 characters plus a metadata character — carried
no nullifier, so it is not decoded: a leading version character other
than ``b`` is rejected.

Decoding is strict: every label between the ``nXpe`` prefix and the
domain must be *exactly* 50 base-37 characters, and the total length must
match the layout.  A NOPE SAN belonging to a subdomain
(``n0pe.<...>.sub.example.com``) therefore can never be absorbed into a
decode for the parent (``example.com``) — its trailing ``sub`` label has
the wrong length — which also makes multi-domain certificates (one SAN
set per bound domain) unambiguous.
"""

from ..errors import EncodingError

ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789-"
BASE = len(ALPHABET)  # 37
_CHAR_INDEX = {c: i for i, c in enumerate(ALPHABET)}

LABEL_LEN = 50

#: maximum total SAN length (RFC 1035 name limit, presented form)
MAX_SAN_LENGTH = 253

#: the SAN payload version, carried as its first character
SAN_VERSION = 1
_VERSION_CHAR = ALPHABET[SAN_VERSION]


def chars_for_bytes(n):
    """Smallest k such that 37^k can hold any n-byte value."""
    k, cap, limit = 0, 1, 1 << (8 * n)
    while cap < limit:
        cap *= BASE
        k += 1
    return k


#: one proof envelope carrying a 128-byte body (repro.wire.envelope_size)
PAYLOAD_BYTES = 197
PAYLOAD_CHARS = chars_for_bytes(PAYLOAD_BYTES)  # 303
#: version + payload + padding + checksum fills whole labels, since strict
#: decoding counts labels and no trailing short label may exist
PADDING_CHARS = -(PAYLOAD_CHARS + 2) % LABEL_LEN  # 45
TOTAL_CHARS = PAYLOAD_CHARS + 2 + PADDING_CHARS  # 350: 7 labels


def _checksum(chars):
    """Position-weighted checksum: weight (i mod 36) + 1 is never zero mod
    37, so any transposition of unequal characters fewer than 36 positions
    apart changes the sum."""
    total = 0
    for i, c in enumerate(chars):
        total += ((i % 36) + 1) * _CHAR_INDEX[c]
    return ALPHABET[total % BASE]


def _prefix(index):
    return "n%dpe" % index


def _encode_base37(payload, num_chars):
    value = int.from_bytes(payload, "big")
    digits = []
    for _ in range(num_chars):
        value, rem = divmod(value, BASE)
        digits.append(ALPHABET[rem])
    if value:
        raise EncodingError("payload does not fit the base-37 budget")
    return "".join(reversed(digits))


def _decode_base37(chars, num_bytes):
    value = 0
    for c in chars:
        value = value * BASE + _CHAR_INDEX[c]
    if value.bit_length() > 8 * num_bytes:
        raise EncodingError("decoded payload out of range")
    return value.to_bytes(num_bytes, "big")


def encode_payload_chars(payload):
    """Wrap a binary payload in the SAN character layout."""
    if len(payload) != PAYLOAD_BYTES:
        raise EncodingError(
            "NOPE SAN payload must be %d bytes, got %d"
            % (PAYLOAD_BYTES, len(payload))
        )
    body = (
        _VERSION_CHAR
        + _encode_base37(payload, PAYLOAD_CHARS)
        + ALPHABET[0] * PADDING_CHARS
    )
    return body + _checksum(body)


def decode_payload_chars(chars):
    """Inverse of :func:`encode_payload_chars`; returns the payload bytes."""
    for c in chars:
        if c not in _CHAR_INDEX:
            raise EncodingError("invalid base-37 character %r" % c)
    if not chars:
        raise EncodingError("empty NOPE SAN payload")
    if chars[0] != _VERSION_CHAR:
        raise EncodingError("unsupported NOPE SAN version %r" % chars[0])
    if len(chars) != TOTAL_CHARS:
        raise EncodingError(
            "NOPE SAN payload must be %d characters, got %d"
            % (TOTAL_CHARS, len(chars))
        )
    body, check = chars[:-1], chars[-1]
    if _checksum(body) != check:
        raise EncodingError("NOPE SAN checksum mismatch")
    end = 1 + PAYLOAD_CHARS
    if any(c != ALPHABET[0] for c in chars[end:-1]):
        raise EncodingError("nonzero padding in NOPE SAN payload")
    return _decode_base37(chars[1:end], PAYLOAD_BYTES)


def _labels_to_sans(labels, domain):
    """Distribute fixed-width labels over as few SANs as lengths allow."""
    per_san = len(labels)
    while per_san >= 1:
        san_len = (
            len(_prefix(0)) + 1 + per_san * (LABEL_LEN + 1) + len(domain)
        )
        if san_len <= MAX_SAN_LENGTH:
            break
        per_san -= 1
    if per_san < 1:
        raise EncodingError("domain too long for NOPE SAN encoding")
    sans = []
    for i in range(0, len(labels), per_san):
        chunk = labels[i : i + per_san]
        sans.append(".".join([_prefix(len(sans))] + chunk + [domain]))
    return sans


def encode_payload_sans(payload, domain):
    """Encode a payload as one or more SAN hostnames for ``domain``."""
    domain = domain.rstrip(".")
    chars = encode_payload_chars(payload)
    labels = [
        chars[i : i + LABEL_LEN] for i in range(0, len(chars), LABEL_LEN)
    ]
    return _labels_to_sans(labels, domain)


def is_nope_san(name):
    label = name.split(".", 1)[0]
    return (
        len(label) == 4
        and label[0] == "n"
        and label[2:] == "pe"
        and label[1].isdigit()
    )


def _collect_payload_chars(san_names, domain):
    """Strictly gather the payload characters addressed to ``domain``.

    A SAN contributes only if it is exactly
    ``n<k>pe.<50-char base-37 label>...<domain>`` — every intermediate
    label must be exactly :data:`LABEL_LEN` base-37 characters, so NOPE
    SANs bound to a *subdomain* are skipped rather than absorbed.
    Returns ``(chars, names)``: the characters in fragment order and the
    SAN names they came from.
    """
    domain = domain.rstrip(".")
    suffix = "." + domain
    pieces = {}
    names = []
    for name in san_names:
        if not is_nope_san(name) or not name.endswith(suffix):
            continue
        parts = name[: -len(suffix)].split(".")
        labels = parts[1:]
        if not labels or any(
            len(label) != LABEL_LEN
            or any(c not in _CHAR_INDEX for c in label)
            for label in labels
        ):
            continue  # a NOPE SAN for some other (sub)domain
        order = int(parts[0][1])
        if order in pieces:
            raise EncodingError("duplicate NOPE SAN fragment %d" % order)
        pieces[order] = labels
        names.append(name)
    if not pieces:
        raise EncodingError("no NOPE SAN entries for %s" % domain)
    labels = []
    for order in range(len(pieces)):
        if order not in pieces:
            raise EncodingError("missing NOPE SAN fragment %d" % order)
        labels.extend(pieces[order])
    return "".join(labels), names
