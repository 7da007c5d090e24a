"""The ``crypto`` library: hashing, digests, signatures.

The paper lists a crypto library with "cryptographic functions for data
encryption and decryption, secure hashing, signatures, etc.".  Applications
in this reproduction use it for key hashing (DHTs), content digests
(BitTorrent piece verification) and log integrity tags.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
from typing import Union

Bytes = Union[bytes, str]


def _as_bytes(data: Bytes) -> bytes:
    return data.encode("utf-8") if isinstance(data, str) else data


def sha1(data: Bytes) -> str:
    """Hex SHA-1 digest (used for DHT keys and BitTorrent piece hashes)."""
    return hashlib.sha1(_as_bytes(data)).hexdigest()


def sha256(data: Bytes) -> str:
    """Hex SHA-256 digest."""
    return hashlib.sha256(_as_bytes(data)).hexdigest()


def hmac_sha1(key: Bytes, data: Bytes) -> str:
    """Hex HMAC-SHA1 tag (used for daemon/controller authentication keys)."""
    return _hmac.new(_as_bytes(key), _as_bytes(data), hashlib.sha1).hexdigest()


def checksum(data: Bytes) -> int:
    """A fast 32-bit checksum for block integrity checks in dissemination apps."""
    digest = hashlib.sha1(_as_bytes(data)).digest()
    return int.from_bytes(digest[:4], "big")
