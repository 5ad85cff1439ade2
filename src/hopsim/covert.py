"""Hop-synchronization payloads carried as reverse-DNS names.

The sender serializes the sync material (seed, prefix pool, dwell-model
id, epoch), prepends a chunk count and a CRC32, splits the blob into
40-byte chunks, and publishes each chunk as a PTR-style name: a
2-character base32 sequence index, the base32 of the chunk, and a
plausible domain tail. The receiver reverse-looks-up the anchor address
and reassembles in index order, so retrieval order never matters.

Plain PTR-style names keep the traffic shaped like ordinary reverse
lookups; no uncommon record types are involved. The payload carries a
checksum only — authentication and encryption are explicitly out of
scope here, so anyone who can query the anchor can read the material.
"""

from __future__ import annotations

import base64
import binascii
import struct
import zlib

from .addressing import Address, IPVersion, Prefix, PrefixPool, parse_reverse_pointer
from .errors import (
    IncompleteSet,
    IntegrityFailure,
    MalformedRecord,
    NameTooLong,
    PayloadTooLarge,
)
from .values import Frozen

MAX_PAYLOAD_BYTES = 4096
CHUNK_BYTES = 40
MAX_NAME_LENGTH = 253
MAX_LABEL_LENGTH = 63
DEFAULT_DOMAIN_TAIL = "example-cdn.net"

_B32_ALPHABET = "abcdefghijklmnopqrstuvwxyz234567"
_B32_INDEX = {c: i for i, c in enumerate(_B32_ALPHABET)}
_WIRE_VERSION = 1
_HEADER = struct.Struct(">HI")  # chunk count, crc32


class SyncPayload(Frozen):
    __slots__ = _fields = ("seed", "pool", "dwell_model_id", "epoch_ms")

    def __init__(self, seed: int, pool: PrefixPool, dwell_model_id: str, epoch_ms: float):
        if not 0 <= seed < (1 << 64):
            raise ValueError("seed must fit in 64 bits")
        if len(dwell_model_id.encode()) > 255:
            raise ValueError("dwell model id too long")
        super().__init__(seed, pool, dwell_model_id, epoch_ms)

    def to_bytes(self) -> bytes:
        model = self.dwell_model_id.encode()
        out = bytearray()
        out.append(_WIRE_VERSION)
        out += struct.pack(">Qd", self.seed, self.epoch_ms)
        out.append(len(model))
        out += model
        out.append(self.pool.version.value)
        out += struct.pack(">H", len(self.pool.prefixes))
        width_bytes = self.pool.version.width // 8
        for p in self.pool.prefixes:
            out.append(p.length)
            out += p.base.bits.to_bytes(width_bytes, "big")
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "SyncPayload":
        try:
            if data[0] != _WIRE_VERSION:
                raise MalformedRecord(f"unknown payload version {data[0]}")
            seed, epoch_ms = struct.unpack_from(">Qd", data, 1)
            pos = 17
            model_len = data[pos]
            pos += 1
            model = data[pos : pos + model_len].decode()
            if len(data[pos : pos + model_len]) != model_len:
                raise MalformedRecord("truncated model id")
            pos += model_len
            version = IPVersion(data[pos])
            pos += 1
            (count,) = struct.unpack_from(">H", data, pos)
            pos += 2
            width_bytes = version.width // 8
            prefixes = []
            for _ in range(count):
                length = data[pos]
                pos += 1
                raw = data[pos : pos + width_bytes]
                if len(raw) != width_bytes:
                    raise MalformedRecord("truncated prefix")
                pos += width_bytes
                prefixes.append(Prefix(Address(version, int.from_bytes(raw, "big")), length))
            if pos != len(data):
                raise MalformedRecord("trailing bytes after payload")
            return cls(seed, PrefixPool(tuple(prefixes)), model, epoch_ms)
        except MalformedRecord:
            raise
        except Exception as exc:
            raise MalformedRecord(f"unparseable payload body: {exc}") from exc


class PtrRecordSet(Frozen):
    __slots__ = _fields = ("anchor_ip", "names")


def _chunk_index_label(i: int) -> str:
    if not 0 <= i < 32 * 32:
        raise ValueError("chunk index out of range")
    return _B32_ALPHABET[i // 32] + _B32_ALPHABET[i % 32]


def _encode_name(index: int, chunk: bytes, domain_tail: str) -> str:
    body = base64.b32encode(chunk).decode().lower().rstrip("=")
    data = _chunk_index_label(index) + body
    labels = [data[i : i + MAX_LABEL_LENGTH] for i in range(0, len(data), MAX_LABEL_LENGTH)]
    name = ".".join(labels) + "." + domain_tail
    if len(name) > MAX_NAME_LENGTH:
        raise NameTooLong(f"{len(name)}-character record name, limit {MAX_NAME_LENGTH}")
    return name


def encode_payload(
    payload: SyncPayload, anchor_ip: Address, domain_tail: str = DEFAULT_DOMAIN_TAIL
) -> PtrRecordSet:
    """Encode; every emitted name is DNS-valid and decode() inverts exactly."""
    body = payload.to_bytes()
    if len(body) > MAX_PAYLOAD_BYTES:
        raise PayloadTooLarge(f"{len(body)} bytes serialized, limit {MAX_PAYLOAD_BYTES}")
    total = _HEADER.size + len(body)
    count = -(-total // CHUNK_BYTES)
    blob = _HEADER.pack(count, zlib.crc32(body) & 0xFFFFFFFF) + body
    names = tuple(
        _encode_name(i, blob[i * CHUNK_BYTES : (i + 1) * CHUNK_BYTES], domain_tail)
        for i in range(count)
    )
    return PtrRecordSet(anchor_ip, names)


def _valid_label(label: str) -> bool:
    if not 1 <= len(label) <= MAX_LABEL_LENGTH:
        return False
    if label[0] == "-" or label[-1] == "-":
        return False
    return all(c in "abcdefghijklmnopqrstuvwxyz0123456789-" for c in label)


def _decode_name(name: str, domain_tail: str) -> tuple[int, bytes]:
    if len(name) > MAX_NAME_LENGTH:
        raise MalformedRecord(f"name too long: {len(name)} chars")
    suffix = "." + domain_tail
    if not name.endswith(suffix):
        raise MalformedRecord(f"name lacks expected tail: {name}")
    labels = name[: -len(suffix)].split(".")
    if not labels or any(not _valid_label(l) for l in labels):
        raise MalformedRecord(f"invalid label in name: {name}")
    data = "".join(labels)
    if len(data) < 2:
        raise MalformedRecord(f"name too short to carry an index: {name}")
    hi, lo = data[0], data[1]
    if hi not in _B32_INDEX or lo not in _B32_INDEX:
        raise MalformedRecord(f"bad sequence index in name: {name}")
    index = _B32_INDEX[hi] * 32 + _B32_INDEX[lo]
    body = data[2:]
    pad = (8 - len(body) % 8) % 8
    try:
        chunk = base64.b32decode(body.upper() + "=" * pad)
    except (binascii.Error, ValueError) as exc:
        raise MalformedRecord(f"undecodable chunk in name: {name}") from exc
    # The stdlib decoder ignores unused trailing bits in the final
    # character; reject non-canonical encodings so a flip there cannot
    # slip through unnoticed.
    if base64.b32encode(chunk).decode().lower().rstrip("=") != body:
        raise MalformedRecord(f"non-canonical chunk encoding in name: {name}")
    return index, chunk


def decode_payload(records: PtrRecordSet, domain_tail: str = DEFAULT_DOMAIN_TAIL) -> SyncPayload:
    """Reassemble a record set in any order and verify its checksum."""
    if not records.names:
        raise IncompleteSet("record set is empty")
    chunks: dict[int, bytes] = {}
    for name in records.names:
        index, chunk = _decode_name(name, domain_tail)
        if index in chunks:
            raise MalformedRecord(f"duplicate chunk index {index}")
        chunks[index] = chunk
    if sorted(chunks) != list(range(len(chunks))):
        raise IncompleteSet(f"chunk indices {sorted(chunks)} are not contiguous")
    blob = b"".join(chunks[i] for i in range(len(chunks)))
    if len(blob) < _HEADER.size:
        raise MalformedRecord("blob shorter than header")
    count, crc = _HEADER.unpack_from(blob)
    if count > len(chunks):
        raise IncompleteSet(f"{len(chunks)} of {count} chunks present")
    if count < len(chunks):
        raise MalformedRecord(f"{len(chunks)} chunks but count says {count}")
    body = blob[_HEADER.size :]
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise IntegrityFailure("checksum mismatch")
    return SyncPayload.from_bytes(body)


class ReverseZone:
    """In-process reverse-DNS zone: the registrar/resolver pair."""

    def __init__(self):
        self._records: dict[Address, PtrRecordSet] = {}

    def register(self, records: PtrRecordSet) -> None:
        self._records[records.anchor_ip] = records

    def lookup(self, ip: Address) -> PtrRecordSet:
        found = self._records.get(ip)
        return found if found is not None else PtrRecordSet(ip, ())


def zone_lines(records: PtrRecordSet) -> list[str]:
    """Zone-file-style dump: ``<reversed-ip-name> PTR <name>`` per record."""
    rev = records.anchor_ip.reverse_pointer()
    return [f"{rev} PTR {name}" for name in records.names]


def parse_zone(text: str) -> PtrRecordSet:
    anchor: Address | None = None
    names: list[str] = []
    for i, ln in enumerate(text.splitlines(), 1):
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        parts = ln.split()
        if len(parts) != 3 or parts[1] != "PTR":
            raise MalformedRecord(f"line {i}: expected '<ptr-name> PTR <name>'")
        try:
            ip = parse_reverse_pointer(parts[0])
        except ValueError as exc:
            raise MalformedRecord(f"line {i}: {exc}") from exc
        if anchor is None:
            anchor = ip
        elif ip != anchor:
            raise MalformedRecord(f"line {i}: mixed anchor addresses in one set")
        names.append(parts[2])
    if anchor is None:
        raise MalformedRecord("zone text holds no records")
    return PtrRecordSet(anchor, tuple(names))
