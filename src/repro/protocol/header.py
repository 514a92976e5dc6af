"""The PMNet header: Type, SessionID, SeqNum, HashVal (Sec IV-A1).

The header is byte-exact: :meth:`PMNetHeader.pack` produces the 11-byte
wire encoding (1 + 2 + 4 + 4, big-endian) and :meth:`PMNetHeader.parse`
round-trips it.  ``HashVal`` is the CRC-32 the sender computes over the
first seven header bytes (Type/SessionID/SeqNum with the hash field
zeroed); the device uses it as the log index, and ACK/Retrans packets
carry the original request's HashVal verbatim so the device can find the
entry without recomputing anything.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.errors import HeaderError
from repro.protocol.crc import crc32
from repro.protocol.types import PacketType

#: struct layout: Type u8 | SessionID u16 | SeqNum u32 | HashVal u32.
_LAYOUT = struct.Struct(">BHII")

_new = object.__new__

#: Wire size of the PMNet header in bytes.
HEADER_BYTES = _LAYOUT.size

_MAX_SESSION = 0xFFFF
_MAX_SEQ = 0xFFFF_FFFF


@dataclass(frozen=True)
class PMNetHeader:
    """An immutable PMNet header."""

    packet_type: PacketType
    session_id: int
    seq_num: int
    hash_val: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.session_id <= _MAX_SESSION:
            raise HeaderError(f"SessionID out of range: {self.session_id}")
        if not 0 <= self.seq_num <= _MAX_SEQ:
            raise HeaderError(f"SeqNum out of range: {self.seq_num}")
        if not 0 <= self.hash_val <= _MAX_SEQ:
            raise HeaderError(f"HashVal out of range: {self.hash_val}")

    # ------------------------------------------------------------------
    def pack(self) -> bytes:
        """The 11-byte wire encoding."""
        return _LAYOUT.pack(int(self.packet_type), self.session_id,
                            self.seq_num, self.hash_val)

    @classmethod
    def parse(cls, data: bytes) -> "PMNetHeader":
        """Decode a header from its wire encoding."""
        if len(data) < HEADER_BYTES:
            raise HeaderError(
                f"header needs {HEADER_BYTES} bytes, got {len(data)}")
        type_value, session_id, seq_num, hash_val = _LAYOUT.unpack_from(data)
        try:
            packet_type = PacketType(type_value)
        except ValueError as error:
            raise HeaderError(f"unknown packet type {type_value}") from error
        return cls(packet_type, session_id, seq_num, hash_val)

    # ------------------------------------------------------------------
    def compute_hash(self) -> int:
        """CRC-32 over the header with the HashVal field zeroed."""
        unsealed = _LAYOUT.pack(int(self.packet_type), self.session_id,
                                self.seq_num, 0)
        return crc32(unsealed[:7])

    def sealed(self) -> "PMNetHeader":
        """A copy with HashVal filled in by the sender's stack.

        Built by copying the instance dict rather than through
        ``dataclasses.replace`` (which re-walks the field list and
        re-runs the range checks): the fields were validated when
        ``self`` was built, and one header is derived per packet.
        """
        header = _new(PMNetHeader)
        fields = header.__dict__
        fields.update(self.__dict__)
        fields["hash_val"] = self.compute_hash()
        return header

    def verify_hash(self) -> bool:
        """Whether the carried HashVal matches a recomputation.

        Only meaningful for request packets: ACKs and Retrans carry the
        *original request's* HashVal, which will not match their own
        header fields.
        """
        return self.hash_val == self.compute_hash()

    def with_type(self, packet_type: PacketType) -> "PMNetHeader":
        """The same header re-labelled (keeps SessionID/SeqNum/HashVal).

        Used to derive ACKs: a PMNet-ACK or server-ACK for a request is
        the request's header with only the Type changed, so it still
        carries the HashVal that indexes the log entry.
        """
        header = _new(PMNetHeader)  # a dict copy, as in :meth:`sealed`
        fields = header.__dict__
        fields.update(self.__dict__)
        fields["packet_type"] = packet_type
        return header


def make_request_header(packet_type: PacketType, session_id: int,
                        seq_num: int) -> PMNetHeader:
    """Build and seal a request header the way the client stack does.

    A CHAIN_UPDATE is sealed with the *UPDATE_REQ* HashVal: the hash is
    the one identity every party derives for (session, seq) — devices
    index their logs by it, ACKs echo it, and the server's gap
    retransmission recomputes it assuming UPDATE_REQ — so the chain
    label must not perturb it.
    """
    if packet_type is PacketType.CHAIN_UPDATE:
        plain = PMNetHeader(PacketType.UPDATE_REQ, session_id, seq_num)
        return PMNetHeader(packet_type, session_id, seq_num,
                           hash_val=plain.compute_hash())
    return PMNetHeader(packet_type, session_id, seq_num).sealed()
