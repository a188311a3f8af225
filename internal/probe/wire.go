// Package probe implements the paper's proposed active measurement as
// a real network tool: a UDP echo protocol carrying sequence numbers
// and timestamps, a server that acknowledges probe packets, and a
// client that paces a Nimbus-controlled probe stream, feeds the
// elasticity estimator from live acknowledgments, and reports whether
// the path's cross traffic contends for bandwidth.
//
// The wire format is a fixed 52-byte header (network byte order via
// encoding/binary) optionally followed by padding that brings data
// packets up to the configured probe size.
package probe

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Magic identifies probe packets.
const Magic uint32 = 0x4e494d42 // "NIMB"

// Version is the current wire version.
const Version uint8 = 1

// HeaderSize is the fixed header length in bytes.
const HeaderSize = 52

// MaxDatagram is the largest datagram the protocol can describe: the
// Size field is a uint16, so anything longer cannot be acknowledged
// without truncating the length. Servers reject longer reads as bad
// packets instead of wrapping the counter.
const MaxDatagram = 65535

// Packet types.
const (
	TypeData  uint8 = 1
	TypeAck   uint8 = 2
	TypeHello uint8 = 3
	TypeHi    uint8 = 4 // hello response
	TypeBye   uint8 = 5
	// TypeBusy is an explicit admission rejection: the server is at
	// capacity, rate-limiting the source, or draining for shutdown.
	// It lets a client distinguish "back off with jitter and retry
	// later" from packet loss, instead of burning its full
	// handshake-retry budget against a server that answered instantly.
	//
	// Every refused Hello gets a Busy; servers ignore FlagBusyAware. A
	// client that predates Busy drops the unknown type and retries as
	// it did on silence, so the wire Version stays 1.
	//
	// Field reuse in a Busy reply: Session/Seq echo the Hello,
	// EchoNano echoes the Hello's SendNano, RecvNano is the server's
	// receive timestamp, and Size carries the server's suggested
	// retry-after delay in milliseconds (0 = do not retry: the server
	// is draining). Flags carry the rejection cause bits below.
	TypeBusy uint8 = 6
)

// Header flag bits.
const (
	// FlagBusyAware on a Hello advertises that the client understands
	// TypeBusy replies. Servers ignore it and send Busy to every
	// refused Hello; Handshake still sets it, so a server that only
	// answered flagged Hellos with Busy answers this client too.
	FlagBusyAware uint8 = 1 << 0
	// FlagDraining on a Busy reply means the server is shutting down:
	// retrying this server is pointless, pick another node.
	FlagDraining uint8 = 1 << 1
	// FlagRateLimited on a Busy reply means the per-source-IP rate
	// limiter refused the packet: the client should back off harder
	// than for a capacity rejection.
	FlagRateLimited uint8 = 1 << 2
	// FlagAtCapacity on a Busy reply means the session table is full.
	FlagAtCapacity uint8 = 1 << 3
)

// Header is the probe packet header.
type Header struct {
	Type    uint8
	Flags   uint8
	Session uint64
	Seq     uint64
	// SendNano is the sender's monotonic send timestamp in nanoseconds
	// since its session start.
	SendNano int64
	// EchoNano echoes the acknowledged packet's SendNano (acks only).
	EchoNano int64
	// RecvNano is the acking peer's receive timestamp (acks only).
	RecvNano int64
	// Size is the wire size being described: for acks, the size of the
	// data packet being acknowledged.
	Size uint16
}

// Errors returned by Decode.
var (
	ErrShortPacket = errors.New("probe: packet shorter than header")
	ErrBadMagic    = errors.New("probe: bad magic")
	ErrBadVersion  = errors.New("probe: unsupported version")
)

// Encode writes the header into buf, which must be at least HeaderSize
// bytes, and returns the bytes written.
func (h *Header) Encode(buf []byte) (int, error) {
	if len(buf) < HeaderSize {
		return 0, fmt.Errorf("probe: encode buffer too small: %d < %d", len(buf), HeaderSize)
	}
	binary.BigEndian.PutUint32(buf[0:4], Magic)
	buf[4] = Version
	buf[5] = h.Type
	buf[6] = h.Flags
	buf[7] = 0
	binary.BigEndian.PutUint64(buf[8:16], h.Session)
	binary.BigEndian.PutUint64(buf[16:24], h.Seq)
	binary.BigEndian.PutUint64(buf[24:32], uint64(h.SendNano))
	binary.BigEndian.PutUint64(buf[32:40], uint64(h.EchoNano))
	binary.BigEndian.PutUint64(buf[40:48], uint64(h.RecvNano))
	binary.BigEndian.PutUint16(buf[48:50], h.Size)
	binary.BigEndian.PutUint16(buf[50:52], 0)
	return HeaderSize, nil
}

// Decode parses a header from buf.
func Decode(buf []byte) (Header, error) {
	var h Header
	if len(buf) < HeaderSize {
		return h, ErrShortPacket
	}
	if binary.BigEndian.Uint32(buf[0:4]) != Magic {
		return h, ErrBadMagic
	}
	if buf[4] != Version {
		return h, ErrBadVersion
	}
	h.Type = buf[5]
	h.Flags = buf[6]
	h.Session = binary.BigEndian.Uint64(buf[8:16])
	h.Seq = binary.BigEndian.Uint64(buf[16:24])
	h.SendNano = int64(binary.BigEndian.Uint64(buf[24:32]))
	h.EchoNano = int64(binary.BigEndian.Uint64(buf[32:40]))
	h.RecvNano = int64(binary.BigEndian.Uint64(buf[40:48]))
	h.Size = binary.BigEndian.Uint16(buf[48:50])
	return h, nil
}
