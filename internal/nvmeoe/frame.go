// Package nvmeoe implements RSSD's hardware-isolated NVMe over Ethernet
// transport.
//
// On the real device this is a dedicated engine (MAC, DMA, Tx/Rx buffers in
// Figure 1 of the paper) that moves retained pages and operation logs from
// the SSD controller to remote storage without host involvement: the host
// cannot observe, block, or forge the traffic because it never touches host
// memory. Here the engine is modeled as a message layer over any net.Conn
// (net.Pipe in tests, TCP in the examples) with the properties that matter
// for the threat model implemented cryptographically:
//
//   - confidentiality and integrity in one pass: every frame is sealed
//     with AES-256-GCM under a per-session, per-direction key derived from
//     a pre-shared device key; there is no separate MAC key or MAC pass,
//   - header authentication: the 20-byte frame header (magic, version,
//     type, flags, sequence, length) is the AEAD's additional data, so a
//     flipped header byte fails the 16-byte tag like a flipped ciphertext
//     byte does,
//   - replay and reorder protection: the 12-byte nonce is the frame
//     sequence number (8 bytes little-endian) followed by a constant
//     domain tag, and sequence numbers are enforced strictly in order
//     after the tag verifies,
//   - efficiency: payloads are DEFLATE-compressed when that helps, which is
//     also how the paper stretches retention capacity in Figure 2.
package nvmeoe

import (
	"bufio"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"

	"repro/internal/bufpool"
)

// MsgType identifies the meaning of a frame's payload.
type MsgType uint8

const (
	MsgHello MsgType = iota + 1
	MsgHelloAck
	MsgSegment    // device -> server: oplog.Segment (push of logs + retained pages)
	MsgSegmentAck // server -> device: durable up to sequence N
	MsgCheckpoint // device -> server: mapping snapshot
	MsgCheckpointAck
	MsgFetch     // device -> server: retrieval request (recovery/forensics)
	MsgFetchResp // server -> device
	MsgError
	MsgFetchChunk    // server -> device: one codec-framed chunk of a streamed fetch
	MsgFetchEnd      // server -> device: stream trailer (StreamEnd)
	MsgFetchChunkRef // server -> device: codec-framed hash-reference chunk (RefChunk)
)

func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgHelloAck:
		return "hello-ack"
	case MsgSegment:
		return "segment"
	case MsgSegmentAck:
		return "segment-ack"
	case MsgCheckpoint:
		return "checkpoint"
	case MsgCheckpointAck:
		return "checkpoint-ack"
	case MsgFetch:
		return "fetch"
	case MsgFetchResp:
		return "fetch-resp"
	case MsgError:
		return "error"
	case MsgFetchChunk:
		return "fetch-chunk"
	case MsgFetchEnd:
		return "fetch-end"
	case MsgFetchChunkRef:
		return "fetch-chunk-ref"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

const (
	frameMagic   = 0x4E4F4553 // "NOES": NVMe-oE Secure
	protoVersion = 2          // AES-256-GCM frames; any other version is rejected
	tagSize      = 16         // GCM authentication tag
	// MaxPayload bounds a single frame; segments above this are split by
	// the offload policy before they reach the transport.
	MaxPayload = 64 << 20

	flagCompressed = 1 << 0
)

// Transport-level errors.
var (
	ErrBadFrame   = errors.New("nvmeoe: malformed frame")
	ErrBadMAC     = errors.New("nvmeoe: MAC verification failed")
	ErrReplay     = errors.New("nvmeoe: frame sequence violation (replay or drop)")
	ErrTooLarge   = errors.New("nvmeoe: payload exceeds MaxPayload")
	ErrBadVersion = errors.New("nvmeoe: protocol version mismatch")
)

// header layout: magic(4) ver(1) type(1) flags(2) seq(8) clen(4) = 20 bytes,
// followed by clen ciphertext bytes and the tag.
const headerSize = 20

// direction labels for key derivation.
const (
	dirDeviceToServer = "rssd-c2s"
	dirServerToDevice = "rssd-s2c"
)

// deriveKey produces a 32-byte key from the pre-shared key, the session
// nonces, and a label, using HMAC-SHA-256 as the PRF (an HKDF-expand with
// a single block, which suffices for fixed-size session keys).
func deriveKey(psk, nonceC, nonceS []byte, label string) []byte {
	mac := hmac.New(sha256.New, psk)
	mac.Write(nonceC)
	mac.Write(nonceS)
	mac.Write([]byte(label))
	return mac.Sum(nil)
}

// halfConn is one direction's AEAD state plus the per-frame scratch the
// cipher calls take as slices. Keeping the header, nonce and tag here
// rather than on the stack keeps WriteMsg and ReadMsg allocation-free:
// slices handed to an interface method (the AEAD, the net.Conn) escape.
type halfConn struct {
	aead  cipher.AEAD
	seq   uint64
	hdr   [headerSize]byte
	nonce [12]byte
	tag   [tagSize]byte
}

// newHalfConn builds one direction's AES-256-GCM state from its key.
func newHalfConn(key []byte) (halfConn, error) {
	blk, err := aes.NewCipher(key)
	if err != nil {
		return halfConn{}, err
	}
	aead, err := cipher.NewGCM(blk)
	if err != nil {
		return halfConn{}, err
	}
	return halfConn{aead: aead}, nil
}

// setNonce fills the nonce for seq: the sequence number, then the frame
// magic as a constant domain tag. Keys are per direction and per session,
// so (key, nonce) never repeats while seq does not wrap.
func (h *halfConn) setNonce(seq uint64) []byte {
	binary.LittleEndian.PutUint64(h.nonce[0:], seq)
	binary.LittleEndian.PutUint32(h.nonce[8:], frameMagic)
	return h.nonce[:]
}

// Conn is an established, authenticated NVMe-oE session over an underlying
// net.Conn. It is not safe for concurrent writers; the offload engine
// serializes its traffic, as the hardware's single Tx queue does.
type Conn struct {
	nc  net.Conn
	br  *bufio.Reader
	out halfConn
	in  halfConn
}

// WriteMsg compresses (when profitable), seals, and sends one message as
// three writes: header, ciphertext, tag. Compression scratch and the
// sealed frame ride pooled buffers; nothing written here outlives the
// call.
func (c *Conn) WriteMsg(t MsgType, payload []byte) error {
	if len(payload) > MaxPayload {
		return ErrTooLarge
	}
	flags := uint16(0)
	body := payload
	var comp *bufpool.Buf
	// Codec-framed segment blobs arrive already compressed (the offload
	// engine encodes them at seal time); re-deflating them only burns CPU.
	if len(payload) > 128 && !IsSegmentBlob(payload) {
		comp = bufpool.Get(len(payload))
		if compressed, ok := AppendDeflate(comp.B, payload); ok {
			body = compressed
			flags |= flagCompressed
		} else {
			comp.Release()
			comp = nil
		}
	}
	o := &c.out
	hdr := o.hdr[:]
	binary.LittleEndian.PutUint32(hdr[0:], frameMagic)
	hdr[4] = protoVersion
	hdr[5] = byte(t)
	binary.LittleEndian.PutUint16(hdr[6:], flags)
	binary.LittleEndian.PutUint64(hdr[8:], o.seq)
	binary.LittleEndian.PutUint32(hdr[16:], uint32(len(body)))

	frame := bufpool.Get(len(body) + tagSize)
	sealed := o.aead.Seal(frame.B, o.setNonce(o.seq), body, hdr)
	comp.Release() // body sealed into frame; the scratch can go back
	o.seq++
	// The tag leaves through the struct, so the pooled frame goes back
	// before the last write: a peer that finishes reading the frame never
	// observes this writer still holding a rental.
	ct := sealed[:len(body)]
	copy(o.tag[:], sealed[len(body):])
	if _, err := c.nc.Write(hdr); err != nil {
		frame.Release()
		return err
	}
	_, err := c.nc.Write(ct)
	frame.Release()
	if err != nil {
		return err
	}
	_, err = c.nc.Write(o.tag[:])
	return err
}

// ReadMsg receives, authenticates, decrypts, and decompresses one message.
// The returned payload is freshly owned by the caller; compressed frames
// open through a pooled intermediate that never escapes.
func (c *Conn) ReadMsg() (MsgType, []byte, error) {
	in := &c.in
	hdr := in.hdr[:]
	if _, err := io.ReadFull(c.br, hdr); err != nil {
		return 0, nil, err
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != frameMagic {
		return 0, nil, ErrBadFrame
	}
	if hdr[4] != protoVersion {
		return 0, nil, ErrBadVersion
	}
	t := MsgType(hdr[5])
	flags := binary.LittleEndian.Uint16(hdr[6:])
	seq := binary.LittleEndian.Uint64(hdr[8:])
	clen := binary.LittleEndian.Uint32(hdr[16:])
	if clen > MaxPayload {
		return 0, nil, ErrTooLarge
	}
	// A compressed frame's ciphertext is scratch (the inflated payload is
	// what escapes); an uncompressed frame opens in place and becomes the
	// payload, so it must be a plain allocation.
	n := int(clen) + tagSize
	var ct []byte
	var ctBuf *bufpool.Buf
	if flags&flagCompressed != 0 {
		ctBuf = bufpool.Get(n)
		ct = ctBuf.B[:n]
	} else {
		ct = make([]byte, n)
	}
	if _, err := io.ReadFull(c.br, ct); err != nil {
		ctBuf.Release()
		return 0, nil, err
	}
	// Authenticate first, under the header's own seq: a forged or
	// corrupted frame is ErrBadMAC, and only an authentic frame out of
	// order is ErrReplay (the transport is reliable, so any deviation is
	// an attack or a bug, not loss).
	pt, err := in.aead.Open(ct[:0], in.setNonce(seq), ct, hdr)
	if err != nil {
		ctBuf.Release()
		return 0, nil, ErrBadMAC
	}
	if seq != in.seq {
		ctBuf.Release()
		return 0, nil, fmt.Errorf("%w: got seq %d, want %d", ErrReplay, seq, in.seq)
	}
	in.seq++
	if flags&flagCompressed != 0 {
		out, err := Inflate(pt)
		ctBuf.Release()
		if err != nil {
			return 0, nil, fmt.Errorf("%w: %v", ErrBadFrame, err)
		}
		return t, out, nil
	}
	return t, pt, nil
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.nc.Close() }
