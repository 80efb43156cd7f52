package nvmeoe

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/bufpool"
)

// This file is the one compression entry point in the tree: the frame
// layer, the segment-blob wire format, and the retention-capacity models
// all compress through it. The DEFLATE work itself is bufpool's in-house
// codec, whose streams are byte-identical to compress/flate at BestSpeed.
//
// Segment blobs — the unit the offload engine ships and the remote store
// persists — carry their own codec header, so the same encoded bytes travel
// the NVMe-oE wire and land in the object store unchanged: compressed on
// the wire IS compressed at rest, and the server never re-compresses. The
// header also versions the encoding: blobs written before this format (a
// bare oplog segment marshal) carry no header and decode as CodecNone.

// Codec identifies how a segment blob's payload is encoded.
type Codec uint8

// Segment-blob codecs.
const (
	// CodecNone stores the segment marshal verbatim. Written by encoders
	// that predate CodecStored; still decoded, no longer produced.
	CodecNone Codec = 0
	// CodecDeflate stores the segment marshal DEFLATE-compressed.
	CodecDeflate Codec = 1
	// CodecStored stores the segment marshal verbatim: the stored-block
	// fast path for barely-compressible pages. The encoder picks it when
	// deflate saves less than 1/16th of the raw size — at that ratio the
	// wire win cannot pay for inflating on every ingest, restore, and
	// recovery read, so decode becomes a pure copy instead.
	CodecStored Codec = 2
)

func (c Codec) String() string {
	switch c {
	case CodecNone:
		return "none"
	case CodecDeflate:
		return "deflate"
	case CodecStored:
		return "stored"
	default:
		return fmt.Sprintf("Codec(%d)", uint8(c))
	}
}

// maxDeflateRatio bounds DEFLATE expansion: a match yields at most 258
// bytes for at least two bits of code, so no stream decodes to more than
// 1032 times its own size.
const maxDeflateRatio = 1032

// storedSavingShift sets the deflate-versus-stored break-even: compression
// must save at least raw>>storedSavingShift (1/16th) or the blob is stored.
const storedSavingShift = 4

// blob header layout: magic(4) codec(1) rawLen(4) = 9 bytes.
const (
	blobMagic      = 0x43535352 // "RSSC": RSSD Segment Codec
	blobHeaderSize = 9
)

// ErrBadBlob reports a segment blob whose codec framing does not decode.
var ErrBadBlob = errors.New("nvmeoe: malformed segment blob")

// BlobOverhead is the codec frame's fixed cost; AppendSegmentBlob never
// appends more than BlobOverhead+len(raw) bytes, so callers can size a
// pooled destination exactly.
const BlobOverhead = blobHeaderSize

// EncodeSegmentBlob wraps a marshaled segment in the codec frame,
// compressing when that shrinks it. The result is what goes on the wire
// and into the object store.
func EncodeSegmentBlob(raw []byte) []byte {
	return AppendSegmentBlob(make([]byte, 0, blobHeaderSize+len(raw)), raw)
}

// AppendSegmentBlob is EncodeSegmentBlob into a caller-provided buffer: it
// appends the codec-framed blob to dst and returns the extended slice. This
// is the encode hot loop's entry point — with a pooled dst of capacity
// BlobOverhead+len(raw) it allocates nothing.
func AppendSegmentBlob(dst, raw []byte) []byte {
	base := len(dst)
	var hdr [blobHeaderSize]byte
	dst = append(dst, hdr[:]...)
	codec := CodecDeflate
	out, ok := AppendDeflate(dst, raw)
	if !ok || len(raw)-(len(out)-len(dst)) < len(raw)>>storedSavingShift {
		// Deflate failed to shrink, or shrank by less than 1/16th: take the
		// stored fast path so every downstream decode is a straight copy.
		codec = CodecStored
		out = append(dst, raw...)
	}
	binary.LittleEndian.PutUint32(out[base:], blobMagic)
	out[base+4] = byte(codec)
	binary.LittleEndian.PutUint32(out[base+5:], uint32(len(raw)))
	return out
}

// DecodeSegmentBlob returns the marshaled segment inside blob, inflating
// when the codec header says so. Blobs without a codec header — segments
// persisted before the compressed wire format — are returned verbatim, so
// old stores keep reloading. The CodecNone and legacy paths alias blob
// rather than copying; use AppendDecodeSegmentBlob when the result must
// land in a caller-owned (pooled) buffer.
func DecodeSegmentBlob(blob []byte) ([]byte, error) {
	if !IsSegmentBlob(blob) {
		return blob, nil
	}
	if c := Codec(blob[4]); c == CodecNone || c == CodecStored {
		body := blob[blobHeaderSize:]
		if rawLen := binary.LittleEndian.Uint32(blob[5:]); uint32(len(body)) != rawLen {
			return nil, fmt.Errorf("%w: raw length %d, header says %d", ErrBadBlob, len(body), rawLen)
		}
		return body, nil
	}
	return AppendDecodeSegmentBlob(nil, blob)
}

// AppendDecodeSegmentBlob is DecodeSegmentBlob into a caller-provided
// buffer: the decoded marshal is appended to dst (always copied, even on
// the passthrough paths, so the result never aliases blob). The ingest hot
// loop decodes through it with a pooled dst sized by
// SegmentBlobLogicalSize; with sufficient capacity it allocates nothing.
func AppendDecodeSegmentBlob(dst, blob []byte) ([]byte, error) {
	if !IsSegmentBlob(blob) {
		return append(dst, blob...), nil
	}
	codec := Codec(blob[4])
	rawLen := binary.LittleEndian.Uint32(blob[5:])
	body := blob[blobHeaderSize:]
	switch codec {
	case CodecNone, CodecStored:
		if uint32(len(body)) != rawLen {
			return nil, fmt.Errorf("%w: raw length %d, header says %d", ErrBadBlob, len(body), rawLen)
		}
		return append(dst, body...), nil
	case CodecDeflate:
		// A flipped bit in the header can claim any 32-bit logical size; no
		// honest encoder exceeds the frame bound, so reject before decoding
		// and cap the inflate at the claimed size — corruption can neither
		// trigger a giant allocation nor balloon output past its own claim.
		if rawLen > MaxPayload {
			return nil, fmt.Errorf("%w: claimed logical size %d exceeds %d", ErrBadBlob, rawLen, MaxPayload)
		}
		// Presize to the claimed size so the inflater writes in place; a
		// DEFLATE stream cannot expand past maxDeflateRatio, so a lying
		// header cannot size more than its body could ever produce.
		dst = slices.Grow(dst, min(int(rawLen), maxDeflateRatio*len(body)))
		base := len(dst)
		out, err := AppendInflateLimited(dst, body, int(rawLen))
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadBlob, err)
		}
		if uint32(len(out)-base) != rawLen {
			return nil, fmt.Errorf("%w: inflated to %d, header says %d", ErrBadBlob, len(out)-base, rawLen)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("%w: unknown codec %d", ErrBadBlob, codec)
	}
}

// SegmentBlobLogicalSize returns the decoded (logical) size of a segment
// blob without inflating it: the codec header records it, and a legacy
// blob is its own decoding.
func SegmentBlobLogicalSize(blob []byte) int {
	if !IsSegmentBlob(blob) {
		return len(blob)
	}
	n := int(binary.LittleEndian.Uint32(blob[5:]))
	if n > MaxPayload {
		// No honest encoder claims past the frame bound; decode is going to
		// reject this blob, so don't let a flipped header bit size a giant
		// buffer for it.
		return 0
	}
	return n
}

// IsSegmentBlob reports whether b carries the codec frame header. The
// check is unambiguous against legacy blobs: a bare segment marshal starts
// with the oplog segment magic, not blobMagic.
func IsSegmentBlob(b []byte) bool {
	return len(b) >= blobHeaderSize && binary.LittleEndian.Uint32(b) == blobMagic
}

// Deflate compresses p, reporting false when compression does not shrink it.
func Deflate(p []byte) ([]byte, bool) {
	out, ok := AppendDeflate(nil, p)
	if !ok {
		return nil, false
	}
	return out, true
}

// AppendDeflate appends the DEFLATE compression of p to dst, reporting
// false — with dst returned unchanged — when compression does not shrink p.
// The compressor itself is pooled (its tables are hundreds of KB); with
// sufficient dst capacity the call allocates nothing.
func AppendDeflate(dst, p []byte) ([]byte, bool) {
	d := bufpool.GetDeflater()
	out := d.Append(dst, p)
	d.Release()
	if len(out)-len(dst) >= len(p) {
		return dst, false
	}
	return out, true
}

// Inflate decompresses a Deflate result.
func Inflate(p []byte) ([]byte, error) {
	return AppendInflate(nil, p)
}

// AppendInflate appends the decompression of the DEFLATE stream p to dst.
// The decompressor is pooled; with sufficient dst capacity the call
// allocates nothing.
func AppendInflate(dst, p []byte) ([]byte, error) {
	i := bufpool.GetInflater()
	out, err := i.Append(dst, p)
	i.Release()
	return out, err
}

// AppendInflateLimited is AppendInflate bounded to max decoded bytes: a
// stream that would produce more fails instead of ballooning memory — the
// decode guard for wire blobs whose header declares their logical size.
func AppendInflateLimited(dst, p []byte, max int) ([]byte, error) {
	i := bufpool.GetInflater()
	out, err := i.AppendLimited(dst, p, max)
	i.Release()
	return out, err
}

// CompressionRatio reports how much the codec shrinks p (original/encoded);
// the retention-capacity models use it to size the LocalSSD+Compression
// baseline and the offload bandwidth estimates.
func CompressionRatio(p []byte) float64 {
	c, ok := Deflate(p)
	if !ok || len(c) == 0 {
		return 1
	}
	return float64(len(p)) / float64(len(c))
}
