// A DEFLATE (RFC 1951) decoder whose entire working state — bit reader,
// Huffman tables, code-length scratch — lives in fixed-size arrays inside
// the pooled Inflater. This is what makes steady-state decode 0 allocs/op:
// compress/flate re-allocates its dynamic-Huffman link tables on every
// block (huffmanDecoder.init does `*h = huffmanDecoder{}` plus fresh makes),
// so even a pooled, Reset flate.Reader pays ~16 allocations per realistic
// segment. The decoder below rebuilds tables in place instead.
//
// It is a whole-buffer decoder: the complete stream is in memory (codec
// blobs always are) and output goes into the spare capacity of the caller's
// buffer, so there is no streaming window to manage — back-references copy
// straight from the produced output. The hot loop is per-symbol lean:
//
//   - two-level decode tables: one lookup resolves any code up to the root
//     width, a second resolves the rest; there is no bit-at-a-time path;
//   - table entries carry the decoded value itself — the literal byte, or a
//     length or distance base with its extra-bit count;
//   - the bit reader refills with one 8-byte load, enough for a whole
//     length/distance pair;
//   - literals are stored by index into the presized output, and matches
//     are copied a word at a time.
//
// Correctness is cross-checked against compress/flate in inflate_test.go
// over every stdlib compression level.
package bufpool

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"slices"
	"sync"
)

// ErrCorrupt and ErrTruncated classify decode failures: a stream that
// violates DEFLATE (bad block type, over-subscribed code, reference before
// stream start, stored-block length mismatch) versus one that simply ends
// early. Callers treat both as fatal; tests distinguish them.
var (
	ErrCorrupt   = errors.New("bufpool: corrupt deflate stream")
	ErrTruncated = errors.New("bufpool: truncated deflate stream")
)

const (
	maxCodeBits = 15  // DEFLATE's longest Huffman code
	maxNumLit   = 288 // literal/length alphabet (286 valid + 2 reserved)
	maxNumDist  = 32  // distance alphabet (30 valid + 2 reserved)
	numCodeLens = 19  // the code-length alphabet of the dynamic header

	// Root widths of the two-level tables. A code no longer than the root
	// resolves in one lookup; a longer one links to a subtable indexed by
	// its remaining bits. Code-length codes are at most 7 bits, so their
	// table is a single level.
	litRootBits  = 10
	distRootBits = 8
	clenRootBits = 7

	// Table sizes: the root plus every subtable a complete code can need.
	// A subtable w bits wide covers a complete subtree with a leaf at depth
	// w, so it holds at least w+1 codes; over 286 literal/length codes
	// (w ≤ 5) that bounds subtable space by 1512 entries, over 30 distance
	// codes (w ≤ 7) by 480.
	litTableSize  = 1<<litRootBits + 1536
	distTableSize = 1<<distRootBits + 512

	// While 8 input bytes remain, a refill leaves 56-63 bits. The block
	// loop refills below litRefill bits — a literal/length code and its
	// extra bits (15+5) — and again below distRefill before a distance code
	// and its extra bits (15+13), so a literal run shares one refill.
	litRefill  = 20
	distRefill = 28
)

// A table entry packs what decoding one code yields:
//
//	bits  0-7   code length in bits (a link: the subtable's index width)
//	bits  8-11  extra bits that follow a length or distance code
//	bits 12-15  kind flags below; none set means a length or distance
//	bits 16-31  literal byte, length or distance base, or subtable offset
const (
	entLiteral = 1 << 12
	entEOB     = 1 << 13
	entLink    = 1 << 14
	entInvalid = 1 << 15 // unassigned code, or a reserved symbol
)

// The length and distance expansion tables of RFC 1951 §3.2.5.
var (
	lenBase   = [29]uint16{3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258}
	lenExtra  = [29]uint8{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
	distBase  = [30]uint32{1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577}
	distExtra = [30]uint8{0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13}

	// codeOrder is the dynamic header's permuted code-length ordering.
	codeOrder = [numCodeLens]byte{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

	// Per-symbol entry payloads (everything but the code length) for each
	// alphabet, filled at init.
	litInfo  [maxNumLit]uint32
	distInfo [maxNumDist]uint32
	clenInfo [numCodeLens]uint32

	// The fixed-Huffman tables of §3.2.6, built once at init; block decode
	// reads them concurrently but never writes.
	fixedLit  [litTableSize]uint32
	fixedDist [distTableSize]uint32
)

func init() {
	for s := 0; s < 256; s++ {
		litInfo[s] = uint32(s)<<16 | entLiteral
	}
	litInfo[256] = entEOB
	for s := 257; s < 286; s++ {
		litInfo[s] = uint32(lenBase[s-257])<<16 | uint32(lenExtra[s-257])<<8
	}
	litInfo[286], litInfo[287] = entInvalid, entInvalid
	for s := 0; s < 30; s++ {
		distInfo[s] = distBase[s]<<16 | uint32(distExtra[s])<<8
	}
	distInfo[30], distInfo[31] = entInvalid, entInvalid
	for s := range clenInfo {
		clenInfo[s] = uint32(s) << 16
	}

	var lit [maxNumLit]uint8
	for j := range lit {
		switch {
		case j < 144:
			lit[j] = 8
		case j < 256:
			lit[j] = 9
		case j < 280:
			lit[j] = 7
		default:
			lit[j] = 8
		}
	}
	// All 32 distance codes are 5 bits; 30 and 31 decode to invalid
	// entries and are rejected as corrupt when they appear, per the RFC.
	var dist [maxNumDist]uint8
	for j := range dist {
		dist[j] = 5
	}
	if buildTable(fixedLit[:], litRootBits, lit[:], litInfo[:]) != nil ||
		buildTable(fixedDist[:], distRootBits, dist[:], distInfo[:]) != nil {
		panic("bufpool: fixed Huffman tables do not build")
	}
}

// buildTable fills tab with the two-level decode table for the given code
// lengths (0 = unused symbol), taking each entry's payload from info.
// Over-subscribed codes are corrupt; incomplete codes are accepted only in
// the degenerate single-symbol case, matching compress/flate. An all-zero
// length set builds a table of invalid entries — legal for the distance
// alphabet of a literal-only block, corrupt if a code is ever looked up.
func buildTable(tab []uint32, rootBits uint, lens []uint8, info []uint32) error {
	var count [maxCodeBits + 1]uint16
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	rootSize := 1 << rootBits
	left, total, max := 1, 0, uint(0)
	for l := uint(1); l <= maxCodeBits; l++ {
		left = left<<1 - int(count[l])
		if left < 0 {
			return ErrCorrupt
		}
		if count[l] != 0 {
			max = l
			total += int(count[l])
		}
	}
	if total == 0 || left > 0 {
		if total != 0 && !(total == 1 && max == 1) {
			return ErrCorrupt
		}
		// Empty or single-code: entries no code reaches must decode as
		// invalid. A complete code covers every entry, so needs no clear.
		// (The single code is one bit long, so the doubling below starts
		// from these entries.)
		for j := range tab[:rootSize] {
			tab[j] = entInvalid
		}
		if total == 0 {
			return nil
		}
	}

	// Symbols in canonical order — by length, then symbol — and the
	// MSB-first canonical code of each.
	var offs [maxCodeBits + 2]uint16
	for l := 1; l <= maxCodeBits; l++ {
		offs[l+1] = offs[l] + count[l]
	}
	var syms [maxNumLit]uint16
	for s, l := range lens {
		if l != 0 {
			syms[offs[l]] = uint16(s)
			offs[l]++
		}
	}
	var codes [maxNumLit]uint16
	code, prev := uint32(0), uint(lens[syms[0]])
	for i := 0; i < total; i++ {
		l := uint(lens[syms[i]])
		if i > 0 {
			code = (code + 1) << (l - prev)
		}
		codes[i] = uint16(code)
		prev = l
	}

	// Codes within the root. An l-bit code belongs at every root index
	// whose low l bits spell it (bit-reversed, as the stream presents it).
	// Build the table at width l for each length in turn, doubling it by
	// copy before moving to longer codes: the copy replicates every shorter
	// code, and a slot no code covers yet is a longer code's prefix, which
	// a later entry or link overwrites.
	i, size := 0, 1
	for ; i < total && uint(lens[syms[i]]) <= rootBits; i++ {
		l := uint(lens[syms[i]])
		for ; size < 1<<l; size *= 2 {
			copy(tab[size:2*size], tab[:size])
		}
		tab[reverse(codes[i], l)] = info[syms[i]] | uint32(l)
	}
	for ; size < rootSize; size *= 2 {
		copy(tab[size:2*size], tab[:size])
	}
	// Longer codes: the codes sharing a root prefix are contiguous in
	// canonical order, and the last is the longest, which sets the width
	// of the prefix's subtable. Subtable entries hold the full code length.
	next := rootSize
	for i < total {
		l := uint(lens[syms[i]])
		prefix := codes[i] >> (l - rootBits)
		j := i + 1
		for j < total && codes[j]>>(uint(lens[syms[j]])-rootBits) == prefix {
			j++
		}
		w := uint(lens[syms[j-1]]) - rootBits
		if next+1<<w > len(tab) {
			return ErrCorrupt // beyond the bound above: not a complete code
		}
		tab[reverse(prefix, rootBits)] = uint32(next)<<16 | entLink | uint32(w)
		for k := i; k < j; k++ {
			lk := uint(lens[syms[k]])
			e := info[syms[k]] | uint32(lk)
			for x := reverse(codes[k], lk) >> rootBits; x < 1<<w; x += 1 << (lk - rootBits) {
				tab[next+int(x)] = e
			}
		}
		next += 1 << w
		i = j
	}
	return nil
}

// reverse returns the low n bits of code in reverse order.
func reverse(code uint16, n uint) int {
	return int(bits.Reverse16(code) >> (16 - n))
}

// Inflater is a pooled DEFLATE decompressor. Its decode tables, bit reader
// and code-length scratch are fixed arrays inside the struct, rebuilt in
// place per block, so steady-state decode is 0 allocs/op.
type Inflater struct {
	// Bit reader: acc holds nb unread bits, LSB first. Bits above nb are
	// zero or the stream bits that follow (a refill loads whole words), so
	// a refill may OR any later input over them.
	in  []byte
	pos int // first input byte not yet counted into nb
	acc uint64
	nb  uint
	err error // sticky header-parse error

	lit  [litTableSize]uint32
	dist [distTableSize]uint32
	clen [1 << clenRootBits]uint32
	lens [286 + 30]uint8 // dynamic-header code lengths (hlit + hdist max)

	// limit, when positive, bounds the decoded output size (AppendLimited):
	// a stream that tries to produce more is corrupt by the caller's
	// framing, and aborting early keeps a flipped-bit blob from inflating
	// without bound on the ingest path.
	limit int
}

var inflaters = sync.Pool{New: func() any { return new(Inflater) }}

// GetInflater rents a pooled DEFLATE decompressor.
func GetInflater() *Inflater { return inflaters.Get().(*Inflater) }

// Release returns the decompressor to the pool.
func (f *Inflater) Release() {
	if f == nil {
		return
	}
	f.in = nil // never retain caller memory across rentals
	inflaters.Put(f)
}

// Append appends the decompression of the DEFLATE stream p to dst and
// returns the extended slice. With sufficient dst capacity it performs zero
// allocations. Decode failures return ErrCorrupt or ErrTruncated (possibly
// with dst partially extended); the caller's pooled buffer discipline makes
// partial output harmless.
func (f *Inflater) Append(dst, p []byte) ([]byte, error) {
	f.limit = 0
	return f.inflate(dst, p)
}

// AppendLimited is Append with an output bound: decoding fails with
// ErrCorrupt as soon as the stream would exceed max decoded bytes. Callers
// whose framing records the expected decoded size (the segment codec
// header) pass it here so corrupted streams cannot balloon memory.
func (f *Inflater) AppendLimited(dst, p []byte, max int) ([]byte, error) {
	f.limit = max
	out, err := f.inflate(dst, p)
	f.limit = 0
	return out, err
}

// refill tops the bit reader up: with 8 input bytes left it loads a word
// and counts every whole byte that fits (leaving 56-63 bits), otherwise it
// counts the remaining bytes one at a time.
func refill(in []byte, pos int, acc uint64, nb uint) (int, uint64, uint) {
	if pos+8 <= len(in) {
		acc |= binary.LittleEndian.Uint64(in[pos:]) << nb
		return pos + int((63-nb)>>3), acc, nb | 56
	}
	for nb <= 56 && pos < len(in) {
		acc |= uint64(in[pos]) << nb
		pos++
		nb += 8
	}
	return pos, acc, nb
}

// take consumes k ≤ 16 bits for header parsing. On underrun it records
// ErrTruncated and returns zero without consuming, so parse loops end at
// the sticky check.
func (f *Inflater) take(k uint) uint32 {
	if f.nb < k {
		f.pos, f.acc, f.nb = refill(f.in, f.pos, f.acc, f.nb)
		if f.nb < k {
			if f.err == nil {
				f.err = ErrTruncated
			}
			return 0
		}
	}
	v := uint32(f.acc) & (1<<k - 1)
	f.acc >>= k
	f.nb -= k
	return v
}

// invalidCode classifies an invalid table entry: with the input exhausted the
// lookup may have read past the end, so the stream is truncated; otherwise
// it named an unassigned code or a reserved symbol.
func invalidCode(in []byte, pos int, nb uint) error {
	if pos >= len(in) && nb < maxCodeBits {
		return ErrTruncated
	}
	return ErrCorrupt
}

// inflate appends the decoded stream p to dst. Back-references may not
// reach before the stream's own output into unrelated caller bytes.
func (f *Inflater) inflate(dst, p []byte) ([]byte, error) {
	f.in, f.pos, f.acc, f.nb, f.err = p, 0, 0, 0, nil
	start := len(dst)
	lim := math.MaxInt
	if f.limit > 0 && f.limit <= math.MaxInt-start {
		lim = start + f.limit
	}
	out, o := dst[:cap(dst)], start
	for {
		final := f.take(1)
		typ := f.take(2)
		if f.err != nil {
			return out[:o], f.err
		}
		var err error
		switch typ {
		case 0:
			out, o, err = f.stored(out, o, lim)
		case 1:
			out, o, err = f.block(out, o, start, lim, &fixedLit, &fixedDist)
		case 2:
			if err = f.readDynamicHeader(); err == nil {
				out, o, err = f.block(out, o, start, lim, &f.lit, &f.dist)
			}
		default:
			err = ErrCorrupt
		}
		if err != nil {
			return out[:o], err
		}
		if final == 1 {
			// Trailing bytes after the final block are the container's
			// business, not ours — same stance as compress/flate.
			return out[:o], nil
		}
	}
}

// grow returns out with room for at least need bytes past o, keeping
// out[:o]; like append, it grows geometrically.
func grow(out []byte, o, need int) []byte {
	g := slices.Grow(out[:o], max(need, maxMatchLength+8))
	return g[:cap(g)]
}

// stored copies a §3.2.4 uncompressed block.
func (f *Inflater) stored(out []byte, o, lim int) ([]byte, int, error) {
	drop := f.nb & 7
	f.acc >>= drop
	f.nb -= drop
	ln := f.take(16)
	nln := f.take(16)
	if f.err != nil {
		return out, o, f.err
	}
	if ln != ^nln&0xffff {
		return out, o, ErrCorrupt
	}
	n := int(ln)
	if o+n > lim {
		return out, o, ErrCorrupt
	}
	if o+n > len(out) {
		out = grow(out, o, n)
	}
	// Drain whole bytes already counted into the accumulator, then copy the
	// rest straight from the input.
	for ; n > 0 && f.nb >= 8; n-- {
		out[o] = byte(f.acc)
		o++
		f.acc >>= 8
		f.nb -= 8
	}
	if n > len(f.in)-f.pos {
		o += copy(out[o:], f.in[f.pos:])
		f.pos = len(f.in)
		return out, o, ErrTruncated
	}
	o += copy(out[o:o+n], f.in[f.pos:])
	f.pos += n
	// The accumulator's uncounted bits belonged to the bytes just copied.
	f.acc &= 1<<f.nb - 1
	return out, o, nil
}

// Outcomes of decodeFast.
const (
	fastMore    = iota // left the fast zone; the careful loop takes over
	fastEOB            // end of block consumed
	fastCorrupt        // invalid code or distance
)

// decodeFast is the block loop's hot path. It runs while 16 input bytes
// remain past pos and o ≤ oFast, which leaves room for a longest match plus
// a word of copy overrun below both the buffer end and the output bound:
// inside that zone no symbol can run out of input or space, so it decodes
// with none of the careful loop's per-symbol checks.
func decodeFast(in []byte, pos int, acc uint64, nb uint, out []byte, o, start, oFast int,
	lt *[litTableSize]uint32, dt *[distTableSize]uint32) (int, uint64, uint, int, int) {
	for pos+16 <= len(in) && o <= oFast {
		if nb < litRefill {
			acc |= binary.LittleEndian.Uint64(in[pos:]) << (nb & 63)
			pos += int((63 - nb) >> 3)
			nb |= 56
		}
		e := lt[acc&(1<<litRootBits-1)]
		if e&entLink != 0 {
			e = lt[e>>16+uint32(acc>>litRootBits)&(1<<(e&15)-1)]
		}
		acc >>= e & 63
		nb -= uint(e & 63)
		if e&entLiteral != 0 {
			out[o] = byte(e >> 16)
			o++
			continue
		}
		if e&(entEOB|entInvalid) != 0 {
			if e&entEOB != 0 {
				return pos, acc, nb, o, fastEOB
			}
			return pos, acc, nb, o, fastCorrupt
		}
		xb := (e >> 8) & 15
		length := int(e>>16) + int(acc&(1<<xb-1))
		acc >>= xb
		nb -= uint(xb)

		if nb < distRefill {
			acc |= binary.LittleEndian.Uint64(in[pos:]) << (nb & 63)
			pos += int((63 - nb) >> 3)
			nb |= 56
		}
		e = dt[acc&(1<<distRootBits-1)]
		if e&entLink != 0 {
			e = dt[e>>16+uint32(acc>>distRootBits)&(1<<(e&15)-1)]
		}
		if e&entInvalid != 0 {
			return pos, acc, nb, o, fastCorrupt
		}
		acc >>= e & 63
		nb -= uint(e & 63)
		xb = (e >> 8) & 15
		dist := int(e>>16) + int(acc&(1<<xb-1))
		acc >>= xb
		nb -= uint(xb)
		if dist > o-start {
			return pos, acc, nb, o, fastCorrupt
		}
		copyMatch(out, o, o-dist, length)
		o += length
	}
	return pos, acc, nb, o, fastMore
}

// copyMatch copies a length-byte back-reference from src to o; out must
// hold o+length bytes. Short matches move as two words when there is room
// to overrun (later output overwrites the excess); a run of one byte is
// splatted a word at a time; anything else goes through copy, whose span
// doubles each round when the match overlaps itself.
func copyMatch(out []byte, o, src, length int) {
	dist := o - src
	if dist >= 8 && length <= 16 && o+16 <= len(out) {
		// The second word may read bytes the first just wrote, which is
		// what an overlapping match means.
		binary.LittleEndian.PutUint64(out[o:], binary.LittleEndian.Uint64(out[src:]))
		binary.LittleEndian.PutUint64(out[o+8:], binary.LittleEndian.Uint64(out[src+8:]))
		return
	}
	if dist == 1 && o+length+8 <= len(out) {
		v := uint64(out[src]) * 0x0101010101010101
		for k := 0; k < length; k += 8 {
			binary.LittleEndian.PutUint64(out[o+k:], v)
		}
		return
	}
	for length > 0 {
		n := copy(out[o:o+length], out[src:o])
		o += n
		length -= n
	}
}

// block decodes one Huffman-coded block body with the given tables into
// out at o, returning the (possibly regrown) buffer and the new end. It
// hands off to decodeFast whenever input and output leave room, and
// decodes one fully checked symbol at a time near either end.
func (f *Inflater) block(out []byte, o, start, lim int, lt *[litTableSize]uint32, dt *[distTableSize]uint32) ([]byte, int, error) {
	in, pos, acc, nb := f.in, f.pos, f.acc, f.nb
	oFast := min(len(out)-8, lim) - maxMatchLength
	var err error
	for {
		if o <= oFast && pos+16 <= len(in) {
			var st int
			pos, acc, nb, o, st = decodeFast(in, pos, acc, nb, out, o, start, oFast, lt, dt)
			if st == fastEOB {
				break
			}
			if st == fastCorrupt {
				err = ErrCorrupt
				break
			}
		}

		if nb < litRefill {
			pos, acc, nb = refill(in, pos, acc, nb)
		}
		e := lt[acc&(1<<litRootBits-1)]
		if e&entLink != 0 {
			e = lt[e>>16+uint32(acc>>litRootBits)&(1<<(e&15)-1)]
		}
		if e&entInvalid != 0 {
			err = invalidCode(in, pos, nb)
			break
		}
		n := uint(e & 63)
		if n > nb {
			err = ErrTruncated
			break
		}
		acc >>= n
		nb -= n
		if e&entLiteral != 0 {
			if o >= min(len(out), lim) {
				if o >= lim {
					err = ErrCorrupt
					break
				}
				out = grow(out, o, 1)
				oFast = min(len(out)-8, lim) - maxMatchLength
			}
			out[o] = byte(e >> 16)
			o++
			continue
		}
		if e&entEOB != 0 {
			break
		}

		// Length: base plus extra bits.
		xb := uint(e>>8) & 15
		if xb > nb {
			err = ErrTruncated
			break
		}
		length := int(e>>16) + int(acc&(1<<xb-1))
		acc >>= xb
		nb -= xb

		// Distance: a second code, base plus extra bits.
		if nb < distRefill {
			pos, acc, nb = refill(in, pos, acc, nb)
		}
		e = dt[acc&(1<<distRootBits-1)]
		if e&entLink != 0 {
			e = dt[e>>16+uint32(acc>>distRootBits)&(1<<(e&15)-1)]
		}
		if e&entInvalid != 0 {
			err = invalidCode(in, pos, nb)
			break
		}
		n = uint(e & 63)
		xb = uint(e>>8) & 15
		if n+xb > nb {
			err = ErrTruncated
			break
		}
		acc >>= n
		dist := int(e>>16) + int(acc&(1<<xb-1))
		acc >>= xb
		nb -= n + xb

		if dist > o-start {
			err = ErrCorrupt
			break
		}
		if o+length > lim {
			err = ErrCorrupt
			break
		}
		if o+length > len(out) {
			out = grow(out, o, length)
			oFast = min(len(out)-8, lim) - maxMatchLength
		}
		copyMatch(out, o, o-dist, length)
		o += length
	}
	f.pos, f.acc, f.nb = pos, acc, nb
	return out, o, err
}

// readDynamicHeader parses a §3.2.7 dynamic-Huffman header into f.lit and
// f.dist, rebuilding the tables in place.
func (f *Inflater) readDynamicHeader() error {
	hlit := int(f.take(5)) + 257
	hdist := int(f.take(5)) + 1
	hclen := int(f.take(4)) + 4
	if f.err != nil {
		return f.err
	}
	if hlit > 286 || hdist > 30 {
		return ErrCorrupt
	}
	var clens [numCodeLens]uint8
	for j := 0; j < hclen; j++ {
		clens[codeOrder[j]] = uint8(f.take(3))
	}
	if f.err != nil {
		return f.err
	}
	if err := buildTable(f.clen[:], clenRootBits, clens[:], clenInfo[:]); err != nil {
		return err
	}
	n := hlit + hdist
	for j := 0; j < n; {
		if f.nb < clenRootBits+7 {
			f.pos, f.acc, f.nb = refill(f.in, f.pos, f.acc, f.nb)
		}
		e := f.clen[f.acc&(1<<clenRootBits-1)]
		if e&entInvalid != 0 {
			return invalidCode(f.in, f.pos, f.nb)
		}
		if l := uint(e & 0xff); l <= f.nb {
			f.acc >>= l
			f.nb -= l
		} else {
			return ErrTruncated
		}
		sym := e >> 16
		if sym < 16 {
			f.lens[j] = uint8(sym)
			j++
			continue
		}
		var rep int
		var v uint8
		switch sym {
		case 16:
			if j == 0 {
				return ErrCorrupt
			}
			rep = int(f.take(2)) + 3
			v = f.lens[j-1]
		case 17:
			rep = int(f.take(3)) + 3
		default: // 18
			rep = int(f.take(7)) + 11
		}
		if f.err != nil {
			return f.err
		}
		if j+rep > n {
			return ErrCorrupt
		}
		for k := 0; k < rep; k++ {
			f.lens[j] = v
			j++
		}
	}
	if err := buildTable(f.lit[:], litRootBits, f.lens[:hlit], litInfo[:]); err != nil {
		return err
	}
	if f.lens[endBlockMarker] == 0 {
		// A block without an end-of-block code cannot terminate.
		return ErrCorrupt
	}
	return buildTable(f.dist[:], distRootBits, f.lens[hlit:n], distInfo[:])
}
