// Copyright 2009 The Go Authors.
//
// Redistribution and use in source and binary forms, with or without
// modification, are permitted provided that the following conditions are
// met:
//
//    * Redistributions of source code must retain the above copyright
// notice, this list of conditions and the following disclaimer.
//    * Redistributions in binary form must reproduce the above
// copyright notice, this list of conditions and the following disclaimer
// in the documentation and/or other materials provided with the
// distribution.
//    * Neither the name of Google LLC nor the names of its
// contributors may be used to endorse or promote products derived from
// this software without specific prior written permission.
//
// THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
// "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
// LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
// A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
// OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
// SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
// LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
// DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
// THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
// (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
// OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

// A whole-buffer DEFLATE (RFC 1951) encoder whose output is byte-identical
// to go1.24 compress/flate at BestSpeed. It is a port of that level's
// pipeline — the Snappy-style deflateFast matcher (deflatefast.go), the
// encSpeed block decisions (deflate.go) and the Huffman block writer
// (huffman_bit_writer.go, huffman_code.go) — restructured for speed, not
// changed in what it decides:
//
//   - the literal/length and offset histograms are counted inside the match
//     loop instead of in a second pass over the tokens;
//   - code construction sorts with a concrete-type sort; byFreq and
//     byLiteral are total orders, so any correct sort yields the same code
//     lengths and codes;
//   - a length or distance code goes out together with its extra bits in
//     one bit-writer call, through per-block tables;
//   - the whole input is in memory, so a match into the previous block is a
//     contiguous compare instead of a copy of that block;
//   - output goes straight into the caller's buffer, reserved per block
//     from the exact bit size the block decision already computed.
//
// All state lives in fixed arrays inside the pooled Deflater, so a warm
// encode allocates nothing when dst has room. bufpool_test.go and
// deflate_test.go hold compress/flate as the oracle for byte identity.
package bufpool

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"sync"
)

const (
	maxStoreBlockSize = 65535   // stored-block limit; also the BestSpeed window
	maxMatchOffset    = 1 << 15 // largest back-reference distance
	maxMatchLength    = 258
	baseMatchLength   = 3 // xlength = length - baseMatchLength
	baseMatchOffset   = 1 // xoffset = distance - baseMatchOffset

	// deflateFast hash table.
	tableBits  = 14
	tableSize  = 1 << tableBits
	tableMask  = tableSize - 1
	tableShift = 32 - tableBits

	// bufferReset bounds cur so int32 offsets never wrap.
	bufferReset = math.MaxInt32 - maxStoreBlockSize*2

	// Snappy's input margin: the matcher stops searching this close to the
	// end of a block and emits the tail as literals.
	inputMargin = 16 - 1

	// The encoder's alphabets: 286 literal/length codes, 30 offset codes,
	// 19 code-length ("codegen") codes.
	numLitCodes      = 286
	offsetCodeCount  = 30
	codegenCodeCount = 19
	endBlockMarker   = 256
	lengthCodesStart = 257
	badCode          = 255 // codegen end marker

	// A token is a literal byte (< matchFlag) or a match packed as
	// matchFlag | offsetCode<<24 | xlength<<15 | xoffset.
	matchFlag = 1 << 31
)

type tableEntry struct {
	val    uint32 // the four bytes at offset
	offset int32
}

// hcode is a Huffman code, bit-reversed for LSB-first output.
type hcode struct {
	code, len uint16
}

// huffEncoder holds one alphabet's code, sized for the largest alphabet.
type huffEncoder struct {
	codes    [numLitCodes]hcode
	bitCount [17]int32
}

// Deflater is a pooled DEFLATE encoder producing compress/flate BestSpeed
// streams. Rent with GetDeflater, compress with Append, and Release when
// done.
type Deflater struct {
	// The output writer holds the struct's only pointer; keeping it first
	// lets the garbage collector skip the tables behind it.
	w bitWriter

	// deflateFast matcher state. Entries from earlier streams stay in the
	// table but can never match: each stream advances cur past them by more
	// than the window.
	table [tableSize]tableEntry
	cur   int32

	tokens      [maxStoreBlockSize]uint32
	litFreq     [numLitCodes]int32
	offFreq     [offsetCodeCount]int32
	codegenFreq [codegenCodeCount]int32
	codegen     [numLitCodes + offsetCodeCount + 1]uint8

	litEnc, offEnc, cgEnc huffEncoder

	// generate scratch: nodes as freq<<9 | literal, sorted by (freq,
	// literal), and their frequency column for bitCounts.
	keys  [numLitCodes]uint32
	freqs [numLitCodes + 1]int32

	// Per-block write tables: the length code plus its extra bits for every
	// xlength, and each offset code with its extra-bit count.
	lenTab [256]uint32 // extra<<len | code in the low 24 bits, total bits in the top 8
	offTab [offsetCodeCount]offCode
}

// offCode is one offset code prepared for a combined code+extra write.
type offCode struct {
	code  uint32
	len   uint8
	total uint8 // len + extra bits
	base  uint32
}

var deflaters = sync.Pool{New: func() any { return new(Deflater) }}

// GetDeflater rents a pooled DEFLATE compressor.
func GetDeflater() *Deflater { return deflaters.Get().(*Deflater) }

// Release returns the compressor to the pool.
func (d *Deflater) Release() {
	if d == nil {
		return
	}
	d.w.buf = nil // never retain caller memory across rentals
	deflaters.Put(d)
}

// Append appends the complete DEFLATE stream of p to dst and returns the
// extended slice: the bytes compress/flate.NewWriter(w, BestSpeed) would
// write for one Write(p) and Close. With sufficient dst capacity it
// performs zero allocations.
func (d *Deflater) Append(dst, p []byte) []byte {
	// A new stream: no match may reach back into an earlier one.
	d.cur += maxMatchOffset + 1
	if d.cur >= bufferReset {
		d.shiftOffsets(false)
	}
	d.w = bitWriter{buf: dst[:cap(dst)], n: len(dst)}

	for start := 0; start < len(p); start += maxStoreBlockSize {
		end := min(start+maxStoreBlockSize, len(p))
		blk := p[start:end]
		if len(blk) < 128 {
			// Only the final block can be this short; flate skips matching.
			if len(blk) <= 16 {
				d.storedBlock(blk)
			} else {
				d.huffBlock(blk)
			}
			break
		}
		nt := d.matchBlock(p, start, end)
		// If matching removed less than 1/16th, Huffman-code the bytes.
		if nt > len(blk)-len(blk)>>4 {
			d.huffBlock(blk)
		} else {
			d.dynamicBlock(nt, blk)
		}
	}

	// The final, empty stored block.
	d.w.reserve(3 + 7 + 32)
	d.w.writeBits(1, 3)
	d.w.alignByte()
	d.w.writeBits(0, 16)
	d.w.writeBits(0xffff, 16)
	d.w.alignByte()
	out := d.w.buf[:d.w.n]
	d.w.buf = nil
	return out
}

func load32(b []byte, i int32) uint32 { return binary.LittleEndian.Uint32(b[i:]) }
func load64(b []byte, i int32) uint64 { return binary.LittleEndian.Uint64(b[i:]) }
func hash4(u uint32) uint32           { return (u * 0x1e35a7bd) >> tableShift }

// matchBlock runs the deflateFast matcher over the block p[start:end],
// writing tokens to d.tokens and counting the block's literal/length and
// offset histograms as it goes. It returns the token count. Matches may
// reach into the previous block, which is p[start-maxStoreBlockSize:start].
func (d *Deflater) matchBlock(p []byte, start, end int) int {
	if d.cur >= bufferReset {
		d.shiftOffsets(start > 0)
	}
	src := p[start:end]
	clear(d.litFreq[:])
	clear(d.offFreq[:])
	tokens := &d.tokens
	litFreq := &d.litFreq
	nt := 0

	sLimit := int32(len(src) - inputMargin)
	nextEmit := int32(0)
	s := int32(0)
	cv := load32(src, s)
	nextHash := hash4(cv)

	for {
		// Heuristic match skipping, as in Snappy: after 32 bytes without a
		// match, look at every other byte, then every third, and so on.
		skip := int32(32)
		nextS := s
		var candidate tableEntry
		for {
			s = nextS
			bytesBetweenHashLookups := skip >> 5
			nextS = s + bytesBetweenHashLookups
			skip += bytesBetweenHashLookups
			if nextS > sLimit {
				goto emitRemainder
			}
			candidate = d.table[nextHash&tableMask]
			now := load32(src, nextS)
			d.table[nextHash&tableMask] = tableEntry{offset: s + d.cur, val: cv}
			nextHash = hash4(now)

			offset := s - (candidate.offset - d.cur)
			if offset > maxMatchOffset || cv != candidate.val {
				cv = now
				continue
			}
			break
		}

		for _, v := range src[nextEmit:s] {
			tokens[nt] = uint32(v)
			nt++
			litFreq[v]++
		}

		for {
			// A 4-byte match at s: extend it, emit it, and see whether the
			// bytes right after it start another match.
			s += 4
			t := candidate.offset - d.cur + 4
			l := matchLen(p, start+int(s), start+int(t), start+min(int(s)+maxMatchLength-4, len(src)))

			xlength := uint32(l + 4 - baseMatchLength)
			xoffset := uint32(s - t - baseMatchOffset)
			lc := lengthCodes[xlength]
			oc := offsetCode(xoffset)
			tokens[nt] = matchFlag | oc<<24 | xlength<<15 | xoffset
			nt++
			litFreq[lengthCodesStart+lc]++
			d.offFreq[oc]++

			s += l
			nextEmit = s
			if s >= sLimit {
				goto emitRemainder
			}

			// Hash s-1 and s with one 8-byte load, and check s for a match.
			x := load64(src, s-1)
			prevHash := hash4(uint32(x))
			d.table[prevHash&tableMask] = tableEntry{offset: d.cur + s - 1, val: uint32(x)}
			x >>= 8
			currHash := hash4(uint32(x))
			candidate = d.table[currHash&tableMask]
			d.table[currHash&tableMask] = tableEntry{offset: d.cur + s, val: uint32(x)}

			offset := s - (candidate.offset - d.cur)
			if offset > maxMatchOffset || uint32(x) != candidate.val {
				cv = uint32(x >> 8)
				nextHash = hash4(cv)
				s++
				break
			}
		}
	}

emitRemainder:
	for _, v := range src[nextEmit:] {
		tokens[nt] = uint32(v)
		nt++
		litFreq[v]++
	}
	d.cur += int32(len(src))
	return nt
}

// matchLen returns how many bytes of p[a:aEnd] equal the bytes at p[b:],
// b < a. flate compares a match into the previous block in two parts
// (previous block, then current); with both blocks contiguous in p that is
// this single compare.
func matchLen(p []byte, a, b, aEnd int) int32 {
	n := 0
	for a+n+8 <= aEnd {
		if x := binary.LittleEndian.Uint64(p[a+n:]) ^ binary.LittleEndian.Uint64(p[b+n:]); x != 0 {
			return int32(n + bits.TrailingZeros64(x)>>3)
		}
		n += 8
	}
	for a+n < aEnd && p[a+n] == p[b+n] {
		n++
	}
	return int32(n)
}

// shiftOffsets rebases the table so cur cannot overflow, keeping every
// entry's distance from cur (entries already out of range stay so).
func (d *Deflater) shiftOffsets(hasPrev bool) {
	if !hasPrev {
		clear(d.table[:])
		d.cur = maxMatchOffset + 1
		return
	}
	for i := range d.table {
		v := d.table[i].offset - d.cur + maxMatchOffset + 1
		if v < 0 {
			v = 0
		}
		d.table[i].offset = v
	}
	d.cur = maxMatchOffset + 1
}

// offsetCode returns the offset code of xoffset.
func offsetCode(off uint32) uint32 {
	if off < uint32(len(offsetCodes)) {
		return offsetCodes[off]
	}
	if off>>7 < uint32(len(offsetCodes)) {
		return offsetCodes[off>>7] + 14
	}
	return offsetCodes[off>>14] + 28
}

// storedBlock writes input as a non-final stored block.
func (d *Deflater) storedBlock(input []byte) {
	w := &d.w
	w.reserve(3 + 7 + 32 + 8*len(input))
	w.writeBits(0, 3)
	w.alignByte()
	w.writeBits(uint64(len(input)), 16)
	w.writeBits(uint64(^uint16(len(input))), 16)
	w.writeBytes(input)
}

// storedBits is a stored block's size in bits, header included.
func storedBits(input []byte) int { return (len(input) + 5) * 8 }

// huffBlock writes input as Huffman-coded literals, or stored when that
// gains too little (flate's writeBlockHuff).
func (d *Deflater) huffBlock(input []byte) {
	clear(d.litFreq[:])
	for _, b := range input {
		d.litFreq[b]++
	}
	d.litFreq[endBlockMarker] = 1
	d.generate(&d.litEnc, d.litFreq[:], 15)

	// The offset alphabet is the single one-bit code flate's huffOffset
	// holds: it is sent in the header and counted once in the size.
	d.offEnc.codes[0] = hcode{code: 0, len: 1}
	d.generateCodegen(endBlockMarker+1, 1)
	d.generate(&d.cgEnc, d.codegenFreq[:], 7)
	size, numCodegens := d.dynamicSize()
	size += bitLength(&d.litEnc, d.litFreq[:]) + 1

	if ssize := storedBits(input); ssize < size+size>>4 {
		d.storedBlock(input)
		return
	}

	w := &d.w
	w.reserve(size)
	d.writeDynamicHeader(endBlockMarker+1, 1, numCodegens)
	codes := &d.litEnc.codes
	buf, n, acc, nb := w.buf, w.n, w.bits, w.nbits
	for _, b := range input {
		c := codes[b]
		acc |= uint64(c.code) << nb
		nb += uint(c.len)
		if nb >= 32 {
			binary.LittleEndian.PutUint32(buf[n:], uint32(acc))
			n += 4
			acc >>= 32
			nb -= 32
		}
	}
	w.n, w.bits, w.nbits = n, acc, nb
	c := codes[endBlockMarker]
	w.writeBits(uint64(c.code), uint(c.len))
}

// dynamicBlock writes the block's nt tokens with dynamic Huffman codes, or
// input as a stored block when the codes save less than 1/16th (flate's
// writeBlockDynamic). The histograms were counted by matchBlock.
func (d *Deflater) dynamicBlock(nt int, input []byte) {
	d.litFreq[endBlockMarker] = 1
	numLiterals := numLitCodes
	for d.litFreq[numLiterals-1] == 0 {
		numLiterals--
	}
	numOffsets := offsetCodeCount
	for numOffsets > 0 && d.offFreq[numOffsets-1] == 0 {
		numOffsets--
	}
	if numOffsets == 0 {
		// No match: count one offset so the offset tree can be encoded.
		d.offFreq[0] = 1
		numOffsets = 1
	}
	d.generate(&d.litEnc, d.litFreq[:], 15)
	d.generate(&d.offEnc, d.offFreq[:], 15)
	d.generateCodegen(numLiterals, numOffsets)
	d.generate(&d.cgEnc, d.codegenFreq[:], 7)
	size, numCodegens := d.dynamicSize()
	size += bitLength(&d.litEnc, d.litFreq[:]) + bitLength(&d.offEnc, d.offFreq[:])

	if ssize := storedBits(input); ssize < size+size>>4 {
		d.storedBlock(input)
		return
	}

	// The size above leaves out extra bits, as flate's decision does; the
	// reservation needs them.
	extra := 0
	for lc := 8; lc < len(lenExtra); lc++ {
		extra += int(d.litFreq[lengthCodesStart+lc]) * int(lenExtra[lc])
	}
	for oc := 4; oc < offsetCodeCount; oc++ {
		extra += int(d.offFreq[oc]) * int(distExtra[oc])
	}
	d.w.reserve(size + extra)
	d.writeDynamicHeader(numLiterals, numOffsets, numCodegens)
	d.writeTokens(nt)
}

// writeTokens writes the block's tokens and end-of-block code with the
// current literal/length and offset codes.
func (d *Deflater) writeTokens(nt int) {
	lit := &d.litEnc.codes
	for xl := range d.lenTab {
		lc := lengthCodes[xl]
		c := lit[lengthCodesStart+lc]
		extra := uint32(xl) - (uint32(lenBase[lc]) - baseMatchLength)
		d.lenTab[xl] = (uint32(c.len)+uint32(lenExtra[lc]))<<24 | extra<<c.len | uint32(c.code)
	}
	for oc := range d.offTab {
		c := d.offEnc.codes[oc]
		d.offTab[oc] = offCode{
			code:  uint32(c.code),
			len:   uint8(c.len),
			total: uint8(c.len) + distExtra[oc],
			base:  distBase[oc] - baseMatchOffset,
		}
	}

	w := &d.w
	buf, n, acc, nb := w.buf, w.n, w.bits, w.nbits
	for _, t := range d.tokens[:nt] {
		if t < matchFlag {
			c := lit[t&0xff]
			acc |= uint64(c.code) << nb
			nb += uint(c.len)
		} else {
			le := d.lenTab[(t>>15)&0xff]
			acc |= uint64(le&0xffffff) << nb
			nb += uint(le >> 24)
			if nb >= 32 {
				binary.LittleEndian.PutUint32(buf[n:], uint32(acc))
				n += 4
				acc >>= 32
				nb -= 32
			}
			oe := &d.offTab[(t>>24)&31]
			v := uint64(oe.code) | uint64(t&0x7fff-oe.base)<<oe.len
			acc |= v << nb
			nb += uint(oe.total)
		}
		if nb >= 32 {
			binary.LittleEndian.PutUint32(buf[n:], uint32(acc))
			n += 4
			acc >>= 32
			nb -= 32
		}
	}
	w.n, w.bits, w.nbits = n, acc, nb
	c := lit[endBlockMarker]
	w.writeBits(uint64(c.code), uint(c.len))
}

// generateCodegen run-length encodes the literal and offset code lengths
// (RFC 1951 §3.2.7) into d.codegen, counting d.codegenFreq. Codes 16-18
// are followed by their repeat count; badCode ends the sequence.
func (d *Deflater) generateCodegen(numLiterals, numOffsets int) {
	clear(d.codegenFreq[:])
	codegen := &d.codegen
	for i := 0; i < numLiterals; i++ {
		codegen[i] = uint8(d.litEnc.codes[i].len)
	}
	for i := 0; i < numOffsets; i++ {
		codegen[numLiterals+i] = uint8(d.offEnc.codes[i].len)
	}
	codegen[numLiterals+numOffsets] = badCode

	// The output never overtakes the input, so the run-length encoding is
	// written over the copied lengths in place.
	size := codegen[0]
	count := 1
	outIndex := 0
	for inIndex := 1; size != badCode; inIndex++ {
		nextSize := codegen[inIndex]
		if nextSize == size {
			count++
			continue
		}
		if size != 0 {
			codegen[outIndex] = size
			outIndex++
			d.codegenFreq[size]++
			count--
			for count >= 3 {
				n := min(6, count)
				codegen[outIndex] = 16
				codegen[outIndex+1] = uint8(n - 3)
				outIndex += 2
				d.codegenFreq[16]++
				count -= n
			}
		} else {
			for count >= 11 {
				n := min(138, count)
				codegen[outIndex] = 18
				codegen[outIndex+1] = uint8(n - 11)
				outIndex += 2
				d.codegenFreq[18]++
				count -= n
			}
			if count >= 3 {
				codegen[outIndex] = 17
				codegen[outIndex+1] = uint8(count - 3)
				outIndex += 2
				d.codegenFreq[17]++
				count = 0
			}
		}
		count--
		for ; count >= 0; count-- {
			codegen[outIndex] = size
			outIndex++
			d.codegenFreq[size]++
		}
		size = nextSize
		count = 1
	}
	codegen[outIndex] = badCode
}

// dynamicSize returns the bits of a dynamic block header — the
// literal/length and offset data sizes are the caller's — and how many
// code-length code lengths it sends.
func (d *Deflater) dynamicSize() (size, numCodegens int) {
	numCodegens = codegenCodeCount
	for numCodegens > 4 && d.codegenFreq[codeOrder[numCodegens-1]] == 0 {
		numCodegens--
	}
	size = 3 + 5 + 5 + 4 + 3*numCodegens +
		bitLength(&d.cgEnc, d.codegenFreq[:]) +
		int(d.codegenFreq[16])*2 +
		int(d.codegenFreq[17])*3 +
		int(d.codegenFreq[18])*7
	return size, numCodegens
}

// bitLength is the coded size in bits of a histogram under h.
func bitLength(h *huffEncoder, freq []int32) int {
	total := 0
	for i, f := range freq {
		if f != 0 {
			total += int(f) * int(h.codes[i].len)
		}
	}
	return total
}

// writeDynamicHeader writes a non-final dynamic block header from the
// codegen sequence.
func (d *Deflater) writeDynamicHeader(numLiterals, numOffsets, numCodegens int) {
	w := &d.w
	w.writeBits(4, 3)
	w.writeBits(uint64(numLiterals-257), 5)
	w.writeBits(uint64(numOffsets-1), 5)
	w.writeBits(uint64(numCodegens-4), 4)
	for i := 0; i < numCodegens; i++ {
		w.writeBits(uint64(d.cgEnc.codes[codeOrder[i]].len), 3)
	}
	for i := 0; ; {
		cw := d.codegen[i]
		i++
		if cw == badCode {
			break
		}
		c := d.cgEnc.codes[cw]
		switch cw {
		case 16:
			w.writeBits(uint64(c.code)|uint64(d.codegen[i])<<c.len, uint(c.len)+2)
			i++
		case 17:
			w.writeBits(uint64(c.code)|uint64(d.codegen[i])<<c.len, uint(c.len)+3)
			i++
		case 18:
			w.writeBits(uint64(c.code)|uint64(d.codegen[i])<<c.len, uint(c.len)+7)
			i++
		default:
			w.writeBits(uint64(c.code), uint(c.len))
		}
	}
}

// generate sets h to the length-limited canonical Huffman code for freq,
// exactly as flate's huffmanEncoder.generate does.
func (d *Deflater) generate(h *huffEncoder, freq []int32, maxBits int32) {
	count := 0
	for i, f := range freq {
		if f != 0 {
			d.keys[count] = uint32(f)<<9 | uint32(i)
			count++
		} else {
			h.codes[i].len = 0
		}
	}
	if count <= 2 {
		// Two or fewer literals all get length 1, in literal order.
		for i := 0; i < count; i++ {
			h.codes[d.keys[i]&0x1ff] = hcode{code: uint16(i), len: 1}
		}
		return
	}
	// byFreq order: frequency, then literal. Keys are unique, so this is
	// the order any correct sort produces.
	keys := d.keys[:count]
	slices.Sort(keys)
	for i, k := range keys {
		d.freqs[i] = int32(k >> 9)
	}
	bitCount := d.bitCounts(h, count, maxBits)

	// The most frequent literals take the shortest codes. flate then sorts
	// each length's literals and hands out consecutive codes; that is the
	// canonical assignment of RFC 1951 §3.2.2, done here in one pass in
	// literal order.
	var next [maxBitsLimit + 1]uint16
	end := count
	code := uint16(0)
	for n, nbits := range bitCount {
		code <<= 1
		next[n] = code
		for _, k := range keys[end-int(nbits) : end] {
			h.codes[k&0x1ff].len = uint16(n)
		}
		end -= int(nbits)
		code += uint16(nbits)
	}
	for i, f := range freq {
		if f != 0 {
			n := h.codes[i].len
			h.codes[i].code = bits.Reverse16(next[n] << (16 - n))
			next[n]++
		}
	}
}

// levelInfo is flate's per-depth state for the package-merge style
// length-limited code construction below.
type levelInfo struct {
	level        int32
	lastFreq     int32
	nextCharFreq int32
	nextPairFreq int32
	needed       int32
}

const maxBitsLimit = 16

// bitCounts returns how many of the n literals in d.freqs (sorted ascending)
// get each code length, limited to maxBits. It is flate's bitCounts
// verbatim, over the frequency column.
func (d *Deflater) bitCounts(h *huffEncoder, n int, maxBits int32) []int32 {
	list := d.freqs[:n+1]
	list[n] = math.MaxInt32
	if maxBits > int32(n)-1 {
		maxBits = int32(n) - 1
	}

	var levels [maxBitsLimit]levelInfo
	var leafCounts [maxBitsLimit][maxBitsLimit]int32
	for level := int32(1); level <= maxBits; level++ {
		levels[level] = levelInfo{
			level:        level,
			lastFreq:     list[1],
			nextCharFreq: list[2],
			nextPairFreq: list[0] + list[1],
		}
		leafCounts[level][level] = 2
		if level == 1 {
			levels[level].nextPairFreq = math.MaxInt32
		}
	}
	levels[maxBits].needed = 2*int32(n) - 4

	level := maxBits
	for {
		l := &levels[level]
		if l.nextPairFreq == math.MaxInt32 && l.nextCharFreq == math.MaxInt32 {
			l.needed = 0
			levels[level+1].nextPairFreq = math.MaxInt32
			level++
			continue
		}
		prevFreq := l.lastFreq
		if l.nextCharFreq < l.nextPairFreq {
			n := leafCounts[level][level] + 1
			l.lastFreq = l.nextCharFreq
			leafCounts[level][level] = n
			l.nextCharFreq = list[n]
		} else {
			l.lastFreq = l.nextPairFreq
			// flate copies leafCounts[level-1][:level]; entries past a
			// row's own level are always zero, so copying the whole row
			// and restoring this level's own count is the same.
			own := leafCounts[level][level]
			leafCounts[level] = leafCounts[level-1]
			leafCounts[level][level] = own
			levels[l.level-1].needed = 2
		}
		if l.needed--; l.needed == 0 {
			if l.level == maxBits {
				break
			}
			levels[l.level+1].nextPairFreq = prevFreq + l.lastFreq
			level++
		} else {
			for levels[level-1].needed > 0 {
				level--
			}
		}
	}
	if leafCounts[maxBits][maxBits] != int32(n) {
		panic("bufpool: deflate bitCounts: leaf count mismatch")
	}

	bitCount := h.bitCount[:maxBits+1]
	nbits := 1
	counts := &leafCounts[maxBits]
	for level := maxBits; level > 0; level-- {
		bitCount[nbits] = counts[level] - counts[level-1]
		nbits++
	}
	return bitCount
}

// bitWriter packs LSB-first bits into buf, the full-capacity view of the
// output slice. Callers reserve each block's exact size first, so the
// per-code writes index without growth checks of their own.
type bitWriter struct {
	buf   []byte
	n     int    // bytes written
	bits  uint64 // pending bits [0, nbits); nbits < 32 between writes
	nbits uint
}

// reserve makes room for nbits more bits of output.
func (w *bitWriter) reserve(nbits int) {
	need := w.n + (int(w.nbits)+nbits+7)/8
	if need > len(w.buf) {
		grown := slices.Grow(w.buf[:w.n], need-w.n)
		w.buf = grown[:cap(grown)]
	}
}

// writeBits writes the low nb ≤ 32 bits of v.
func (w *bitWriter) writeBits(v uint64, nb uint) {
	w.bits |= v << w.nbits
	w.nbits += nb
	if w.nbits >= 32 {
		binary.LittleEndian.PutUint32(w.buf[w.n:], uint32(w.bits))
		w.n += 4
		w.bits >>= 32
		w.nbits -= 32
	}
}

// alignByte flushes the pending bits, zero-padded to a byte boundary.
func (w *bitWriter) alignByte() {
	for w.nbits > 0 {
		w.buf[w.n] = byte(w.bits)
		w.n++
		w.bits >>= 8
		w.nbits -= min(w.nbits, 8)
	}
	w.bits = 0
}

// writeBytes copies b to the output; the writer must be byte-aligned.
func (w *bitWriter) writeBytes(b []byte) {
	w.alignByte()
	w.n += copy(w.buf[w.n:], b)
}

// lengthCodes maps xlength (length-3) to its length code (minus 257).
var lengthCodes = [256]uint32{
	0, 1, 2, 3, 4, 5, 6, 7, 8, 8,
	9, 9, 10, 10, 11, 11, 12, 12, 12, 12,
	13, 13, 13, 13, 14, 14, 14, 14, 15, 15,
	15, 15, 16, 16, 16, 16, 16, 16, 16, 16,
	17, 17, 17, 17, 17, 17, 17, 17, 18, 18,
	18, 18, 18, 18, 18, 18, 19, 19, 19, 19,
	19, 19, 19, 19, 20, 20, 20, 20, 20, 20,
	20, 20, 20, 20, 20, 20, 20, 20, 20, 20,
	21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
	21, 21, 21, 21, 21, 21, 22, 22, 22, 22,
	22, 22, 22, 22, 22, 22, 22, 22, 22, 22,
	22, 22, 23, 23, 23, 23, 23, 23, 23, 23,
	23, 23, 23, 23, 23, 23, 23, 23, 24, 24,
	24, 24, 24, 24, 24, 24, 24, 24, 24, 24,
	24, 24, 24, 24, 24, 24, 24, 24, 24, 24,
	24, 24, 24, 24, 24, 24, 24, 24, 24, 24,
	25, 25, 25, 25, 25, 25, 25, 25, 25, 25,
	25, 25, 25, 25, 25, 25, 25, 25, 25, 25,
	25, 25, 25, 25, 25, 25, 25, 25, 25, 25,
	25, 25, 26, 26, 26, 26, 26, 26, 26, 26,
	26, 26, 26, 26, 26, 26, 26, 26, 26, 26,
	26, 26, 26, 26, 26, 26, 26, 26, 26, 26,
	26, 26, 26, 26, 27, 27, 27, 27, 27, 27,
	27, 27, 27, 27, 27, 27, 27, 27, 27, 27,
	27, 27, 27, 27, 27, 27, 27, 27, 27, 27,
	27, 27, 27, 27, 27, 28,
}

// offsetCodes maps small xoffsets to their offset code; offsetCode
// extends it to the full window.
var offsetCodes = [256]uint32{
	0, 1, 2, 3, 4, 4, 5, 5, 6, 6, 6, 6, 7, 7, 7, 7,
	8, 8, 8, 8, 8, 8, 8, 8, 9, 9, 9, 9, 9, 9, 9, 9,
	10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
	11, 11, 11, 11, 11, 11, 11, 11, 11, 11, 11, 11, 11, 11, 11, 11,
	12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12,
	12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12,
	13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13,
	13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13,
	14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14,
	14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14,
	14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14,
	14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14,
	15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15,
	15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15,
	15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15,
	15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15,
}
