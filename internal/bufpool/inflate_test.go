package bufpool

import (
	"bytes"
	"compress/flate"
	"io"
	"math/rand"
	"testing"
)

// The in-house inflate is cross-checked against compress/flate: everything
// any stdlib compression level emits must decode byte-identically, every
// truncation must error, and random corruption must never panic or diverge
// from stdlib's accept/reject verdict.

func deflateWith(t *testing.T, level int, payload []byte) []byte {
	t.Helper()
	var sink bytes.Buffer
	w, err := flate.NewWriter(&sink, level)
	if err != nil {
		t.Fatalf("NewWriter(%d): %v", level, err)
	}
	if _, err := w.Write(payload); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return sink.Bytes()
}

func inflateAll(comp []byte) ([]byte, error) {
	i := GetInflater()
	defer i.Release()
	return i.Append(nil, comp)
}

// testPayloads covers the block shapes the codec meets in practice: empty
// and tiny streams, pure RLE (single-symbol distance tables), fixed- and
// dynamic-Huffman text, incompressible noise, and multi-block sizes.
func testPayloads(t *testing.T) map[string][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	noise := make([]byte, 192<<10)
	rng.Read(noise)
	mixed := make([]byte, 256<<10)
	for i := range mixed {
		if i%3 == 0 {
			mixed[i] = byte(rng.Intn(256))
		} else {
			mixed[i] = byte('a' + i%23)
		}
	}
	text := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog 0123456789 "), 2000)
	pagelike := make([]byte, 64<<10)
	for i := range pagelike {
		pagelike[i] = byte((i * 2654435761) >> 13)
	}
	// Short copies between random literals, mostly from near by and now
	// and then from far back: the rare far distances get long codes on
	// top of 13 extra bits, the widest length/distance pairs.
	fardist := make([]byte, 0, 256<<10)
	fardist = append(fardist, noise[:40<<10]...)
	for len(fardist) < cap(fardist)-64 {
		n := 4 + rng.Intn(12)
		from := len(fardist) - 16 - rng.Intn(200)
		if rng.Intn(16) == 0 {
			from = len(fardist) - 16384 - rng.Intn(16000)
		}
		fardist = append(fardist, fardist[from:from+n]...)
		fardist = append(fardist, noise[rng.Intn(len(noise)-8):][:1+rng.Intn(6)]...)
	}
	return map[string][]byte{
		"empty":    nil,
		"one":      []byte{0x42},
		"short":    []byte("hello"),
		"rle":      bytes.Repeat([]byte{'a'}, 100_000),
		"period3":  bytes.Repeat([]byte("abc"), 40_000),
		"text":     text,
		"noise":    noise,
		"mixed":    mixed,
		"pagelike": pagelike,
		"fardist":  fardist,
		"allbytes": func() []byte {
			b := make([]byte, 4096)
			for i := range b {
				b[i] = byte(i)
			}
			return bytes.Repeat(b, 8)
		}(),
	}
}

func TestInflateMatchesStdlibAcrossLevels(t *testing.T) {
	levels := []int{flate.HuffmanOnly, flate.NoCompression, 1, 2, 5, 6, 9}
	for name, payload := range testPayloads(t) {
		for _, level := range levels {
			comp := deflateWith(t, level, payload)
			got, err := inflateAll(comp)
			if err != nil {
				t.Fatalf("%s/level %d: inflate: %v", name, level, err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("%s/level %d: roundtrip mismatch (%d vs %d bytes)", name, level, len(got), len(payload))
			}
		}
	}
}

// TestInflateAppendsAfterPrefix checks the stream-start fence: output lands
// after existing dst content, and back-references may not reach into it.
func TestInflateAppendsAfterPrefix(t *testing.T) {
	payload := bytes.Repeat([]byte("prefix fence "), 1000)
	comp := deflateWith(t, flate.BestSpeed, payload)
	prefix := []byte("unrelated header bytes")
	i := GetInflater()
	defer i.Release()
	dst := append([]byte(nil), prefix...)
	out, err := i.Append(dst, comp)
	if err != nil {
		t.Fatalf("inflate: %v", err)
	}
	if !bytes.Equal(out[:len(prefix)], prefix) {
		t.Fatal("prefix clobbered")
	}
	if !bytes.Equal(out[len(prefix):], payload) {
		t.Fatal("payload mismatch after prefix")
	}
}

// TestInflateSyncFlush covers the empty stored blocks a Flush injects
// mid-stream.
func TestInflateSyncFlush(t *testing.T) {
	var sink bytes.Buffer
	w, _ := flate.NewWriter(&sink, flate.BestSpeed)
	w.Write([]byte("first half "))
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	w.Write([]byte("second half"))
	w.Close()
	got, err := inflateAll(sink.Bytes())
	if err != nil {
		t.Fatalf("inflate: %v", err)
	}
	if string(got) != "first half second half" {
		t.Fatalf("got %q", got)
	}
}

func TestInflateTruncationAlwaysErrors(t *testing.T) {
	payloads := testPayloads(t)
	for _, name := range []string{"short", "rle", "text", "noise"} {
		for _, level := range []int{flate.NoCompression, flate.BestSpeed, 9} {
			comp := deflateWith(t, level, payloads[name])
			step := 1
			if len(comp) > 512 {
				step = len(comp) / 256
			}
			for cut := 0; cut < len(comp); cut += step {
				if _, err := inflateAll(comp[:cut]); err == nil {
					t.Fatalf("%s/level %d: prefix of %d/%d bytes decoded without error", name, level, cut, len(comp))
				}
			}
		}
	}
}

// TestInflateMutationDifferential flips random bits and demands verdict
// agreement with stdlib: both reject, or both accept with identical output.
func TestInflateMutationDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	payload := bytes.Repeat([]byte("mutation corpus: pages, chains, hashes. "), 400)
	for _, level := range []int{flate.NoCompression, flate.BestSpeed, 9} {
		comp := deflateWith(t, level, payload)
		for trial := 0; trial < 300; trial++ {
			mut := append([]byte(nil), comp...)
			mut[rng.Intn(len(mut))] ^= 1 << uint(rng.Intn(8))

			ref, refErr := io.ReadAll(flate.NewReader(bytes.NewReader(mut)))
			got, gotErr := inflateAll(mut)
			if (refErr == nil) != (gotErr == nil) {
				t.Fatalf("level %d trial %d: verdict divergence: stdlib err=%v, ours err=%v", level, trial, refErr, gotErr)
			}
			if refErr == nil && !bytes.Equal(ref, got) {
				t.Fatalf("level %d trial %d: both accepted but outputs differ (%d vs %d bytes)", level, trial, len(ref), len(got))
			}
		}
	}
}

func TestInflateRejectsReservedBlockType(t *testing.T) {
	// final=1, type=3 (reserved).
	if _, err := inflateAll([]byte{0x07}); err != ErrCorrupt {
		t.Fatalf("reserved block type: err=%v, want ErrCorrupt", err)
	}
}

func TestInflateStoredLenMismatch(t *testing.T) {
	// final=1, type=0, then LEN=5 with a bad NLEN.
	bad := []byte{0x01, 0x05, 0x00, 0x00, 0x00, 'a', 'b', 'c', 'd', 'e'}
	if _, err := inflateAll(bad); err != ErrCorrupt {
		t.Fatalf("stored LEN/~NLEN mismatch: err=%v, want ErrCorrupt", err)
	}
}

// TestInflateDynamicSteadyStateAllocs is the reason this decoder exists:
// realistic multi-kilobyte payloads compress to dynamic-Huffman blocks,
// which stdlib flate pays ~16 allocs/op to re-table. The in-house decoder
// must decode them for free.
func TestInflateDynamicSteadyStateAllocs(t *testing.T) {
	if RaceEnabled {
		t.Skip("race instrumentation allocates; alloc assertions run in the non-race job")
	}
	payloads := testPayloads(t)
	for _, name := range []string{"mixed", "pagelike", "text"} {
		payload := payloads[name]
		comp := deflateWith(t, flate.BestSpeed, payload)
		out := Get(len(payload) + 1024)
		if n := testing.AllocsPerRun(30, func() {
			i := GetInflater()
			var err error
			out.B, err = i.Append(out.B[:0], comp)
			i.Release()
			if err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: Inflater.Append: %v allocs/op, want 0", name, n)
		}
		if !bytes.Equal(out.B, payload) {
			t.Fatalf("%s: roundtrip mismatch", name)
		}
		out.Release()
	}
}

// subtree appends the code lengths of a complete subtree hanging off one
// root prefix: lengths root+1 .. root+depth-1 once each and root+depth
// twice, the fewest codes that give a subtable of 2^depth entries.
func subtree(lens []uint8, root, depth int) []uint8 {
	for d := 1; d < depth; d++ {
		lens = append(lens, uint8(root+d))
	}
	return append(lens, uint8(root+depth), uint8(root+depth))
}

// completeWith appends short codes covering the Kraft mass left after
// the subtrees, largest first, so the whole code is complete.
func completeWith(lens []uint8, leftOver, root int) []uint8 {
	for l := 1; leftOver > 0; l++ {
		if w := 1 << (root - l); leftOver >= w {
			lens = append(lens, uint8(l))
			leftOver -= w
		}
	}
	return lens
}

// TestBuildTableWorstCaseSubtables builds the complete codes with the most
// subtable space the size bounds allow for: they must build (the overflow
// guard is unreachable for valid codes) within the fixed arrays.
func TestBuildTableWorstCaseSubtables(t *testing.T) {
	var lit []uint8
	for i := 0; i < 46; i++ {
		lit = subtree(lit, litRootBits, maxCodeBits-litRootBits)
	}
	lit = completeWith(lit, 1<<litRootBits-46, litRootBits)
	if len(lit) > 286 {
		t.Fatalf("literal code has %d symbols", len(lit))
	}
	var tab [litTableSize]uint32
	info := make([]uint32, len(lit))
	if err := buildTable(tab[:], litRootBits, lit, info); err != nil {
		t.Fatalf("literal/length worst case: %v", err)
	}

	var dist []uint8
	for i := 0; i < 2; i++ {
		dist = subtree(dist, distRootBits, maxCodeBits-distRootBits)
	}
	dist = completeWith(dist, 1<<distRootBits-2, distRootBits)
	if len(dist) > 30 {
		t.Fatalf("distance code has %d symbols", len(dist))
	}
	var dtab [distTableSize]uint32
	if err := buildTable(dtab[:], distRootBits, dist, make([]uint32, len(dist))); err != nil {
		t.Fatalf("distance worst case: %v", err)
	}
}

// TestInflateLongCodes decodes streams whose Huffman codes reach the
// 15-bit limit: Fibonacci-skewed literal frequencies push the rarest
// symbols deep, through the second table level.
func TestInflateLongCodes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var p []byte
	a, b := 1, 1
	for sym := 0; sym < 24; sym++ {
		p = append(p, bytes.Repeat([]byte{byte(sym * 7)}, a)...)
		a, b = b, a+b
	}
	rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	for _, level := range []int{flate.HuffmanOnly, flate.BestSpeed, 9} {
		comp := deflateWith(t, level, p)
		got, err := inflateAll(comp)
		if err != nil || !bytes.Equal(got, p) {
			t.Fatalf("level %d: err=%v equal=%v", level, err, bytes.Equal(got, p))
		}
	}
}
