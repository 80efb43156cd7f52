package bufpool

import (
	"bytes"
	"compress/flate"
	"io"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/workload"
)

// The in-house encoder must emit exactly the bytes of compress/flate at
// BestSpeed: they define the codec's wire and at-rest format, which
// stored blobs already use. compress/flate is the oracle here.

func stdlibBestSpeed(t testing.TB, p []byte) []byte {
	t.Helper()
	var sink bytes.Buffer
	w, err := flate.NewWriter(&sink, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return sink.Bytes()
}

// checkIdentical deflates p with d and demands stdlib's bytes, a stdlib
// decode and an in-house decode that both return p.
func checkIdentical(t testing.TB, d *Deflater, name string, p []byte) {
	t.Helper()
	want := stdlibBestSpeed(t, p)
	got := d.Append(nil, p)
	if !bytes.Equal(got, want) {
		at := 0
		for at < len(got) && at < len(want) && got[at] == want[at] {
			at++
		}
		t.Fatalf("%s (%d bytes): encoding differs from compress/flate at byte %d (len %d vs %d)",
			name, len(p), at, len(got), len(want))
	}
	ref, err := io.ReadAll(flate.NewReader(bytes.NewReader(got)))
	if err != nil || !bytes.Equal(ref, p) {
		t.Fatalf("%s: compress/flate decode of our stream: err=%v equal=%v", name, err, bytes.Equal(ref, p))
	}
	inf := GetInflater()
	dec, err := inf.Append(nil, got)
	inf.Release()
	if err != nil || !bytes.Equal(dec, p) {
		t.Fatalf("%s: Inflater decode of our stream: err=%v equal=%v", name, err, bytes.Equal(dec, p))
	}
}

// TestDeflateMatchesStdlib covers every encSpeed block decision: the empty
// stream, stored (≤16 B) and Huffman-only (<128 B) tails, dynamic blocks,
// Huffman-only and stored fallbacks for poorly compressible blocks, and
// lengths around the 65535-byte block boundary, where matches reach into
// the previous block.
func TestDeflateMatchesStdlib(t *testing.T) {
	d := GetDeflater()
	defer d.Release()
	for name, p := range testPayloads(t) {
		checkIdentical(t, d, name, p)
	}
	rng := rand.New(rand.NewSource(3))
	text := bytes.Repeat([]byte("block boundary text with matches 0123456789abcdef "), 6000)
	noise := make([]byte, len(text))
	rng.Read(noise)
	for _, n := range []int{1, 15, 16, 17, 100, 127, 128, 129, 4096, 65534, 65535, 65536,
		65535 + 16, 65535 + 17, 65535 + 127, 65535 + 128, 2 * 65535, 2*65535 + 1, len(text)} {
		checkIdentical(t, d, "text", text[:n])
		checkIdentical(t, d, "noise", noise[:n])
		half := append(append([]byte(nil), text[:n/2]...), noise[:n-n/2]...)
		checkIdentical(t, d, "half", half)
	}
}

// TestDeflateDecisionBoundaries sweeps inputs across flate's three
// thresholds: matching that removes about 1/16th of a block (Huffman-only
// versus dynamic), and coding that saves about 1/16th (stored versus
// Huffman-only, stored versus dynamic). Random bytes over a shrinking
// alphabet move the Huffman gain; copied chunks move the match gain.
func TestDeflateDecisionBoundaries(t *testing.T) {
	d := GetDeflater()
	defer d.Release()
	rng := rand.New(rand.NewSource(17))
	p := make([]byte, 20000)
	for alphabet := 140; alphabet <= 256; alphabet += 4 {
		for every := 0; every <= 24; every += 2 {
			for i := range p {
				p[i] = byte(rng.Intn(alphabet))
			}
			// Every every-th 32-byte chunk repeats an earlier one.
			for c := 1; every > 0 && c < len(p)/32; c++ {
				if c%every == 0 {
					from := rng.Intn(c) * 32
					copy(p[c*32:c*32+32], p[from:from+32])
				}
			}
			checkIdentical(t, d, "boundary-"+strconv.Itoa(alphabet)+"-"+strconv.Itoa(every), p)
		}
	}
}

// TestDeflateReuseIsHistoryFree reuses one Deflater across streams: a
// pooled encoder must not let one stream's table reach into the next, so
// the output stays stdlib's whatever came before.
func TestDeflateReuseIsHistoryFree(t *testing.T) {
	d := GetDeflater()
	defer d.Release()
	p := bytes.Repeat([]byte("same input twice "), 9000)
	first := d.Append(nil, p)
	for i := 0; i < 3; i++ {
		if again := d.Append(nil, p); !bytes.Equal(again, first) {
			t.Fatalf("run %d: output depends on the previous stream", i)
		}
	}
	// Force the offset rebase both with and without a previous block.
	d.cur = bufferReset - 10
	checkIdentical(t, d, "rebase-start", p)
	d.cur = bufferReset - 3*maxStoreBlockSize
	checkIdentical(t, d, "rebase-mid", p)
}

// TestDeflateAppendsAfterPrefix: output lands after existing dst content.
func TestDeflateAppendsAfterPrefix(t *testing.T) {
	d := GetDeflater()
	defer d.Release()
	p := bytes.Repeat([]byte("prefix fence "), 1000)
	prefix := []byte("header")
	out := d.Append(append(make([]byte, 0, 8), prefix...), p)
	if !bytes.Equal(out[:len(prefix)], prefix) || !bytes.Equal(out[len(prefix):], stdlibBestSpeed(t, p)) {
		t.Fatal("prefix clobbered or stream differs after prefix")
	}
}

// workloadCorpus builds segment-sized buffers from the workload generators'
// pages — the content the device actually offloads — plus ciphertext-mixed
// variants in which a share of the pages is random, as after an encryptor
// overwrote them.
func workloadCorpus(t testing.TB) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	rng := rand.New(rand.NewSource(11))
	for i, prof := range workload.Profiles {
		g := workload.NewGenerator(prof, 4096, 1<<16, int64(i+1))
		for _, pages := range []int{1, 7, 40} {
			var seg, mixed []byte
			for j := 0; j < pages; j++ {
				page := g.Content()
				seg = append(seg, page...)
				if j%3 == 1 {
					rng.Read(page)
				}
				mixed = append(mixed, page...)
			}
			out[prof.Name+"/"+strconv.Itoa(pages)] = seg
			out[prof.Name+"/"+strconv.Itoa(pages)+"/cipher"] = mixed
		}
	}
	return out
}

func TestDeflateWorkloadCorpusMatchesStdlib(t *testing.T) {
	d := GetDeflater()
	defer d.Release()
	for name, p := range workloadCorpus(t) {
		checkIdentical(t, d, name, p)
	}
}

// FuzzDeflateRoundTrip: for any input the encoder's stream equals
// compress/flate's BestSpeed stream, and both decoders return the input.
func FuzzDeflateRoundTrip(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("a"))
	f.Add(bytes.Repeat([]byte("abc"), 100))
	f.Add(bytes.Repeat([]byte{0}, 70000))
	seed := make([]byte, 3000)
	rand.New(rand.NewSource(1)).Read(seed)
	f.Add(seed)
	f.Add(append(bytes.Repeat([]byte("fuzz corpus text "), 300), seed...))
	f.Fuzz(func(t *testing.T, p []byte) {
		d := GetDeflater()
		defer d.Release()
		checkIdentical(t, d, "fuzz", p)
	})
}
