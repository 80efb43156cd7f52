package nvmeoe

import (
	"bytes"
	"crypto/rand"
	"testing"

	"repro/internal/bufpool"
)

// TestAppendCodecMatchesAllocatingAPI pins the append-style entry points to
// the allocating ones: same bytes on the wire, same decode, including the
// stored codec (which Append must copy, never alias).
func TestAppendCodecMatchesAllocatingAPI(t *testing.T) {
	raw := testSegment(t, make([]byte, 8192)).Marshal()
	want := EncodeSegmentBlob(raw)
	got := AppendSegmentBlob(nil, raw)
	if !bytes.Equal(got, want) {
		t.Fatal("AppendSegmentBlob differs from EncodeSegmentBlob")
	}
	// Appending after a prefix must leave the prefix alone.
	withPrefix := AppendSegmentBlob([]byte("prefix"), raw)
	if string(withPrefix[:6]) != "prefix" || !bytes.Equal(withPrefix[6:], want) {
		t.Fatal("AppendSegmentBlob corrupted prefix or body")
	}

	dec, err := AppendDecodeSegmentBlob(nil, want)
	if err != nil || !bytes.Equal(dec, raw) {
		t.Fatalf("AppendDecodeSegmentBlob: %v", err)
	}
	// Stored blob: decoded copy, not an alias of the body.
	noise := make([]byte, 8192)
	rand.Read(noise)
	storedRaw := testSegment(t, noise).Marshal()
	stored := EncodeSegmentBlob(storedRaw)
	if Codec(stored[4]) != CodecStored {
		t.Fatalf("incompressible blob picked %v, want stored", Codec(stored[4]))
	}
	dec, err = AppendDecodeSegmentBlob(nil, stored)
	if err != nil || !bytes.Equal(dec, storedRaw) {
		t.Fatalf("stored decode: %v", err)
	}
	if &dec[0] == &stored[BlobOverhead] {
		t.Fatal("AppendDecodeSegmentBlob aliased its input")
	}
}

// TestCodecSteadyStateAllocs asserts the tentpole contract: the codec hot
// loop — deflate, inflate, blob encode, blob decode — performs zero
// allocations per operation once its pooled buffers are warm.
func TestCodecSteadyStateAllocs(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc assertions run in the non-race job")
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		// Repetitive pages: short Huffman codes, the easy case.
		{"repetitive", bytes.Repeat([]byte("hot loop page "), 512)},
		// Varied pages: dynamic-Huffman blocks with >9-bit codes — the case
		// where stdlib flate allocates link tables per block and the
		// in-house inflater must not.
		{"varied", variedPage(16 << 10)},
	} {
		t.Run(tc.name, func(t *testing.T) { codecSteadyStateAllocs(t, tc.data) })
	}
}

// variedPage builds page content with a wide, skewed byte distribution: it
// deflates well past the stored threshold but forces long dynamic-Huffman
// codes.
func variedPage(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		if i%4 == 0 {
			b[i] = byte((i * 2654435761) >> 16)
		} else {
			b[i] = byte('a' + i%29)
		}
	}
	return b
}

func codecSteadyStateAllocs(t *testing.T, data []byte) {
	seg := testSegment(t, data)
	raw := seg.Marshal()
	blob := EncodeSegmentBlob(raw)
	if Codec(blob[4]) != CodecDeflate {
		t.Fatalf("payload picked codec %v; this test wants the deflate path", Codec(blob[4]))
	}

	scratch := bufpool.Get(2 * len(raw))
	defer scratch.Release()

	if n := testing.AllocsPerRun(50, func() {
		out, ok := AppendDeflate(scratch.B[:0], raw)
		if !ok {
			t.Fatal("compressible payload did not deflate")
		}
		scratch.B = out[:0]
	}); n != 0 {
		t.Errorf("AppendDeflate: %v allocs/op, want 0", n)
	}

	comp, _ := Deflate(raw)
	if n := testing.AllocsPerRun(50, func() {
		out, err := AppendInflate(scratch.B[:0], comp)
		if err != nil {
			t.Fatal(err)
		}
		scratch.B = out[:0]
	}); n != 0 {
		t.Errorf("AppendInflate: %v allocs/op, want 0", n)
	}

	if n := testing.AllocsPerRun(50, func() {
		out := AppendSegmentBlob(scratch.B[:0], raw)
		scratch.B = out[:0]
	}); n != 0 {
		t.Errorf("AppendSegmentBlob: %v allocs/op, want 0", n)
	}

	if n := testing.AllocsPerRun(50, func() {
		out, err := AppendDecodeSegmentBlob(scratch.B[:0], blob)
		if err != nil {
			t.Fatal(err)
		}
		scratch.B = out[:0]
	}); n != 0 {
		t.Errorf("AppendDecodeSegmentBlob: %v allocs/op, want 0", n)
	}
}

func BenchmarkAppendSegmentBlob(b *testing.B) {
	seg := testSegment(b, bytes.Repeat([]byte("bench page "), 512))
	raw := seg.Marshal()
	scratch := bufpool.Get(BlobOverhead + len(raw))
	defer scratch.Release()
	b.ReportAllocs()
	b.SetBytes(int64(len(raw)))
	for i := 0; i < b.N; i++ {
		scratch.B = AppendSegmentBlob(scratch.B[:0], raw)[:0]
	}
}

func BenchmarkAppendDecodeSegmentBlob(b *testing.B) {
	seg := testSegment(b, bytes.Repeat([]byte("bench page "), 512))
	raw := seg.Marshal()
	blob := EncodeSegmentBlob(raw)
	scratch := bufpool.Get(len(raw))
	defer scratch.Release()
	b.ReportAllocs()
	b.SetBytes(int64(len(raw)))
	for i := 0; i < b.N; i++ {
		out, err := AppendDecodeSegmentBlob(scratch.B[:0], blob)
		if err != nil {
			b.Fatal(err)
		}
		scratch.B = out[:0]
	}
}

// TestFrameSteadyStateAllocs: once its pooled buffers are warm, WriteMsg
// allocates nothing per frame, and ReadMsg allocates only the payload it
// returns, for the frames the datapath sends: segment blobs (offload and
// restore chunks, sent as is) and small control messages (acks, fetch
// requests). A frame the layer itself deflates — a checkpoint snapshot —
// also pays the inflater's output growth on read.
func TestFrameSteadyStateAllocs(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc assertions run in the non-race job")
	}
	noise := make([]byte, 8192)
	rand.Read(noise)
	ack := Ack{UpTo: 1 << 20, SvcNs: 12345}
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"blob-deflate", EncodeSegmentBlob(testSegment(t, variedPage(8192)).Marshal())},
		{"blob-stored", EncodeSegmentBlob(testSegment(t, noise).Marshal())},
		{"ack", ack.Marshal()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const runs = 50
			dev, devNC, srv, srvNC := memSessions(t)
			// AllocsPerRun calls its function runs+1 times.
			for i := 0; i < runs+1; i++ {
				if err := dev.WriteMsg(MsgSegment, tc.payload); err != nil {
					t.Fatal(err)
				}
			}
			srvNC.r.Reset(bytes.Clone(devNC.w.Bytes()))
			if n := testing.AllocsPerRun(runs, func() {
				devNC.w.Reset()
				if err := dev.WriteMsg(MsgSegment, tc.payload); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("WriteMsg: %v allocs/op, want 0", n)
			}
			if n := testing.AllocsPerRun(runs, func() {
				_, got, err := srv.ReadMsg()
				if err != nil || !bytes.Equal(got, tc.payload) {
					t.Fatalf("ReadMsg: %v", err)
				}
			}); n != 1 {
				t.Errorf("ReadMsg: %v allocs/op, want 1 (the returned payload)", n)
			}
		})
	}
}
