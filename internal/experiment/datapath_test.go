package experiment

import (
	"testing"

	"repro/internal/bufpool"
	"repro/internal/nvmeoe"
)

// TestDatapathExperiment runs the CI-sized datapath benchmark end to end:
// the encode-worker replay must ship segments, and the codec hot loops
// must be allocation-free in steady state — the acceptance bar for the
// pooled datapath.
func TestDatapathExperiment(t *testing.T) {
	res, err := Datapath(SmallScale(), 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Variants) != 1 {
		t.Fatalf("want 1 variant, got %d", len(res.Variants))
	}
	for _, v := range res.Variants {
		if v.Segments == 0 || v.SegsPerSec <= 0 {
			t.Fatalf("variant %q shipped nothing: %+v", v.Variant, v)
		}
		if v.WireMB <= 0 {
			t.Fatalf("variant %q recorded no wire bytes", v.Variant)
		}
	}
	if w := res.Variants[0]; w.Variant != "workers" || w.EncodeMs == 0 {
		t.Fatalf("worker variant missing encode accounting: %+v", w)
	}
	byLoop := map[string]DatapathAllocRow{}
	for _, a := range res.Allocs {
		byLoop[a.Loop] = a
	}
	for _, name := range []string{"encode", "decode", "ingest"} {
		if _, ok := byLoop[name]; !ok {
			t.Fatalf("missing alloc row %q", name)
		}
	}
	if bufpool.RaceEnabled {
		t.Log("race build: skipping zero-alloc assertions (instrumentation allocates)")
		return
	}
	if a := byLoop["encode"]; a.AllocsPerOp != 0 {
		t.Errorf("encode hot loop: %v allocs/op, want 0", a.AllocsPerOp)
	}
	// Since the in-house inflater replaced compress/flate on the decode
	// side, there is no per-block table residue left to tolerate: steady
	// state decode is allocation-free, same as encode.
	if a := byLoop["decode"]; a.AllocsPerOp != 0 {
		t.Errorf("decode hot loop: %v allocs/op, want 0", a.AllocsPerOp)
	}
	if res.Ingest == nil || res.Ingest.DecodeAllocsPerOp != 0 {
		t.Errorf("ingest decode loop: %+v, want 0 allocs/op", res.Ingest)
	}
}

// TestIngestExperiment runs the CI-sized server-ingest benchmark at the
// acceptance shape — 64 devices, so the device-to-lane affinity can fill
// the 32-lane pool: every pushed segment must land error-free, the
// per-stage ledger must have real time in it, and the deterministic
// NIC-vs-decode-lane model must show the lane holding >= 0.9 of NIC line
// rate — the wire-speed gate. (Fewer devices than lanes honestly reports
// lower saturation: affinity caps a device at one lane.)
func TestIngestExperiment(t *testing.T) {
	res, err := Ingest(SmallScale(), 64)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Measured
	if want := uint64(m.Devices * m.SegsPerDevice); m.Segments != want || m.Errors != 0 {
		t.Fatalf("ingested %d segments (%d errors), want %d clean", m.Segments, m.Errors, want)
	}
	if m.WireMB <= 0 || m.LogicalMB <= m.WireMB {
		t.Fatalf("wire/logical MB %.3f/%.3f: blobs should be deflate-framed", m.WireMB, m.LogicalMB)
	}
	if m.DecodeMs <= 0 {
		t.Fatal("decode stage ledgered no time")
	}
	if m.DetectMs <= 0 {
		t.Fatal("detection stage ledgered no time")
	}
	if m.Alerts != 0 {
		t.Fatalf("benign ingest raised %d detection alerts", m.Alerts)
	}
	md := res.Model
	if md.Saturation < 0.9 {
		t.Fatalf("model saturation %.3f, want >= 0.9 (decode lane is the bottleneck)", md.Saturation)
	}
	if md.Saturation > 1.0001 {
		t.Fatalf("model saturation %.3f > 1: wire throughput cannot beat the NIC", md.Saturation)
	}
	if md.QueuePeak < 1 {
		t.Fatal("model recorded no lane occupancy")
	}
	if bufpool.RaceEnabled {
		return
	}
	if res.DecodeAllocsPerOp != 0 {
		t.Errorf("ingest decode loop: %v allocs/op, want 0", res.DecodeAllocsPerOp)
	}
}

func BenchmarkDatapathEncodeLoop(b *testing.B) {
	s := SmallScale()
	seg := datapathSegment(s, 16)
	logical := seg.MarshaledSize()
	mbuf := bufpool.Get(logical)
	defer mbuf.Release()
	bbuf := bufpool.Get(logical + 16)
	defer bbuf.Release()
	b.ReportAllocs()
	b.SetBytes(int64(logical))
	for i := 0; i < b.N; i++ {
		raw := seg.AppendMarshal(mbuf.B[:0])
		bbuf.B = nvmeoe.AppendSegmentBlob(bbuf.B[:0], raw)
	}
}
