package nvmeoe

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/oplog"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// workloadSegments builds offload segments the way the device does — one
// chained log entry per page write, plus the retained stale pages — from a
// workload generator's page content. cipherEvery > 0 replaces every
// cipherEvery-th page with random bytes, as an encryptor's output would be.
func workloadSegments(tb testing.TB, profile string, cipherEvery, nseg int) [][]byte {
	tb.Helper()
	prof, ok := workload.ProfileByName(profile)
	if !ok {
		tb.Fatalf("no workload profile %q", profile)
	}
	const (
		pageSize       = 4096
		writesPerSeg   = 96
		retainedPerSeg = 48
	)
	g := workload.NewGenerator(prof, pageSize, 1<<16, 1)
	rng := rand.New(rand.NewSource(2))
	l := oplog.New()
	var segs [][]byte
	n := 0
	for s := 0; s < nseg; s++ {
		seg := &oplog.Segment{DeviceID: 1}
		for w := 0; w < writesPerSeg; w++ {
			page := g.Content()
			n++
			if cipherEvery > 0 && n%cipherEvery == 0 {
				rng.Read(page)
			}
			e := l.Append(oplog.KindWrite, simclock.Time(n), uint64(rng.Intn(1<<16)), uint64(n), uint64(n+1), 3.5, oplog.HashData(page))
			seg.Entries = append(seg.Entries, e)
			if w < retainedPerSeg {
				seg.Pages = append(seg.Pages, oplog.PageRecord{
					LPN: e.LPN, WriteSeq: e.Seq, StaleSeq: e.Seq + 1, Hash: e.DataHash, Data: page,
				})
			}
		}
		seg.FirstSeq, seg.LastSeq = seg.Entries[0].Seq, seg.Entries[len(seg.Entries)-1].Seq+1
		segs = append(segs, seg.Marshal())
	}
	return segs
}

// workloadCases are the generator mixes the per-layer calibration
// benchmarks run on. "ransom" is hm content with every other page replaced
// by ciphertext.
var workloadCases = []struct {
	name        string
	profile     string
	cipherEvery int
}{
	{"hm", "hm", 0},
	{"src", "src", 0},
	{"usr", "usr", 0},
	{"ransom", "hm", 2},
}

// BenchmarkCodecWorkload measures the segment codec on generator pages, the
// calibration twin of the simulator's encode and decode rates: encode and
// decode throughput in logical MB/s, and the wire compression ratio
// (logical/wire bytes).
func BenchmarkCodecWorkload(b *testing.B) {
	for _, c := range workloadCases {
		b.Run(c.name, func(b *testing.B) {
			raws := workloadSegments(b, c.profile, c.cipherEvery, 8)
			logical, wire := 0, 0
			blobs := make([][]byte, len(raws))
			for i, raw := range raws {
				blobs[i] = AppendSegmentBlob(nil, raw)
				logical += len(raw)
				wire += len(blobs[i])
			}
			enc := bufpool.Get(BlobOverhead + len(raws[0]))
			dec := bufpool.Get(len(raws[0]))
			defer enc.Release()
			defer dec.Release()

			var encT, decT time.Duration
			b.ReportAllocs()
			b.SetBytes(int64(2 * logical))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				for _, raw := range raws {
					enc.B = AppendSegmentBlob(enc.B[:0], raw)
				}
				t1 := time.Now()
				for _, blob := range blobs {
					out, err := AppendDecodeSegmentBlob(dec.B[:0], blob)
					if err != nil {
						b.Fatal(err)
					}
					dec.B = out[:0]
				}
				encT += t1.Sub(t0)
				decT += time.Since(t1)
			}
			mb := float64(logical) * float64(b.N) / 1e6
			b.ReportMetric(mb/encT.Seconds(), "enc-MB/s")
			b.ReportMetric(mb/decT.Seconds(), "dec-MB/s")
			b.ReportMetric(float64(logical)/float64(wire), "ratio")
		})
	}
}

// BenchmarkFrameWorkload measures the AEAD frame layer on the payloads it
// carries in production — codec-framed segment blobs of generator pages —
// as a WriteMsg→ReadMsg round trip over memory: seal plus open, in MB/s of
// blob bytes.
func BenchmarkFrameWorkload(b *testing.B) {
	for _, c := range workloadCases {
		b.Run(c.name, func(b *testing.B) {
			raws := workloadSegments(b, c.profile, c.cipherEvery, 8)
			blobs := make([][]byte, len(raws))
			n := 0
			for i, raw := range raws {
				blobs[i] = AppendSegmentBlob(nil, raw)
				n += len(blobs[i])
			}
			dev, devNC, srv, srvNC := memSessions(b)
			b.ReportAllocs()
			b.SetBytes(int64(n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, blob := range blobs {
					devNC.w.Reset()
					if err := dev.WriteMsg(MsgSegment, blob); err != nil {
						b.Fatal(err)
					}
					srvNC.r.Reset(devNC.w.Bytes())
					if _, _, err := srv.ReadMsg(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkVerifyPagesWorkload measures the server's SHA-256 page verify
// (Segment.VerifyPages, run on every ingested segment) on generator
// segments, in MB/s of page bytes.
func BenchmarkVerifyPagesWorkload(b *testing.B) {
	for _, c := range workloadCases {
		b.Run(c.name, func(b *testing.B) {
			var segs []*oplog.Segment
			n := 0
			for _, raw := range workloadSegments(b, c.profile, c.cipherEvery, 8) {
				seg, err := oplog.UnmarshalSegment(raw)
				if err != nil {
					b.Fatal(err)
				}
				for _, p := range seg.Pages {
					n += len(p.Data)
				}
				segs = append(segs, seg)
			}
			b.ReportAllocs()
			b.SetBytes(int64(n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, seg := range segs {
					if err := seg.VerifyPages(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
