package core

import (
	"errors"
	"testing"

	"repro/internal/oplog"
	"repro/internal/remote"
	"repro/internal/simclock"
)

// storedPagesMatchLog checks the invariant the offload path owes the log:
// every page record the store persisted carries the DataHash of the write
// entry at its WriteSeq, and its bytes hash to it. It returns the number
// of records checked and how many of them belong to recovery writes.
func storedPagesMatchLog(t *testing.T, st *remote.Store, deviceID uint64) (n, recovered int) {
	t.Helper()
	bySeq := map[uint64]oplog.Entry{}
	for _, e := range st.Entries(deviceID, 0, st.Head(deviceID).NextSeq) {
		bySeq[e.Seq] = e
	}
	for i := 0; ; i++ {
		seg, err := st.FetchSegment(deviceID, i)
		if errors.Is(err, remote.ErrNotFound) {
			return n, recovered
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range seg.Pages {
			e, ok := bySeq[p.WriteSeq]
			if !ok {
				t.Fatalf("segment %d: page lpn %d has no log entry at writeSeq %d", i, p.LPN, p.WriteSeq)
			}
			if p.Hash != e.DataHash {
				t.Fatalf("segment %d: page lpn %d writeSeq %d: record hash differs from the entry's DataHash", i, p.LPN, p.WriteSeq)
			}
			if oplog.HashData(p.Data) != e.DataHash {
				t.Fatalf("segment %d: page lpn %d writeSeq %d: stored bytes differ from what the host wrote", i, p.LPN, p.WriteSeq)
			}
			n++
			if e.Kind == oplog.KindRecovery {
				recovered++
			}
		}
	}
}

// TestStoredPageHashesMatchLog checks the stored-page invariant on a fresh
// device, and again after a power cycle, two restores (hash-reference and
// full-page streams) and more traffic over the restored pages — the
// paths that now carry a page's hash instead of recomputing it.
func TestStoredPageHashesMatchLog(t *testing.T) {
	e := newEnv(t, testConfig())
	_, at := driveTraffic(t, e, 200, 4)
	if _, err := e.r.OffloadNow(at); err != nil {
		t.Fatal(err)
	}
	if n, _ := storedPagesMatchLog(t, e.store, 1); n == 0 {
		t.Fatal("no page records stored")
	}
	cut := e.r.Log().NextSeq()

	r2 := reopenedDevice(t, e, at)
	defer r2.Close()
	e2 := &env{r: r2, store: e.store}
	_, at2 := driveTraffic(t, e2, 100, 5)
	at = max(at, at2)
	srv := remote.NewServer(e.store, testPSK)
	dial := func() (*remote.Client, error) { return remote.Loopback(srv, testPSK, 1) }
	for _, dedup := range []bool{true, false} {
		var err error
		if at, _, err = r2.RestoreImage(cut, RestoreOptions{Dial: dial, ChunkPages: 4, Dedup: dedup}, at); err != nil {
			t.Fatalf("restore (dedup %v): %v", dedup, err)
		}
		// Overwrite the restored pages so their versions retain and ship.
		_, at2 = driveTraffic(t, e2, 100, 6)
		at = max(at, at2).Add(simclock.Millisecond)
	}
	if _, err := r2.OffloadNow(at); err != nil {
		t.Fatal(err)
	}
	n, recovered := storedPagesMatchLog(t, e.store, 1)
	if recovered == 0 {
		t.Fatalf("none of %d stored records came from a restore write", n)
	}
}

// TestCorruptRetainedPageRefused injects bit errors into flash reads. The
// host only writes, and too little for GC to migrate anything, so the only
// reads are the offload engine's background reads of retained pages. A
// corrupted read must be refused by the server's page verify — the record
// carries the page's write-time hash, not one computed over the bad bytes
// — and retried until a clean read ships; no stored page may differ from
// what the host wrote.
func TestCorruptRetainedPageRefused(t *testing.T) {
	cfg := testConfig()
	cfg.FTL.NAND.BitErrorProb = 0.1
	cfg.FTL.NAND.Seed = 3
	e := newEnv(t, cfg)
	at := simclock.Time(0)
	for i := 0; i < 40; i++ {
		var err error
		if at, err = e.r.Write(uint64(i%6), fill(byte(i+1), 512), at); err != nil {
			t.Fatal(err)
		}
		at = at.Add(simclock.Millisecond)
	}
	for tries := 0; ; tries++ {
		var err error
		if at, err = e.r.OffloadNow(at); err == nil {
			break
		}
		if tries == 50 {
			t.Fatalf("offload never settled: %v", err)
		}
	}
	if st := e.r.FTL().Stats(); st.GCMigrates+st.PinMigrates != 0 {
		t.Fatalf("GC migrated pages (%+v): flips may have hit non-offload reads", st)
	}
	if e.r.FTL().Device().Stats().BitErrors == 0 {
		t.Fatal("no bit error injected: the test lost its teeth")
	}
	if n, _ := storedPagesMatchLog(t, e.store, 1); n == 0 {
		t.Fatal("no page records stored")
	}
	if e.r.Stats().OffloadRetries == 0 {
		t.Fatal("server accepted every segment despite corrupted page reads")
	}
	if st := e.r.Stats(); st.RetainedNow != 0 || st.DroppedPages != 0 {
		t.Fatalf("retained pages not all durable: %+v", st)
	}
}
