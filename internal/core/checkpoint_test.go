package core

import (
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"

	"repro/internal/nvmeoe"
	"repro/internal/remote"
)

// cpFaultStore fails the first Put of every checkpoint key: a first-touch
// tier fault, the way the chaos injector arms them.
type cpFaultStore struct {
	remote.ObjectStore
	mu   sync.Mutex
	seen map[string]bool
}

func (s *cpFaultStore) Put(key string, data []byte) error {
	if strings.Contains(key, "/cp/") {
		s.mu.Lock()
		first := !s.seen[key]
		s.seen[key] = true
		s.mu.Unlock()
		if first {
			return errors.New("tier fault: checkpoint put")
		}
	}
	return s.ObjectStore.Put(key, data)
}

// TestCheckpointRetryRepushesSameSeq: a checkpoint whose push failed is
// re-pushed under the same Seq while nothing has been logged since, so a
// fault keyed by the checkpoint heals on the retry instead of recurring
// under a fresh key. Once the log moves on, the next call snapshots anew.
func TestCheckpointRetryRepushesSameSeq(t *testing.T) {
	cfg := testConfig()
	store := remote.NewStore(&cpFaultStore{ObjectStore: remote.NewMemStore(), seen: map[string]bool{}})
	srv := remote.NewServer(store, testPSK)
	client, err := remote.Loopback(srv, testPSK, cfg.DeviceID)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	r := New(cfg, client)
	defer r.Close()

	at := churn(t, r, 4, 2, 0)
	if at, err = r.OffloadNow(at); err != nil {
		t.Fatal(err)
	}
	seq := r.Log().NextSeq()
	if _, err := r.CheckpointNow(at); err == nil {
		t.Fatal("first checkpoint push landed: the tier fault never fired")
	}
	if _, err := r.CheckpointNow(at); err != nil {
		t.Fatalf("retry of the same checkpoint failed: %v", err)
	}
	if got := r.Log().NextSeq(); got != seq+1 {
		t.Fatalf("failed push plus retry logged %d checkpoint entries, want 1", got-seq)
	}
	if cp, ok := store.Checkpoint(cfg.DeviceID, ^uint64(0)); !ok || cp.Seq != seq {
		t.Fatalf("stored checkpoint seq %d (found %v), want %d", cp.Seq, ok, seq)
	}
	if n := r.Stats().Checkpoints; n != 1 {
		t.Fatalf("Checkpoints = %d, want 1", n)
	}

	// A failed push, then new log entries: the stale snapshot is not
	// re-pushed; the retry logs a fresh checkpoint at the head.
	if _, err := r.CheckpointNow(at); err == nil {
		t.Fatal("second checkpoint push landed: the tier fault never fired")
	}
	at = churn(t, r, 4, 1, at)
	head := r.Log().NextSeq()
	if _, err := r.CheckpointNow(at); err == nil {
		t.Fatal("fresh checkpoint reused a consumed fault key")
	}
	if _, err := r.CheckpointNow(at); err != nil {
		t.Fatalf("retry of the fresh checkpoint failed: %v", err)
	}
	if cp, ok := store.Checkpoint(cfg.DeviceID, ^uint64(0)); !ok || cp.Seq != head {
		t.Fatalf("newest stored checkpoint seq %d, want the fresh one at %d", cp.Seq, head)
	}
}

// cpDropConn drops the link as the device starts writing a checkpoint
// frame, so the snapshot never reaches the server. The frame header is
// plaintext (magic, version, type), which is what the trigger sniffs.
type cpDropConn struct {
	net.Conn
	mu   sync.Mutex
	dead bool
}

func (c *cpDropConn) Write(p []byte) (int, error) {
	const frameMagic = 0x4E4F4553 // "NOES", see nvmeoe frame header
	c.mu.Lock()
	if len(p) == 20 && binary.LittleEndian.Uint32(p) == frameMagic && p[5] == byte(nvmeoe.MsgCheckpoint) {
		c.dead = true
	}
	dead := c.dead
	c.mu.Unlock()
	if dead {
		c.Conn.Close()
		return 0, errLinkDropped
	}
	return c.Conn.Write(p)
}

// TestCheckpointTransportErrorMarksSessionDead: a checkpoint push that
// dies on the wire marks the session dead, so the next drain redials
// before it ships anything — no segment is sent into the dead session —
// and the retried checkpoint lands on the new session under its old Seq.
func TestCheckpointTransportErrorMarksSessionDead(t *testing.T) {
	cfg := testConfig()
	cfg.DropWhenOffline = false
	store := remote.NewStore(remote.NewMemStore())
	srv := remote.NewServer(store, testPSK)
	cfg.Dial = func() (*remote.Client, error) { return remote.Loopback(srv, testPSK, cfg.DeviceID) }
	dc, sc := net.Pipe()
	srv.Accept(sc)
	client, err := remote.Dial(&cpDropConn{Conn: dc}, testPSK, cfg.DeviceID)
	if err != nil {
		t.Fatal(err)
	}
	r := New(cfg, client)
	defer r.Close()

	at := churn(t, r, 4, 2, 0)
	if at, err = r.OffloadNow(at); err != nil {
		t.Fatal(err)
	}
	seq := r.Log().NextSeq()
	if _, err := r.CheckpointNow(at); err == nil {
		t.Fatal("checkpoint push survived a dropped link")
	}
	if at, err = r.OffloadNow(at); err != nil {
		t.Fatalf("drain after the dropped checkpoint: %v", err)
	}
	st := r.Stats()
	if st.Redials != 1 {
		t.Fatalf("redials = %d, want 1", st.Redials)
	}
	if st.OffloadErrors != 0 {
		t.Fatalf("%d offload errors: a segment was shipped into the dead session", st.OffloadErrors)
	}
	if _, err := r.CheckpointNow(at); err != nil {
		t.Fatalf("retried checkpoint on the redialed session: %v", err)
	}
	if cp, ok := store.Checkpoint(cfg.DeviceID, ^uint64(0)); !ok || cp.Seq != seq {
		t.Fatalf("stored checkpoint seq %d (found %v), want %d", cp.Seq, ok, seq)
	}
}
