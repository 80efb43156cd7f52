package main

import (
	"strings"
	"testing"

	"repro/internal/batch"
	"repro/internal/bufpool"
	"repro/internal/detect"
)

// Each correctness gate must be able to fail: these tests inject one fault
// per gate and check that the gate reports it, after checking that the
// unfaulted round passes.

func testSpec(base *spec, devices int) *spec {
	s := *base
	s.devices = devices
	return &s
}

// setupRound builds a fleet and runs w's setup and measured phase.
func setupRound(t *testing.T, w *spec) *round {
	t.Helper()
	r := &round{w: w, seed: 7, f: newFleet(nil)}
	t.Cleanup(func() { r.f.teardown() })
	if err := w.setup(r); err != nil {
		t.Fatalf("setup: %v", err)
	}
	r.base = r.snapshot()
	if err := w.measure(r); err != nil {
		t.Fatalf("measure: %v", err)
	}
	return r
}

func TestChainGateFailsOnFlippedEntry(t *testing.T) {
	r := setupRound(t, testSpec(specs["ingest"], 1))
	if err := checkIngest(r); err != nil {
		t.Fatalf("clean ingest round failed its gates: %v", err)
	}
	d := r.f.devs[0]
	head := r.f.store.Head(d.id)
	entries := r.f.store.Entries(d.id, 0, head.NextSeq)
	entries[len(entries)/2].LPN ^= 1
	if _, err := verifyDevice(entries, head, d.rssd.Log()); err == nil {
		t.Fatal("chain gate passed a chain with a flipped entry")
	}
}

func TestDurableGateFailsOnUnackedTail(t *testing.T) {
	r := setupRound(t, testSpec(specs["ingest"], 1))
	d := r.f.devs[0]
	// Host writes after the last OffloadNow: acked frontier no longer
	// covered by the store's head.
	page := make([]byte, pageSize)
	page[0] = 1
	if _, _, err := d.rssd.SubmitBatch([]batch.Op{{Kind: batch.OpWrite, LPN: 3, Data: page}}, d.at); err != nil {
		t.Fatal(err)
	}
	if _, err := r.f.durable(); err == nil {
		t.Fatal("durable gate passed with log entries missing from the store")
	}
}

func TestDetectionGatesFail(t *testing.T) {
	// A benign round that raises an alert fails the ingest gate: the
	// ransom round's alerts stand in for a false positive.
	r := setupRound(t, testSpec(specs["ransom"], 1))
	if err := checkRansom(r); err != nil {
		t.Fatalf("clean ransom round failed its gates: %v", err)
	}
	if err := checkIngest(r); err == nil || !strings.Contains(err.Error(), "alert") {
		t.Fatalf("ingest gate passed a round with alerts: %v", err)
	}
	// An attacked device with no alert fails the ransom gate.
	r.f.eng = detect.NewEngine(detectConfig())
	if err := r.checkCaught(); err == nil {
		t.Fatal("ransom gate passed an uncaught attack")
	}
}

func TestRestoreGateFailsOnFlippedByte(t *testing.T) {
	w := testSpec(specs["restore"], 1)
	r := setupRound(t, w)
	if err := checkRestore(r); err != nil {
		t.Fatalf("clean restore round failed its gates: %v", err)
	}
	r = setupRound(t, w)
	for _, want := range r.wantPages[r.f.devs[0].id] {
		want[pageSize/2] ^= 0x01 // one flipped byte in one verify read
		break
	}
	if err := checkRestore(r); err == nil || !strings.Contains(err.Error(), "page-identical") {
		t.Fatalf("restore gate passed a page that differs by one byte: %v", err)
	}
}

func TestBufpoolGateFailsOnLeak(t *testing.T) {
	w := testSpec(specs["ingest"], 1)
	rn := &run{w: w, seed: 7}
	if err := rn.round(&round{w: w, seed: 7}, nil, processStart); err != nil {
		t.Fatalf("clean round failed: %v", err)
	}
	var leaked *bufpool.Buf
	leaky := *w
	leaky.check = func(r *round) error {
		leaked = bufpool.Get(pageSize)
		return checkIngest(r)
	}
	rn.w = &leaky
	err := rn.round(&round{w: &leaky, seed: 7}, nil, processStart)
	leaked.Release()
	if err == nil || !strings.Contains(err.Error(), "bufpool") {
		t.Fatalf("bufpool gate passed a leaked buffer: %v", err)
	}
}
