package experiment

import (
	"reflect"
	"testing"
)

// TestFleetScenario runs the full fleet — 8 devices, concurrent sessions,
// streaming detection, sync baseline — at test scale and checks the
// acceptance properties: every attacked device caught, no false alerts on
// benign traffic, and the async engine's host latency beating the
// synchronous-offload baseline.
func TestFleetScenario(t *testing.T) {
	res, err := Fleet(SmallScale(), 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary
	if s.Devices != 8 || len(res.Rows) != 8 {
		t.Fatalf("fleet size %d/%d, want 8", s.Devices, len(res.Rows))
	}
	if s.Attacked == 0 || s.Caught != s.Attacked {
		t.Fatalf("detection coverage %d/%d attacked devices", s.Caught, s.Attacked)
	}
	if s.FalseAlerts != 0 {
		t.Fatalf("%d false alerts on benign fleet traffic", s.FalseAlerts)
	}
	if s.Segments == 0 {
		t.Fatal("fleet shipped no segments")
	}
	if s.MeanLatUs <= 0 || s.SyncMeanLatUs <= 0 {
		t.Fatalf("latency not measured: %+v", s)
	}
	if s.MeanLatUs >= s.SyncMeanLatUs {
		t.Fatalf("async host latency %.2fµs not below sync baseline %.2fµs",
			s.MeanLatUs, s.SyncMeanLatUs)
	}
	for _, r := range res.Rows {
		if r.Records == 0 || r.PageOps == 0 {
			t.Fatalf("device %d did no work: %+v", r.Device, r)
		}
		if r.Segments == 0 {
			t.Fatalf("device %d shipped nothing: %+v", r.Device, r)
		}
	}
}

// TestFleetDeterministic runs the same fleet twice: every row and summary
// field but the wall-clock ones must repeat exactly, so placement, replay,
// attack and detection outcomes are functions of the inputs alone.
func TestFleetDeterministic(t *testing.T) {
	run := func() *FleetResult {
		res, err := Fleet(SmallScale(), 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		res.Summary.WallMs, res.Summary.PageOpsPerSec, res.Summary.SegmentsPerSec = 0, 0, 0
		return res
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatalf("fleet runs diverged:\n%+v\n%+v", a, b)
	}
}
