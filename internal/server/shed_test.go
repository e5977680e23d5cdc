package server

import (
	"context"
	"testing"
	"time"

	"ccs/internal/obs"
)

// TestLoadMonitorStages drives the monitor with a fake clock and an
// isolated latency histogram: stage escalates with occupancy and recent
// p99, the evaluation is cached between intervals, and the p99 is
// computed over snapshot deltas (recent latency, not process lifetime).
func TestLoadMonitorStages(t *testing.T) {
	reg := obs.NewRegistry()
	hist := reg.Histogram("test_mine_latency_seconds", "test", []float64{0.01, 0.1, 1})
	adm := newAdmission(AdmissionConfig{MaxInFlight: 2, QueueDepth: 4})
	m := newLoadMonitor(adm, hist, 50*time.Millisecond)
	clk := newFakeClock()
	m.now = clk.Now

	if got := m.currentStage(); got != shedStageNone {
		t.Fatalf("idle stage = %d, want 0", got)
	}

	// Saturate the slots: healthy saturation, nothing to shed.
	rel1, _, rej := adm.acquire(context.Background())
	if rej != nil {
		t.Fatal(rej.reason)
	}
	rel2, _, rej := adm.acquire(context.Background())
	if rej != nil {
		t.Fatal(rej.reason)
	}
	clk.Advance(shedEvalInterval)
	if got := m.currentStage(); got != shedStageNone {
		t.Fatalf("stage at full slots = %d, want 0", got)
	}

	// Slow recent traffic: 16 observations at ~0.5s (over 2x the 50ms
	// SLO) must escalate to the deadline stage even with an empty queue —
	// but only once the cached evaluation expires.
	for i := 0; i < 16; i++ {
		hist.Observe(0.5)
	}
	if got := m.currentStage(); got != shedStageNone {
		t.Fatalf("stage before interval elapsed = %d, want cached 0", got)
	}
	clk.Advance(shedEvalInterval)
	if got := m.currentStage(); got != shedStageDeadline {
		t.Fatalf("stage at slow p99 = %d, want %d", got, shedStageDeadline)
	}

	// No new observations: the p99 signal reports absent again (the
	// deltas are empty), and the stage falls back to normal.
	clk.Advance(shedEvalInterval)
	if got := m.currentStage(); got != shedStageNone {
		t.Fatalf("stage after latency recovered = %d, want 0", got)
	}

	rel1()
	rel2()

	var nilMonitor *loadMonitor
	if got := nilMonitor.currentStage(); got != shedStageNone {
		t.Fatalf("nil monitor stage = %d, want 0", got)
	}
}

// TestRecentP99NeedsSamples: fewer than shedMinSamples new observations
// must not produce a p99 (one stray slow request is not overload).
func TestRecentP99NeedsSamples(t *testing.T) {
	reg := obs.NewRegistry()
	hist := reg.Histogram("test_sparse_latency_seconds", "test", []float64{0.01, 0.1, 1})
	adm := newAdmission(AdmissionConfig{MaxInFlight: 2, QueueDepth: 4})
	m := newLoadMonitor(adm, hist, 50*time.Millisecond)
	clk := newFakeClock()
	m.now = clk.Now

	m.currentStage() // prime the first snapshot
	for i := 0; i < shedMinSamples-1; i++ {
		hist.Observe(5)
	}
	clk.Advance(shedEvalInterval)
	if got := m.currentStage(); got != shedStageNone {
		t.Fatalf("stage on %d slow samples = %d, want 0 (below min)", shedMinSamples-1, got)
	}
}
