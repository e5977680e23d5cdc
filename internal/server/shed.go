package server

import (
	"sync"
	"time"

	"ccs/internal/obs"
)

// Shed stages. Under pressure the server degrades in the cheapest-first
// order: give up parallelism, then wall-clock, and only as a last resort
// refuse whole classes of traffic.
const (
	shedStageNone     = 0 // normal operation
	shedStageWorkers  = 1 // clamp the level engine to serial
	shedStageDeadline = 2 // tighten per-request mine deadlines
	shedStageReject   = 3 // reject non-priority tenants outright
)

// shedEvalInterval is how often the monitor recomputes the stage; between
// evaluations every admission sees the cached stage, so one histogram
// snapshot amortizes over many requests.
const shedEvalInterval = 250 * time.Millisecond

// shedDeadlineShrink divides the mine deadline at shedStageDeadline+.
const shedDeadlineShrink = 4

// shedFallbackTimeout is the tightened mine deadline applied at
// shedStageDeadline when the server has no -mine-timeout configured at
// all (there is nothing to shrink, but unbounded mines under overload are
// exactly the collapse mode this layer exists to prevent).
const shedFallbackTimeout = 30 * time.Second

// shedStageFor is the pure stage policy, separated for deterministic
// tests: occupancy of the admission queue and the recent p99 against its
// SLO (0 slo or 0 p99 = signal absent).
//
// The thresholds encode the collapse physics: full slots with an empty
// queue are healthy saturation (stage 0, nothing to shed); a building
// queue means arrivals outpace service (stages 1-2, shed parallelism and
// wall-clock, both of which raise throughput per slot); a nearly full
// queue means the next arrivals are lost anyway, so capacity is reserved
// for tenants that paid for priority (stage 3).
func shedStageFor(queueFrac float64, p99, slo time.Duration) int {
	stage := shedStageNone
	if queueFrac >= 0.25 || (slo > 0 && p99 > slo) {
		stage = shedStageWorkers
	}
	if queueFrac >= 0.5 || (slo > 0 && p99 > 2*slo) {
		stage = shedStageDeadline
	}
	if queueFrac >= 0.9 {
		stage = shedStageReject
	}
	return stage
}

// loadMonitor derives the current shed stage from the admission queue's
// occupancy and the mining route's latency histogram (the existing
// ccs_http_request_duration_seconds series — no second bookkeeping path).
// p99 is computed over the delta between consecutive histogram snapshots,
// so it tracks *recent* latency, not the process lifetime.
type loadMonitor struct {
	adm  *admission
	hist *obs.Histogram // mine-route latency histogram
	slo  time.Duration
	now  func() time.Time

	mu         sync.Mutex
	lastEval   time.Time
	lastCounts []int64
	stage      int
}

// shedMinSamples is the fewest new observations a snapshot delta needs
// before its p99 is trusted; below it the p99 signal reports absent.
const shedMinSamples = 8

func newLoadMonitor(adm *admission, hist *obs.Histogram, slo time.Duration) *loadMonitor {
	return &loadMonitor{adm: adm, hist: hist, slo: slo, now: time.Now}
}

// currentStage returns the shed stage, re-evaluating at most every
// shedEvalInterval.
func (m *loadMonitor) currentStage() int {
	if m == nil {
		return shedStageNone
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.now()
	if !m.lastEval.IsZero() && now.Sub(m.lastEval) < shedEvalInterval {
		return m.stage
	}
	m.lastEval = now

	queueFrac := frac(m.adm.queuedNow(), m.adm.cfg.QueueDepth)
	p99 := m.recentP99Locked()
	m.stage = shedStageFor(queueFrac, p99, m.slo)
	shedStageGauge.Set(int64(m.stage))
	return m.stage
}

// recentP99Locked estimates the p99 of the observations added to the
// histogram since the previous evaluation. Returns 0 (signal absent) when
// too few new samples arrived. An estimate landing in the +Inf bucket
// reports one hour — far beyond any sane SLO, which is the point.
func (m *loadMonitor) recentP99Locked() time.Duration {
	bounds, counts := m.hist.Snapshot()
	prev := m.lastCounts
	m.lastCounts = counts
	if prev == nil || len(prev) != len(counts) {
		return 0
	}
	var total int64
	deltas := make([]int64, len(counts))
	for i := range counts {
		d := counts[i] - prev[i]
		if d < 0 {
			d = 0
		}
		deltas[i] = d
		total += d
	}
	if total < shedMinSamples {
		return 0
	}
	// Smallest bucket bound covering 99% of the new observations.
	need := total - total/100 // ceil(0.99 * total) for integer totals
	var cum int64
	for i, d := range deltas {
		cum += d
		if cum >= need {
			if i < len(bounds) {
				return time.Duration(bounds[i] * float64(time.Second))
			}
			return time.Hour // +Inf bucket
		}
	}
	return time.Hour
}

// frac is n/d guarding d <= 0 (feature disabled) as zero pressure.
func frac(n, d int) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// shedWorkers applies the stage-1 degradation to a resolved worker count:
// serial mining frees cores for the requests already running.
func shedWorkers(stage int, workers int) int {
	if stage >= shedStageWorkers && workers != 1 {
		shedActions.With("workers").Inc()
		return 1
	}
	return workers
}

// shedTimeout returns the tightened mine deadline for stage 2+, or 0 when
// the stage leaves deadlines alone.
func shedTimeout(stage int, mineTimeout time.Duration) time.Duration {
	if stage < shedStageDeadline {
		return 0
	}
	shedActions.With("deadline").Inc()
	if mineTimeout > 0 {
		return mineTimeout / shedDeadlineShrink
	}
	return shedFallbackTimeout
}
