package server

import (
	"context"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"ccs/internal/obs"
)

// Metric names of the admission-control layer. Keep metric names as
// package-level consts: the ccslint metriconst analyzer rejects computed
// names so the catalog in DESIGN.md stays greppable and complete.
const (
	// MetricAdmissionAdmittedTotal counts mining requests that won an
	// admission slot (immediately or after queueing).
	MetricAdmissionAdmittedTotal = "ccs_admission_admitted_total"
	// MetricAdmissionRejectedTotal counts mining requests turned away with
	// a 429, by reason (queue_full, queue_wait, deadline, canceled, shed).
	MetricAdmissionRejectedTotal = "ccs_admission_rejected_total"
	// MetricAdmissionQueueDepth gauges requests currently waiting for an
	// admission slot.
	MetricAdmissionQueueDepth = "ccs_admission_queue_depth"
	// MetricAdmissionInFlight gauges mining requests currently holding an
	// admission slot.
	MetricAdmissionInFlight = "ccs_admission_in_flight"
	// MetricAdmissionQueueWaitSeconds observes how long admitted requests
	// waited in the queue (zero-wait admissions observe 0).
	MetricAdmissionQueueWaitSeconds = "ccs_admission_queue_wait_seconds"
	// MetricAdmissionShedStage gauges the load monitor's current
	// degradation stage (0 = normal … 3 = rejecting non-priority tenants).
	MetricAdmissionShedStage = "ccs_admission_shed_stage"
	// MetricAdmissionShedActionsTotal counts graceful-degradation actions
	// applied to admitted requests, by action (workers, deadline,
	// reject).
	MetricAdmissionShedActionsTotal = "ccs_admission_shed_actions_total"
)

// queueWaitBuckets spans sub-millisecond fast-path admissions through
// multi-second queue waits.
var queueWaitBuckets = []float64{0.0001, 0.001, 0.005, 0.025, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

var (
	admissionAdmitted  = obs.Default().Counter(MetricAdmissionAdmittedTotal, "Mining requests that won an admission slot.")
	admissionRejected  = obs.Default().CounterVec(MetricAdmissionRejectedTotal, "Mining requests rejected with 429, by reason.", "reason")
	admissionQueue     = obs.Default().Gauge(MetricAdmissionQueueDepth, "Requests currently waiting for an admission slot.")
	admissionInFlight  = obs.Default().Gauge(MetricAdmissionInFlight, "Mining requests currently holding an admission slot.")
	admissionQueueWait = obs.Default().Histogram(MetricAdmissionQueueWaitSeconds, "Seconds admitted requests spent waiting in the admission queue.", queueWaitBuckets)
	shedStageGauge     = obs.Default().Gauge(MetricAdmissionShedStage, "Current load-shedding stage (0 = normal, 3 = rejecting non-priority tenants).")
	shedActions        = obs.Default().CounterVec(MetricAdmissionShedActionsTotal, "Graceful-degradation actions applied under load, by action.", "action")
)

// AdmissionConfig bounds the number of mining requests the server works on
// at once. MaxInFlight > 0 enables admission control: that many requests
// run concurrently, up to QueueDepth more wait in a bounded queue, and
// everything beyond — or anything that would wait longer than MaxQueueWait
// (or past its own deadline) — is turned away immediately with a
// structured 429 carrying Retry-After. The zero config disables the layer.
type AdmissionConfig struct {
	// MaxInFlight is the number of mining requests served concurrently.
	MaxInFlight int
	// QueueDepth is how many requests may wait for a slot beyond
	// MaxInFlight before new arrivals are rejected outright (0 = no
	// queue: a request either gets a slot immediately or is rejected).
	QueueDepth int
	// MaxQueueWait caps the time one request may spend queued; a request
	// whose own deadline is nearer waits only that long. 0 means requests
	// never wait (immediate slot or 429).
	MaxQueueWait time.Duration
	// SLOP99 is the target p99 latency of the mining route. When set, the
	// load monitor treats a recent p99 above it as pressure and escalates
	// the shed stage; 0 leaves shedding purely occupancy-driven.
	SLOP99 time.Duration
}

// enabled reports whether the config turns admission control on.
func (c AdmissionConfig) enabled() bool { return c.MaxInFlight > 0 }

// rejection describes one admission refusal: the machine-readable reason
// (the ccs_admission_rejected_total label and the 429 body's reason
// field), a human message, and the client's suggested back-off.
type rejection struct {
	reason     string
	message    string
	retryAfter time.Duration
}

// overloadBody is the structured 429 payload. RetryAfterSeconds mirrors
// the Retry-After header so JSON-only clients need not parse headers.
type overloadBody struct {
	Error             string `json:"error"`
	Reason            string `json:"reason"`
	RetryAfterSeconds int    `json:"retry_after_seconds"`
}

// writeOverloaded answers a 429 with the Retry-After header and the
// structured body. Every admission refusal goes through here, which is
// what makes "every 429 carries Retry-After" an invariant rather than a
// convention.
func (s *Server) writeOverloaded(w http.ResponseWriter, rej *rejection) {
	secs := int(rej.retryAfter / time.Second)
	if rej.retryAfter > time.Duration(secs)*time.Second {
		secs++ // round up: never tell a client to retry sooner than we mean
	}
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	s.writeJSON(w, http.StatusTooManyRequests, overloadBody{
		Error:             rej.message,
		Reason:            rej.reason,
		RetryAfterSeconds: secs,
	})
}

// admission is the bounded slot-plus-queue gate in front of the mining
// routes. Slots are a buffered channel (capacity MaxInFlight); the queue
// is not a data structure but the set of goroutines blocked sending into
// it, bounded by an atomic counter so "queue full" is exact, not ±racers.
type admission struct {
	cfg    AdmissionConfig
	slots  chan struct{}
	queued atomic.Int64
}

func newAdmission(cfg AdmissionConfig) *admission {
	return &admission{cfg: cfg, slots: make(chan struct{}, cfg.MaxInFlight)}
}

// inFlight returns the number of admission slots currently held.
func (a *admission) inFlight() int { return len(a.slots) }

// queuedNow returns the number of requests currently waiting for a slot.
func (a *admission) queuedNow() int { return int(a.queued.Load()) }

// retryHint is the back-off suggested when the gate refuses: a full queue
// drains in about one MaxQueueWait, so that (floored at one second) is an
// honest, load-proportional hint.
func (a *admission) retryHint() time.Duration {
	if a.cfg.MaxQueueWait > time.Second {
		return a.cfg.MaxQueueWait
	}
	return time.Second
}

// acquire tries to win an admission slot, queueing within the config's
// bounds. On success it returns the release function (which must be called
// exactly once, when the request finishes) and the time spent queued. On
// refusal it returns a rejection for writeOverloaded. A request whose
// context is already expired — or expires while queued — is rejected with
// reason "deadline" rather than admitted to do work its client has already
// given up on; one that is past its deadline at the moment it is dequeued
// releases the slot immediately and is rejected the same way.
func (a *admission) acquire(ctx context.Context) (release func(), waited time.Duration, rej *rejection) {
	grant := func(w time.Duration) (func(), time.Duration, *rejection) {
		if err := ctx.Err(); err != nil {
			// Dequeued (or arrived) past the deadline: starting a mine now
			// would only produce an instantly-truncated answer nobody reads.
			<-a.slots
			return nil, 0, ctxRejection(err)
		}
		admissionAdmitted.Inc()
		admissionInFlight.Inc()
		admissionQueueWait.Observe(w.Seconds())
		var released atomic.Bool
		return func() {
			if released.CompareAndSwap(false, true) {
				admissionInFlight.Dec()
				<-a.slots
			}
		}, w, nil
	}

	select {
	case a.slots <- struct{}{}:
		return grant(0)
	default:
	}

	// All slots busy: queue if there is room and time.
	if a.queued.Add(1) > int64(a.cfg.QueueDepth) {
		a.queued.Add(-1)
		return nil, 0, &rejection{
			reason:     "queue_full",
			message:    "server overloaded: admission queue full",
			retryAfter: a.retryHint(),
		}
	}
	admissionQueue.Inc()
	defer func() {
		a.queued.Add(-1)
		admissionQueue.Dec()
	}()

	wait := a.cfg.MaxQueueWait
	deadlineLimited := false
	if dl, ok := ctx.Deadline(); ok {
		remaining := time.Until(dl)
		if remaining <= 0 {
			return nil, 0, ctxRejection(context.DeadlineExceeded)
		}
		if remaining < wait {
			// The deadline would expire while queued; wait only as long as
			// the request could still be served — and if that wait runs
			// out, the honest reason is the deadline, not the queue policy.
			wait = remaining
			deadlineLimited = true
		}
	}
	if wait <= 0 {
		return nil, 0, &rejection{
			reason:     "queue_full",
			message:    "server overloaded: all admission slots busy",
			retryAfter: a.retryHint(),
		}
	}

	timer := time.NewTimer(wait)
	defer timer.Stop()
	start := time.Now()
	select {
	case a.slots <- struct{}{}:
		return grant(time.Since(start))
	case <-timer.C:
		if deadlineLimited {
			return nil, 0, ctxRejection(context.DeadlineExceeded)
		}
		return nil, 0, &rejection{
			reason:     "queue_wait",
			message:    "server overloaded: no admission slot within the queue-wait budget",
			retryAfter: a.retryHint(),
		}
	case <-ctx.Done():
		return nil, 0, ctxRejection(ctx.Err())
	}
}

// ctxRejection maps a context error to its admission rejection: a passed
// deadline means "retry with more headroom", a cancellation means the
// client is gone (the 429 is written into the void, but the status keeps
// the response ledger honest — it is not a 5xx).
func ctxRejection(err error) *rejection {
	reason := "deadline"
	message := "request deadline expired before an admission slot freed"
	if err == context.Canceled {
		reason = "canceled"
		message = "request canceled while waiting for admission"
	}
	return &rejection{reason: reason, message: message, retryAfter: time.Second}
}
