package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"ccs/internal/core"
	"ccs/internal/obs"
)

// Metric names of the per-tenant quota layer. The tenant label is bounded:
// only names declared in the quota config get their own series; every
// unknown or absent tenant accounts under DefaultTenant.
const (
	// MetricTenantRequestsTotal counts mining requests reaching the quota
	// gate, by tenant.
	MetricTenantRequestsTotal = "ccs_tenant_requests_total"
	// MetricTenantRejectedTotal counts quota refusals, by tenant and
	// reason (rate, concurrency, budget).
	MetricTenantRejectedTotal = "ccs_tenant_rejected_total"
	// MetricTenantInFlight gauges admitted mining requests currently
	// running, by tenant.
	MetricTenantInFlight = "ccs_tenant_in_flight"
	// MetricTenantCandidatesChargedTotal counts candidate sets charged
	// against tenant work budgets.
	MetricTenantCandidatesChargedTotal = "ccs_tenant_candidates_charged_total"
	// MetricTenantCellsChargedTotal counts contingency cells charged
	// against tenant work budgets (2^k per k-set — the expensive-mine
	// currency).
	MetricTenantCellsChargedTotal = "ccs_tenant_cells_charged_total"
)

var (
	tenantRequests   = obs.Default().CounterVec(MetricTenantRequestsTotal, "Mining requests reaching the quota gate, by tenant.", "tenant")
	tenantRejected   = obs.Default().CounterVec(MetricTenantRejectedTotal, "Quota refusals, by tenant and reason.", "tenant", "reason")
	tenantInFlight   = obs.Default().GaugeVec(MetricTenantInFlight, "Admitted mining requests currently running, by tenant.", "tenant")
	tenantCandidates = obs.Default().CounterVec(MetricTenantCandidatesChargedTotal, "Candidate sets charged against tenant budgets.", "tenant")
	tenantCells      = obs.Default().CounterVec(MetricTenantCellsChargedTotal, "Contingency cells charged against tenant budgets.", "tenant")
)

// TenantHeader names the request header carrying the tenant identity.
// Requests without it (and without a mapped API key) account under
// DefaultTenant.
const TenantHeader = "X-CCS-Tenant"

// APIKeyHeader names the request header carrying an API key; the quota
// config's api_keys table maps keys to tenant names.
const APIKeyHeader = "X-API-Key"

// DefaultTenant is the bucket shared by every request that does not
// identify a configured tenant.
const DefaultTenant = "default"

// TenantQuota is one tenant's resource envelope. Zero fields are
// unlimited, so the zero quota admits everything — quotas only ever
// subtract capability.
type TenantQuota struct {
	// RatePerSec refills the request token bucket (requests/second);
	// Burst is its capacity (default: RatePerSec rounded up, at least 1).
	// A request arriving with no token is rejected with reason "rate".
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	Burst      int     `json:"burst,omitempty"`
	// MaxConcurrent caps the tenant's simultaneously running mines;
	// reason "concurrency" past it.
	MaxConcurrent int `json:"max_concurrent,omitempty"`
	// MaxCandidates / CandidatesPerSec form a token bucket in candidate
	// sets: capacity and refill rate. A mine's core.Budget is clamped to
	// the bucket's remaining balance before it runs (so the run truncates
	// mid-lattice rather than overdrawing) and the balance is charged with
	// the candidates the run actually generated. An empty bucket rejects
	// with reason "budget".
	MaxCandidates    int64   `json:"max_candidates,omitempty"`
	CandidatesPerSec float64 `json:"candidates_per_sec,omitempty"`
	// MaxCells / CellsPerSec are the same bucket in contingency-table
	// cells (2^k per k-set), the unit that makes an expensive mine count
	// more than a cheap one.
	MaxCells    int64   `json:"max_cells,omitempty"`
	CellsPerSec float64 `json:"cells_per_sec,omitempty"`
	// Priority tenants keep being admitted at shed stage 3, when the
	// overloaded server turns everyone else away.
	Priority bool `json:"priority,omitempty"`
}

// QuotaConfig is the -tenant-quotas file: per-tenant envelopes plus an
// API-key-to-tenant table. The entry named DefaultTenant (if present)
// governs unidentified traffic; with no such entry unidentified traffic is
// unlimited.
type QuotaConfig struct {
	Tenants map[string]TenantQuota `json:"tenants"`
	APIKeys map[string]string      `json:"api_keys,omitempty"`
}

// ParseQuotas decodes a QuotaConfig, rejecting unknown fields so a typoed
// quota never silently means "unlimited".
func ParseQuotas(r io.Reader) (QuotaConfig, error) {
	var cfg QuotaConfig
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return QuotaConfig{}, fmt.Errorf("parse tenant quotas: %w", err)
	}
	for name, q := range cfg.Tenants {
		if q.RatePerSec < 0 || q.Burst < 0 || q.MaxConcurrent < 0 ||
			q.MaxCandidates < 0 || q.CandidatesPerSec < 0 || q.MaxCells < 0 || q.CellsPerSec < 0 {
			return QuotaConfig{}, fmt.Errorf("tenant %q: negative quota values", name)
		}
	}
	for key, tenant := range cfg.APIKeys {
		if tenant == "" {
			return QuotaConfig{}, fmt.Errorf("api key %q maps to an empty tenant", key)
		}
	}
	return cfg, nil
}

// LoadQuotaFile reads a QuotaConfig from a JSON file (ccsserve
// -tenant-quotas).
func LoadQuotaFile(path string) (QuotaConfig, error) {
	f, err := os.Open(path)
	if err != nil {
		return QuotaConfig{}, err
	}
	defer f.Close() //ccslint:ignore droppederr read-only file, close error carries no data loss
	cfg, err := ParseQuotas(f)
	if err != nil {
		return QuotaConfig{}, fmt.Errorf("%s: %w", path, err)
	}
	return cfg, nil
}

// bucket is a token bucket with post-paid charging: take answers
// admission-time questions ("is there any balance?"), charge settles the
// actual cost afterwards and may push the balance negative — which simply
// delays the next admission until refill catches up. That one-request
// overshoot is the documented ±1 of the quota contract; pre-paying is
// impossible because a mine's cost is unknown until it runs.
type bucket struct {
	rate   float64 // tokens per second (0 = no refill)
	cap    float64 // maximum balance
	tokens float64
	last   time.Time
}

func newBucket(rate, capacity float64) bucket {
	return bucket{rate: rate, cap: capacity, tokens: capacity}
}

// refill advances the balance to now. Callers hold the tenant lock.
func (b *bucket) refill(now time.Time) {
	if b.last.IsZero() {
		b.last = now
		return
	}
	if b.rate > 0 {
		if dt := now.Sub(b.last).Seconds(); dt > 0 {
			b.tokens = math.Min(b.cap, b.tokens+dt*b.rate)
		}
	}
	b.last = now
}

// take removes n tokens if the full amount is available.
func (b *bucket) take(now time.Time, n float64) bool {
	b.refill(now)
	if b.tokens < n {
		return false
	}
	b.tokens -= n
	return true
}

// charge settles n tokens after the fact; the balance may go negative.
func (b *bucket) charge(now time.Time, n float64) {
	b.refill(now)
	b.tokens -= n
}

// remaining returns the current balance.
func (b *bucket) remaining(now time.Time) float64 {
	b.refill(now)
	return b.tokens
}

// untilPositive estimates how long until the balance exceeds zero again —
// the Retry-After hint for budget/rate refusals. Math against rate 0
// (a hard cap that never refills) returns a long constant back-off.
func (b *bucket) untilPositive(now time.Time, need float64) time.Duration {
	b.refill(now)
	deficit := need - b.tokens
	if deficit <= 0 {
		return 0
	}
	if b.rate <= 0 {
		return time.Minute
	}
	return time.Duration(deficit / b.rate * float64(time.Second))
}

// tenantState is one tenant's live accounting: its configured quota plus
// the request, candidate, and cell buckets and the in-flight count.
type tenantState struct {
	name string
	q    TenantQuota

	mu         sync.Mutex
	inflight   int
	reqBucket  bucket
	candBucket bucket
	cellBucket bucket
}

func newTenantState(name string, q TenantQuota) *tenantState {
	st := &tenantState{name: name, q: q}
	if q.RatePerSec > 0 {
		burst := q.Burst
		if burst <= 0 {
			burst = int(math.Ceil(q.RatePerSec))
			if burst < 1 {
				burst = 1
			}
		}
		st.reqBucket = newBucket(q.RatePerSec, float64(burst))
	}
	if q.MaxCandidates > 0 {
		st.candBucket = newBucket(q.CandidatesPerSec, float64(q.MaxCandidates))
	}
	if q.MaxCells > 0 {
		st.cellBucket = newBucket(q.CellsPerSec, float64(q.MaxCells))
	}
	return st
}

// quotaTable resolves requests to tenants and enforces their envelopes.
// The tenant map is immutable after construction (all mutation lives in
// the per-tenant states), so lookups need no locking. The clock is
// injectable so quota arithmetic is deterministic under test.
type quotaTable struct {
	now     func() time.Time
	apiKeys map[string]string
	tenants map[string]*tenantState
}

func newQuotaTable(cfg QuotaConfig) *quotaTable {
	qt := &quotaTable{
		now:     time.Now,
		apiKeys: cfg.APIKeys,
		tenants: make(map[string]*tenantState, len(cfg.Tenants)+1),
	}
	for name, q := range cfg.Tenants {
		qt.tenants[name] = newTenantState(name, q)
	}
	if _, ok := qt.tenants[DefaultTenant]; !ok {
		// Unidentified traffic shares one unlimited bucket, so it is still
		// visible per-label in the metrics even when unconstrained.
		qt.tenants[DefaultTenant] = newTenantState(DefaultTenant, TenantQuota{})
	}
	return qt
}

// tenantNameFor resolves a request to a configured tenant name: the
// tenant header if it names a configured tenant, else the API-key mapping,
// else DefaultTenant. Unconfigured header values also collapse to
// DefaultTenant — tenant names are a closed set so the metric label space
// stays bounded no matter what clients send.
func (qt *quotaTable) tenantNameFor(r *http.Request) string {
	if qt == nil {
		return DefaultTenant
	}
	if name := r.Header.Get(TenantHeader); name != "" {
		if _, ok := qt.tenants[name]; ok {
			return name
		}
		return DefaultTenant
	}
	if key := r.Header.Get(APIKeyHeader); key != "" {
		if name, ok := qt.apiKeys[key]; ok {
			if _, ok := qt.tenants[name]; ok {
				return name
			}
		}
	}
	return DefaultTenant
}

// state returns the live accounting for a resolved tenant name.
func (qt *quotaTable) state(name string) *tenantState {
	if st, ok := qt.tenants[name]; ok {
		return st
	}
	return qt.tenants[DefaultTenant]
}

// priority reports whether the resolved tenant survives stage-3 shedding.
func (qt *quotaTable) priority(name string) bool {
	if qt == nil {
		return false
	}
	return qt.state(name).q.Priority
}

// tenantAdmit is one admitted request's handle on its tenant accounting:
// clampBudget composes the tenant's remaining work balance into the
// request's core.Budget, charge settles the work the mine actually did,
// and release returns the concurrency slot. charge and release are
// idempotent-by-construction at the call sites (handler charges once,
// middleware releases once).
type tenantAdmit struct {
	qt *quotaTable
	ts *tenantState
}

// admit runs the tenant gate for one request: rate token, concurrency
// slot, and a non-empty work balance, in that order. On refusal the
// corresponding reason lands on ccs_tenant_rejected_total and the 429.
func (qt *quotaTable) admit(name string) (*tenantAdmit, *rejection) {
	st := qt.state(name)
	now := qt.now()
	tenantRequests.With(st.name).Inc()

	st.mu.Lock()
	defer st.mu.Unlock()
	if st.q.RatePerSec > 0 && !st.reqBucket.take(now, 1) {
		tenantRejected.With(st.name, "rate").Inc()
		return nil, &rejection{
			reason:     "rate",
			message:    fmt.Sprintf("tenant %q over its request rate", st.name),
			retryAfter: st.reqBucket.untilPositive(now, 1),
		}
	}
	if st.q.MaxConcurrent > 0 && st.inflight >= st.q.MaxConcurrent {
		tenantRejected.With(st.name, "concurrency").Inc()
		return nil, &rejection{
			reason:     "concurrency",
			message:    fmt.Sprintf("tenant %q at its concurrency limit (%d)", st.name, st.q.MaxConcurrent),
			retryAfter: time.Second,
		}
	}
	if st.q.MaxCandidates > 0 && st.candBucket.remaining(now) <= 0 {
		tenantRejected.With(st.name, "budget").Inc()
		return nil, &rejection{
			reason:     "budget",
			message:    fmt.Sprintf("tenant %q candidate budget exhausted", st.name),
			retryAfter: st.candBucket.untilPositive(now, 1),
		}
	}
	if st.q.MaxCells > 0 && st.cellBucket.remaining(now) <= 0 {
		tenantRejected.With(st.name, "budget").Inc()
		return nil, &rejection{
			reason:     "budget",
			message:    fmt.Sprintf("tenant %q cell budget exhausted", st.name),
			retryAfter: st.cellBucket.untilPositive(now, 1),
		}
	}
	st.inflight++
	tenantInFlight.With(st.name).Inc()
	return &tenantAdmit{qt: qt, ts: st}, nil
}

// clampBudget composes the tenant's remaining work balance into a
// request's budget: the effective limit is the tighter of what the
// request asked for and what the tenant has left, floored at one
// candidate/cell so an admitted request always gets to do some work (the
// admit gate guaranteed a positive balance moments ago; a concurrent
// charge may have raced it down, and the floor keeps that race a
// truncation rather than a zero-division of nothing).
func (ta *tenantAdmit) clampBudget(b core.Budget) core.Budget {
	now := ta.qt.now()
	ta.ts.mu.Lock()
	defer ta.ts.mu.Unlock()
	if ta.ts.q.MaxCandidates > 0 {
		rem := int64(ta.ts.candBucket.remaining(now))
		if rem < 1 {
			rem = 1
		}
		if b.MaxCandidates == 0 || int64(b.MaxCandidates) > rem {
			b.MaxCandidates = int(rem)
		}
	}
	if ta.ts.q.MaxCells > 0 {
		rem := int64(ta.ts.cellBucket.remaining(now))
		if rem < 1 {
			rem = 1
		}
		if b.MaxCells == 0 || b.MaxCells > rem {
			b.MaxCells = rem
		}
	}
	return b
}

// charge settles the work one finished mine actually performed against
// the tenant's buckets and the charged-work counters.
func (ta *tenantAdmit) charge(candidates int, cells int64) {
	if candidates <= 0 && cells <= 0 {
		return
	}
	now := ta.qt.now()
	ta.ts.mu.Lock()
	if ta.ts.q.MaxCandidates > 0 && candidates > 0 {
		ta.ts.candBucket.charge(now, float64(candidates))
	}
	if ta.ts.q.MaxCells > 0 && cells > 0 {
		ta.ts.cellBucket.charge(now, float64(cells))
	}
	ta.ts.mu.Unlock()
	if candidates > 0 {
		tenantCandidates.With(ta.ts.name).Add(int64(candidates))
	}
	if cells > 0 {
		tenantCells.With(ta.ts.name).Add(cells)
	}
}

// release returns the tenant's concurrency slot.
func (ta *tenantAdmit) release() {
	ta.ts.mu.Lock()
	ta.ts.inflight--
	ta.ts.mu.Unlock()
	tenantInFlight.With(ta.ts.name).Dec()
}

// tenantNames lists the configured tenants, sorted, for /debug/vars.
func (qt *quotaTable) tenantNames() []string {
	names := make([]string, 0, len(qt.tenants))
	for n := range qt.tenants {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
