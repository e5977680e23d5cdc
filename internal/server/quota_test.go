package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ccs/internal/core"
	"ccs/internal/gen"
	"ccs/internal/testutil"
)

// fakeClock is the deterministic time source the quota tests inject: no
// refill happens unless a test advances it explicitly.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestParseQuotas(t *testing.T) {
	cfg, err := ParseQuotas(strings.NewReader(`{
		"tenants": {"acme": {"rate_per_sec": 2, "burst": 5, "priority": true}},
		"api_keys": {"k1": "acme"}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if q := cfg.Tenants["acme"]; q.RatePerSec != 2 || q.Burst != 5 || !q.Priority {
		t.Fatalf("parsed quota = %+v", q)
	}
	for _, bad := range []string{
		`{"tenants": {"x": {"rate_per_sec": -1}}}`,
		`{"tenants": {"x": {"unknown_knob": 1}}}`,
		`{"api_keys": {"k": ""}}`,
	} {
		if _, err := ParseQuotas(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseQuotas(%s) accepted", bad)
		}
	}
}

func TestBucketPostPaid(t *testing.T) {
	clk := newFakeClock()
	b := newBucket(10, 20) // 10 tokens/s, capacity 20
	if !b.take(clk.Now(), 20) {
		t.Fatal("full bucket refused its capacity")
	}
	if b.take(clk.Now(), 1) {
		t.Fatal("empty bucket granted a token without refill")
	}
	clk.Advance(time.Second) // +10 tokens
	if !b.take(clk.Now(), 10) {
		t.Fatal("refilled bucket refused")
	}
	// Post-paid: charge may overdraw, and the deficit delays recovery.
	b.charge(clk.Now(), 25)
	if rem := b.remaining(clk.Now()); rem != -25 {
		t.Fatalf("remaining = %v, want -25", rem)
	}
	if wait := b.untilPositive(clk.Now(), 1); wait != 2600*time.Millisecond {
		t.Fatalf("untilPositive = %v, want 2.6s", wait)
	}
	clk.Advance(3 * time.Second)
	if rem := b.remaining(clk.Now()); rem != 5 {
		t.Fatalf("remaining after refill = %v, want 5", rem)
	}
}

func TestTenantResolution(t *testing.T) {
	qt := newQuotaTable(QuotaConfig{
		Tenants: map[string]TenantQuota{"acme": {}},
		APIKeys: map[string]string{"secret": "acme", "orphan": "ghost"},
	})
	cases := []struct {
		header, value, want string
	}{
		{"", "", DefaultTenant},
		{TenantHeader, "acme", "acme"},
		{TenantHeader, "unknown", DefaultTenant}, // closed label set
		{APIKeyHeader, "secret", "acme"},
		{APIKeyHeader, "wrong", DefaultTenant},
		{APIKeyHeader, "orphan", DefaultTenant}, // key mapped to an undeclared tenant
	}
	for _, c := range cases {
		r := httptest.NewRequest(http.MethodPost, "/v1/mine", nil)
		if c.header != "" {
			r.Header.Set(c.header, c.value)
		}
		if got := qt.tenantNameFor(r); got != c.want {
			t.Errorf("%s=%q resolved to %q, want %q", c.header, c.value, got, c.want)
		}
	}
	var nilTable *quotaTable
	r := httptest.NewRequest(http.MethodPost, "/v1/mine", nil)
	if got := nilTable.tenantNameFor(r); got != DefaultTenant {
		t.Errorf("nil table resolved %q", got)
	}
}

func TestQuotaAdmitReasons(t *testing.T) {
	clk := newFakeClock()
	qt := newQuotaTable(QuotaConfig{Tenants: map[string]TenantQuota{
		"limited": {RatePerSec: 1, Burst: 1, MaxConcurrent: 1, MaxCandidates: 10},
	}})
	qt.now = clk.Now

	ta, rej := qt.admit("limited")
	if rej != nil {
		t.Fatalf("first admit rejected: %q", rej.reason)
	}
	// Same instant: the single burst token is spent.
	if _, rej := qt.admit("limited"); rej == nil || rej.reason != "rate" {
		t.Fatalf("second admit = %+v, want rate rejection", rej)
	}
	clk.Advance(time.Second) // one token back — now concurrency blocks
	if _, rej := qt.admit("limited"); rej == nil || rej.reason != "concurrency" {
		t.Fatalf("concurrent admit = %+v, want concurrency rejection", rej)
	}
	ta.release()
	clk.Advance(time.Second)
	// Exhaust the candidate budget; the next admit must say "budget".
	ta2, rej := qt.admit("limited")
	if rej != nil {
		t.Fatalf("admit after release rejected: %q", rej.reason)
	}
	ta2.charge(10, 0)
	ta2.release()
	clk.Advance(time.Second)
	if _, rej := qt.admit("limited"); rej == nil || rej.reason != "budget" {
		t.Fatalf("post-exhaustion admit = %+v, want budget rejection", rej)
	}
}

func TestClampBudget(t *testing.T) {
	clk := newFakeClock()
	qt := newQuotaTable(QuotaConfig{Tenants: map[string]TenantQuota{
		"acme": {MaxCandidates: 100, MaxCells: 1000},
	}})
	qt.now = clk.Now
	ta, rej := qt.admit("acme")
	if rej != nil {
		t.Fatal(rej.reason)
	}
	defer ta.release()

	// An unbounded request inherits the tenant's balance.
	b := ta.clampBudget(core.Budget{})
	if b.MaxCandidates != 100 || b.MaxCells != 1000 {
		t.Fatalf("clamp of zero budget = %+v", b)
	}
	// A tighter request keeps its own bound; a looser one is clamped.
	b = ta.clampBudget(core.Budget{MaxCandidates: 5, MaxCells: 5000})
	if b.MaxCandidates != 5 || b.MaxCells != 1000 {
		t.Fatalf("mixed clamp = %+v", b)
	}
	// Post-charge, the clamp tracks the drained balance but never hits 0 —
	// an admitted request always gets at least one unit.
	ta.charge(99, 999)
	b = ta.clampBudget(core.Budget{})
	if b.MaxCandidates != 1 || b.MaxCells != 1 {
		t.Fatalf("drained clamp = %+v, want 1/1", b)
	}
}

// quotaServer builds a wide-dataset server with quotas on a fake clock,
// returning the clock for explicit refill control.
func quotaServer(t *testing.T, cfg QuotaConfig, opts ...Option) (*httptest.Server, *fakeClock) {
	t.Helper()
	testutil.CheckGoroutines(t)
	clk := newFakeClock()
	s := New(append(opts, WithQuotas(cfg))...)
	s.quotas.now = clk.Now
	gcfg := gen.DefaultMethod1(2000, 42)
	gcfg.NumItems = 80
	db, err := gen.Method1(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	s.AddDataset("wide", db)
	srv := httptest.NewServer(s)
	t.Cleanup(func() {
		srv.Close()
		http.DefaultClient.CloseIdleConnections()
	})
	return srv, clk
}

// TestMissingTenantHeaderUsesDefaultBucket: anonymous traffic shares the
// "default" envelope — its rate limit applies to requests with no tenant
// header at all.
func TestMissingTenantHeaderUsesDefaultBucket(t *testing.T) {
	srv, _ := quotaServer(t, QuotaConfig{Tenants: map[string]TenantQuota{
		DefaultTenant: {RatePerSec: 1, Burst: 1},
	}})
	resp, body := doJSON(t, http.MethodPost, srv.URL+"/v1/mine", MineRequest{
		Dataset: "wide", Algo: "bms", MaxLevel: 2,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first anonymous mine: %d %s", resp.StatusCode, body)
	}
	// The frozen clock refills nothing: the second anonymous request must
	// hit the same (now empty) default bucket.
	resp, body = doJSON(t, http.MethodPost, srv.URL+"/v1/mine", MineRequest{
		Dataset: "wide", Algo: "bms", MaxLevel: 2,
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second anonymous mine: %d %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var ob overloadBody
	if err := json.Unmarshal(body, &ob); err != nil {
		t.Fatal(err)
	}
	if ob.Reason != "rate" {
		t.Fatalf("reason = %q, want rate", ob.Reason)
	}
}

// TestQuotaExhaustedMidLevel: a mine bigger than the tenant's remaining
// candidate budget is admitted, clamped, and truncated mid-lattice with
// cause "budget" — and the follow-up request is refused outright with the
// same reason. The quota never overdraws by more than the one admitted
// run (the documented +-1).
func TestQuotaExhaustedMidLevel(t *testing.T) {
	srv, _ := quotaServer(t, QuotaConfig{Tenants: map[string]TenantQuota{
		"acme": {MaxCandidates: 40}, // no refill: a hard envelope
	}})
	mine := func() (*http.Response, []byte) {
		t.Helper()
		data, err := json.Marshal(MineRequest{
			Dataset: "wide", Algo: "bms", CellSupportFrac: 0.05, MaxLevel: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/mine", strings.NewReader(string(data)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(TenantHeader, "acme")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		buf, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, buf
	}

	resp, body := mine()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first mine: %d %s", resp.StatusCode, body)
	}
	var mr MineResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if !mr.Truncated || mr.TruncatedCause != "budget" {
		t.Fatalf("first mine truncated=%v cause=%q, want budget truncation (clamp to tenant balance)", mr.Truncated, mr.TruncatedCause)
	}
	if mr.Stats.Candidates == 0 {
		t.Fatal("truncated mine did no work at all")
	}

	resp, body = mine()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("post-exhaustion mine: %d %s, want 429", resp.StatusCode, body)
	}
	var ob overloadBody
	if err := json.Unmarshal(body, &ob); err != nil {
		t.Fatal(err)
	}
	if ob.Reason != "budget" {
		t.Fatalf("reason = %q, want budget", ob.Reason)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

// TestPriorityTenantSurvivesShedding checks the stage-3 policy directly
// on the middleware: with the monitor pinned at the reject stage, a
// priority tenant is still admitted while everyone else is shed.
func TestPriorityTenantSurvivesShedding(t *testing.T) {
	testutil.CheckGoroutines(t)
	s := New(
		WithAdmission(AdmissionConfig{MaxInFlight: 4, QueueDepth: 4}),
		WithQuotas(QuotaConfig{Tenants: map[string]TenantQuota{
			"vip": {Priority: true},
		}}),
	)
	// Pin the monitor at the reject stage: a fresh evaluation would
	// recompute from live occupancy, so park lastEval far in the future.
	s.shed.mu.Lock()
	s.shed.stage = shedStageReject
	s.shed.lastEval = time.Now().Add(time.Hour)
	s.shed.mu.Unlock()

	ok := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusOK) })
	srv := httptest.NewServer(s.admit(ok))
	t.Cleanup(func() {
		srv.Close()
		http.DefaultClient.CloseIdleConnections()
	})

	for _, c := range []struct {
		tenant string
		want   int
	}{
		{"vip", http.StatusOK},
		{"", http.StatusTooManyRequests},
		{"anyone", http.StatusTooManyRequests},
	} {
		req, err := http.NewRequest(http.MethodGet, srv.URL, nil)
		if err != nil {
			t.Fatal(err)
		}
		if c.tenant != "" {
			req.Header.Set(TenantHeader, c.tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("tenant %q at stage 3: %d, want %d", c.tenant, resp.StatusCode, c.want)
		}
		if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
			t.Error("shed 429 without Retry-After")
		}
	}
}
