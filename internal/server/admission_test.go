package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"ccs/internal/testutil"
)

func TestShedStageFor(t *testing.T) {
	cases := []struct {
		name      string
		queueFrac float64
		p99, slo  time.Duration
		want      int
	}{
		{"idle", 0, 0, 0, shedStageNone},
		{"queue building", 0.3, 0, 0, shedStageWorkers},
		{"queue half", 0.5, 0, 0, shedStageDeadline},
		{"queue near full", 0.95, 0, 0, shedStageReject},
		{"p99 over slo", 0, 120 * time.Millisecond, 100 * time.Millisecond, shedStageWorkers},
		{"p99 over twice slo", 0, 250 * time.Millisecond, 100 * time.Millisecond, shedStageDeadline},
		{"p99 without slo", 0, time.Hour, 0, shedStageNone},
	}
	if shedStageWorkers != 1 || shedStageDeadline != 2 || shedStageReject != 3 {
		t.Fatalf("stages numbered %d/%d/%d, want 1/2/3", shedStageWorkers, shedStageDeadline, shedStageReject)
	}
	for _, c := range cases {
		if got := shedStageFor(c.queueFrac, c.p99, c.slo); got != c.want {
			t.Errorf("%s: shedStageFor = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestShedDegradations(t *testing.T) {
	if got := shedWorkers(shedStageWorkers, 8); got != 1 {
		t.Errorf("stage 1 workers = %d, want 1", got)
	}
	if got := shedWorkers(shedStageNone, 8); got != 8 {
		t.Errorf("stage 0 workers = %d, want untouched", got)
	}
	if got := shedTimeout(shedStageDeadline, time.Minute); got != time.Minute/shedDeadlineShrink {
		t.Errorf("stage 2 timeout = %v, want %v", got, time.Minute/shedDeadlineShrink)
	}
	if got := shedTimeout(shedStageDeadline, 0); got != shedFallbackTimeout {
		t.Errorf("stage 2 fallback = %v, want %v", got, shedFallbackTimeout)
	}
	if got := shedTimeout(shedStageWorkers, time.Minute); got != 0 {
		t.Errorf("stage 1 timeout = %v, want 0 (untouched)", got)
	}
}

// TestAcquireExpiredDeadline covers both halves of the deadline contract:
// a request that is past its deadline on arrival is rejected even with
// free slots — and the grant path's re-check releases the slot rather
// than admitting a mine nobody will read.
func TestAcquireExpiredDeadline(t *testing.T) {
	a := newAdmission(AdmissionConfig{MaxInFlight: 1, QueueDepth: 1, MaxQueueWait: time.Second})
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()

	release, _, rej := a.acquire(ctx)
	if rej == nil {
		release()
		t.Fatal("expired request admitted on a free slot")
	}
	if rej.reason != "deadline" {
		t.Fatalf("reason = %q, want deadline", rej.reason)
	}
	if a.inFlight() != 0 {
		t.Fatalf("inFlight = %d after rejected grant, want 0 (slot leak)", a.inFlight())
	}
}

// TestAcquireQueueBounds checks the queue_full rejection once slots and
// queue are exhausted, and that release frees the slot for the next
// arrival.
func TestAcquireQueueBounds(t *testing.T) {
	a := newAdmission(AdmissionConfig{MaxInFlight: 1, QueueDepth: 0})
	rel1, _, rej := a.acquire(context.Background())
	if rej != nil {
		t.Fatalf("first acquire rejected: %v", rej.reason)
	}
	_, _, rej = a.acquire(context.Background())
	if rej == nil || rej.reason != "queue_full" {
		t.Fatalf("second acquire = %+v, want queue_full", rej)
	}
	rel1()
	rel1() // release must be idempotent
	rel2, _, rej := a.acquire(context.Background())
	if rej != nil {
		t.Fatalf("acquire after release rejected: %v", rej.reason)
	}
	rel2()
}

func TestWriteOverloadedRetryAfter(t *testing.T) {
	s := New()
	for _, c := range []struct {
		in   time.Duration
		want int
	}{
		{0, 1},
		{300 * time.Millisecond, 1},
		{time.Second, 1},
		{1500 * time.Millisecond, 2},
		{5 * time.Second, 5},
	} {
		rec := httptest.NewRecorder()
		s.writeOverloaded(rec, &rejection{reason: "test", message: "m", retryAfter: c.in})
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("status = %d, want 429", rec.Code)
		}
		got, err := strconv.Atoi(rec.Header().Get("Retry-After"))
		if err != nil || got != c.want {
			t.Errorf("retryAfter %v: header = %q, want %d", c.in, rec.Header().Get("Retry-After"), c.want)
		}
		var body overloadBody
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		if body.Reason != "test" || body.RetryAfterSeconds != c.want {
			t.Errorf("retryAfter %v: body = %+v", c.in, body)
		}
	}
}

// blockingHandler parks requests until released, so tests can hold
// admission slots deterministically.
type blockingHandler struct {
	started chan struct{} // one send per request that reached the handler
	release chan struct{} // close to let all parked requests finish
}

func (h *blockingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.started <- struct{}{}
	<-h.release
	w.WriteHeader(http.StatusOK)
}

// TestQueuedRequestDeadline429 is the satellite acceptance test: a
// request whose mine deadline expires while it waits in the admission
// queue is answered 429 (reason deadline, Retry-After present) — never
// mined, never 200.
func TestQueuedRequestDeadline429(t *testing.T) {
	testutil.CheckGoroutines(t)
	s := New(WithAdmission(AdmissionConfig{MaxInFlight: 1, QueueDepth: 4, MaxQueueWait: 10 * time.Second}))
	h := &blockingHandler{started: make(chan struct{}, 8), release: make(chan struct{})}
	// The same wrapper order the real mining routes use: the admission
	// gate runs inside the mine deadline.
	srv := httptest.NewServer(withTimeout(100*time.Millisecond, s.admit(h)))
	t.Cleanup(func() {
		srv.Close()
		http.DefaultClient.CloseIdleConnections()
	})
	// Unblock the parked request even when an assertion fails mid-test,
	// or srv.Close deadlocks on it.
	var releaseOnce sync.Once
	unpark := func() { releaseOnce.Do(func() { close(h.release) }) }
	t.Cleanup(unpark)

	first := make(chan error, 1)
	go func() {
		resp, err := http.Get(srv.URL)
		if err == nil {
			resp.Body.Close()
		}
		first <- err
	}()
	<-h.started // the slot is now held for longer than any queued deadline

	resp, body := doJSON(t, http.MethodGet, srv.URL, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queued-past-deadline request: %d %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var ob overloadBody
	if err := json.Unmarshal(body, &ob); err != nil {
		t.Fatal(err)
	}
	if ob.Reason != "deadline" {
		t.Fatalf("reason = %q, want deadline", ob.Reason)
	}

	unpark()
	if err := <-first; err != nil {
		t.Fatalf("slot-holding request failed: %v", err)
	}
}

// TestLastSlotContention pins down the boundary the quota/admission
// contract promises to hold within +-1: with one slot and no queue,
// exactly one of two tenants' simultaneous requests is admitted and the
// other gets a structured 429.
func TestLastSlotContention(t *testing.T) {
	testutil.CheckGoroutines(t)
	s := New(
		WithAdmission(AdmissionConfig{MaxInFlight: 1, QueueDepth: 0}),
		WithQuotas(QuotaConfig{Tenants: map[string]TenantQuota{
			"alpha": {}, "beta": {},
		}}),
	)
	h := &blockingHandler{started: make(chan struct{}, 8), release: make(chan struct{})}
	srv := httptest.NewServer(s.admit(h))
	t.Cleanup(func() {
		srv.Close()
		http.DefaultClient.CloseIdleConnections()
	})
	var releaseOnce sync.Once
	unpark := func() { releaseOnce.Do(func() { close(h.release) }) }
	t.Cleanup(unpark)

	winner := make(chan int, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodGet, srv.URL, nil)
		req.Header.Set(TenantHeader, "alpha")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			winner <- 0
			return
		}
		resp.Body.Close()
		winner <- resp.StatusCode
	}()
	<-h.started // alpha holds the only slot

	req, _ := http.NewRequest(http.MethodGet, srv.URL, nil)
	req.Header.Set(TenantHeader, "beta")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("loser of the last slot got %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	unpark()
	if got := <-winner; got != http.StatusOK {
		t.Fatalf("winner of the last slot got %d, want 200", got)
	}
}

// TestOverloadSoakOnlyStructuredOutcomes is the acceptance soak in
// miniature: 4x more concurrent mines than admission capacity, and every
// single response must be 200 (possibly truncated) or a 429 with
// Retry-After — never a 5xx.
func TestOverloadSoakOnlyStructuredOutcomes(t *testing.T) {
	testutil.CheckGoroutines(t)
	srv := wideServer(t,
		WithMineTimeout(5*time.Second),
		WithAdmission(AdmissionConfig{MaxInFlight: 2, QueueDepth: 2, MaxQueueWait: 20 * time.Millisecond}),
	)

	const clients = 16 // 4x the slots+queue capacity
	type outcome struct {
		status     int
		retryAfter string
	}
	results := make(chan outcome, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := doJSONClient(t, srv.URL+"/v1/mine", MineRequest{
				Dataset: "wide", Algo: "bms", CellSupportFrac: 0.05, MaxLevel: 3,
			})
			results <- outcome{resp.StatusCode, resp.Header.Get("Retry-After")}
		}()
	}
	wg.Wait()
	close(results)

	counts := map[int]int{}
	for o := range results {
		counts[o.status]++
		switch o.status {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			if o.retryAfter == "" {
				t.Error("429 without Retry-After")
			}
		default:
			t.Errorf("disallowed status %d under overload", o.status)
		}
	}
	if counts[http.StatusOK] == 0 {
		t.Errorf("no request succeeded under overload: %v", counts)
	}
}

// doJSONClient posts JSON from a goroutine without t.Fatal (which must
// not be called off the test goroutine).
func doJSONClient(t *testing.T, url string, body interface{}) (*http.Response, []byte) {
	data, err := json.Marshal(body)
	if err != nil {
		t.Errorf("marshal: %v", err)
		return &http.Response{Header: http.Header{}}, nil
	}
	resp, err := http.DefaultClient.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Errorf("request to %s failed: %v", url, err)
		return &http.Response{Header: http.Header{}}, nil
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Errorf("read body: %v", err)
	}
	return resp, buf
}
