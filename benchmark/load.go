package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ccs/internal/counting"
	"ccs/internal/dataset"
	"ccs/internal/obs"
	"ccs/internal/server"
	"ccs/internal/tidlist"
)

// mineTimeout is ccsserve's -mine-timeout default; the replay applies it
// too, as the server's timeout middleware does.
const mineTimeout = time.Minute

// liveServer is one in-process server on a loopback listener, configured
// like ccsserve's defaults: 32 MiB prefix cache, GOMAXPROCS workers, auto
// backend, admission off. Only the request log differs: it is formatted as
// usual but written to io.Discard instead of stderr.
type liveServer struct {
	http   *http.Server
	base   string
	client *http.Client
	served chan error
}

func startServer() (*liveServer, error) {
	srv := server.New(
		server.WithMineTimeout(mineTimeout),
		server.WithCacheBytes(counting.DefaultCacheBytes),
		server.WithWorkers(0),
		server.WithBackend(tidlist.BackendAuto),
		server.WithLogWriter(io.Discard),
	)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	ls := &liveServer{
		http: &http.Server{
			Handler:           srv,
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       30 * time.Second,
			WriteTimeout:      5 * time.Minute,
		},
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true}},
		served: make(chan error, 1),
	}
	go func() { ls.served <- ls.http.Serve(ln) }()
	return ls, nil
}

// close shuts the server down and waits for its Serve goroutine to return.
func (ls *liveServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := ls.http.Shutdown(ctx)
	ls.client.CloseIdleConnections()
	if serr := <-ls.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// do sends one request and reads the whole body into buf.
func (ls *liveServer) do(method, path string, body []byte, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(method, ls.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := ls.client.Do(req)
	if err != nil {
		return 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, err
}

// client is one closed-loop client: it sends its next operation when the
// previous one returns.
type client struct {
	id      int
	dataset string
	version int      // the version the server holds for dataset
	bodies  [][]byte // POST /v1/mine bodies, one per workload request
	ops     int      // operations sent, across windows
	mines   int      // mines sent, across windows; picks the next request
	buf     bytes.Buffer
	enc     bytes.Buffer // the replay's response encoding buffer
	log     opLog
}

// opLog is what a client observed in one window.
type opLog struct {
	ops, mines, failed, wrong int
	mineLat, putLat           []time.Duration
	// traced runs only: the three ways a mine was served, and the traces
	httpLat, tracedLat, untracedLat []time.Duration
	traces                          []*replayTrace
}

func (l *opLog) merge(o *opLog) {
	l.ops += o.ops
	l.mines += o.mines
	l.failed += o.failed
	l.wrong += o.wrong
	l.mineLat = append(l.mineLat, o.mineLat...)
	l.putLat = append(l.putLat, o.putLat...)
	l.httpLat = append(l.httpLat, o.httpLat...)
	l.tracedLat = append(l.tracedLat, o.tracedLat...)
	l.untracedLat = append(l.untracedLat, o.untracedLat...)
	l.traces = append(l.traces, o.traces...)
}

// bench is one workload prepared for measurement.
type bench struct {
	w        workload
	versions []version
	refs     [][]reference // [version][request]
	clients  []*client
	tracer   *obs.Tracer // the replay's mine-trace ring, as the server keeps one
}

func newBench(w workload, seed int64, quick bool) (*bench, error) {
	versions, err := buildVersions(w, seed, quick)
	if err != nil {
		return nil, err
	}
	refs, err := computeReferences(w, versions)
	if err != nil {
		return nil, err
	}
	b := &bench{w: w, versions: versions, refs: refs, tracer: obs.NewTracer(128)}
	// A client per core at most: more would measure CPU queueing.
	clients := min(w.clients, runtime.NumCPU())
	for id := 0; id < clients; id++ {
		c := &client{id: id, dataset: "corpus"}
		if w.churn {
			c.dataset = fmt.Sprintf("churn-%d", id)
		}
		for _, req := range w.requests {
			req.Dataset = c.dataset
			body, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			c.bodies = append(c.bodies, body)
		}
		b.clients = append(b.clients, c)
	}
	return b, nil
}

// owners returns one client per dataset name: every client of a churn
// workload, the first client otherwise.
func (b *bench) owners() []*client {
	if b.w.churn {
		return b.clients
	}
	return b.clients[:1]
}

// put uploads version v of c's dataset and records the new version.
func (b *bench) put(ls *liveServer, c *client, v int) (time.Duration, error) {
	start := time.Now()
	status, err := ls.do(http.MethodPut, "/v1/datasets/"+c.dataset, b.versions[v].body, &c.buf)
	lat := time.Since(start)
	if err == nil && status != http.StatusCreated {
		err = fmt.Errorf("PUT %s: status %d: %s", c.dataset, status, bytes.TrimSpace(c.buf.Bytes()))
	}
	if err != nil {
		return lat, err
	}
	c.version = v
	return lat, nil
}

// mine sends c's request i over HTTP and checks the answers against the
// reference for the version c's dataset holds.
func (b *bench) mine(ls *liveServer, c *client, i int) (lat time.Duration, ok, correct bool) {
	start := time.Now()
	status, err := ls.do(http.MethodPost, "/v1/mine", c.bodies[i], &c.buf)
	lat = time.Since(start)
	if err != nil || status != http.StatusOK {
		return lat, false, true
	}
	return lat, true, b.refs[c.version][i].matches(c.buf.Bytes())
}

// setUp starts a fresh server and brings every dataset to its first 200:
// the PUTs, then one cold mine per dataset. It returns the server and the
// set-up time.
func (b *bench) setUp() (*liveServer, time.Duration, error) {
	start := time.Now()
	ls, err := startServer()
	if err != nil {
		return nil, 0, err
	}
	for _, c := range b.owners() {
		if _, err := b.put(ls, c, c.id%len(b.versions)); err != nil {
			return nil, 0, errors.Join(err, ls.close())
		}
	}
	for _, c := range b.owners() {
		if _, ok, correct := b.mine(ls, c, 0); !ok || !correct {
			return nil, 0, errors.Join(fmt.Errorf("set-up mine on %s: ok=%v correct=%v: %.200s", c.dataset, ok, correct, c.buf.Bytes()), ls.close())
		}
	}
	return ls, time.Since(start), nil
}

// uploadPhase times n re-uploads of the first client's current version,
// one at a time: the upload latency of a workload whose loop uploads
// nothing. Every workload reports every end-to-end metric, and none may
// read 0. Each upload starts from a freshly collected heap; otherwise
// whether a collection lands inside an upload decides its latency, and
// the share that pay for one drifts from run to run.
func (b *bench) uploadPhase(ls *liveServer, n int) ([]time.Duration, error) {
	c := b.clients[0]
	lats := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		runtime.GC()
		lat, err := b.put(ls, c, c.version)
		if err != nil {
			return nil, err
		}
		lats = append(lats, lat)
	}
	return lats, nil
}

// rePut re-uploads each churn client's current version, so the server and
// the client agree on it at the start of a window whatever happened before.
func (b *bench) rePut(ls *liveServer) error {
	if !b.w.churn {
		return nil
	}
	for _, c := range b.clients {
		if _, err := b.put(ls, c, c.version); err != nil {
			return err
		}
	}
	return nil
}

// isPut reports whether c's next operation is a churn upload.
func (b *bench) isPut(c *client) bool {
	return b.w.churn && c.ops%(minesPerPut+1) == minesPerPut
}

// stepPut performs c's next churn upload: the version it does not hold.
func (b *bench) stepPut(ls *liveServer, c *client) {
	c.ops++
	c.log.ops++
	lat, err := b.put(ls, c, 1-c.version)
	if err != nil {
		c.log.failed++
		return
	}
	c.log.putLat = append(c.log.putLat, lat)
}

// step is one untraced operation of c: a churn upload or the next mine.
func (b *bench) step(ls *liveServer, c *client) {
	if b.isPut(c) {
		b.stepPut(ls, c)
		return
	}
	i := c.mines % len(c.bodies)
	c.ops++
	c.mines++
	c.log.ops++
	c.log.mines++
	lat, ok, correct := b.mine(ls, c, i)
	switch {
	case !ok:
		c.log.failed++
	case !correct:
		c.log.wrong++
	default:
		c.log.mineLat = append(c.log.mineLat, lat)
	}
}

// traceStep is one operation of c in a traced run: a churn upload, or the
// next mine served in turn over HTTP, as a traced replay, and as an
// untraced replay. Replays use the version the server holds for c.
func (b *bench) traceStep(ls *liveServer, c *client) {
	if b.isPut(c) {
		b.stepPut(ls, c)
		return
	}
	i, mode := c.mines%len(c.bodies), c.mines%3
	c.ops++
	c.mines++
	c.log.ops++
	c.log.mines++
	if mode == 0 {
		lat, ok, correct := b.mine(ls, c, i)
		switch {
		case !ok:
			c.log.failed++
		case !correct:
			c.log.wrong++
		default:
			c.log.httpLat = append(c.log.httpLat, lat)
		}
		return
	}
	var tr *replayTrace
	if mode == 1 {
		tr = &replayTrace{Workload: b.w.name, Request: i}
	}
	start := time.Now()
	answers, err := b.replay(c.bodies[i], b.versions[c.version].db, &c.enc, tr)
	lat := time.Since(start)
	switch {
	case err != nil:
		c.log.failed++
	case !equalAnswers(answers, b.refs[c.version][i].answers):
		c.log.wrong++
	case tr != nil:
		c.log.tracedLat = append(c.log.tracedLat, lat)
		c.log.traces = append(c.log.traces, tr)
	default:
		c.log.untracedLat = append(c.log.untracedLat, lat)
	}
}

// replayReads times dataset.Read of every version's upload body n times
// each — the step of a PUT that belongs to the dataset layer — and returns
// the median in milliseconds.
func (b *bench) replayReads(n int) (float64, error) {
	var ds []time.Duration
	for _, v := range b.versions {
		for i := 0; i < n; i++ {
			start := time.Now()
			if _, err := dataset.Read(bytes.NewReader(v.body)); err != nil {
				return 0, err
			}
			ds = append(ds, time.Since(start))
		}
	}
	return ms(percentile(ds, 0.5)), nil
}

// drive runs every client's closed loop until the window is over: dur has
// passed and the clients have completed minMines mines between them. It
// returns what the clients observed. A window that cannot reach minMines
// within four times dur is an error.
func (b *bench) drive(dur time.Duration, minMines int, step func(*client)) (opLog, error) {
	var mines atomic.Int64
	start := time.Now()
	hardStop := 4 * dur
	var wg sync.WaitGroup
	for _, c := range b.clients {
		c.log = opLog{}
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				el := time.Since(start)
				if el >= hardStop || (el >= dur && mines.Load() >= int64(minMines)) {
					return
				}
				before := c.log.mines
				step(c)
				mines.Add(int64(c.log.mines - before))
			}
		}(c)
	}
	wg.Wait()
	var log opLog
	for _, c := range b.clients {
		log.merge(&c.log)
	}
	if n := mines.Load(); n < int64(minMines) {
		return log, fmt.Errorf("%s: window held %d mines after %v, want at least %d", b.w.name, n, time.Since(start).Round(time.Millisecond), minMines)
	}
	return log, nil
}

// window is one measured window: what the clients saw plus process-wide
// resource deltas over it.
type window struct {
	log      opLog
	elapsed  time.Duration
	cpu      time.Duration // user+sys
	alloc    uint64        // bytes allocated
	peakHeap uint64        // peak live heap, sampled every 5 ms
	gcCPU    float64       // GC share of the CPU time the process used
}

const (
	liveHeapMetric = "/gc/heap/live:bytes"
	gcCPUMetric    = "/cpu/classes/gc/total:cpu-seconds"
	totalCPUMetric = "/cpu/classes/total:cpu-seconds"
	idleCPUMetric  = "/cpu/classes/idle:cpu-seconds"
)

// measure runs one window from a freshly collected heap.
func (b *bench) measure(dur time.Duration, minMines int, step func(*client)) (window, error) {
	runtime.GC()
	cpu := []metrics.Sample{{Name: gcCPUMetric}, {Name: totalCPUMetric}, {Name: idleCPUMetric}}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	metrics.Read(cpu)
	gc0, total0, idle0 := cpu[0].Value.Float64(), cpu[1].Value.Float64(), cpu[2].Value.Float64()
	ru0 := processCPU()
	stop, peak := make(chan struct{}), make(chan uint64, 1)
	go sampleHeap(stop, peak)
	start := time.Now()
	log, err := b.drive(dur, minMines, step)
	w := window{log: log, elapsed: time.Since(start)}
	close(stop)
	w.peakHeap = <-peak
	w.cpu = processCPU() - ru0
	metrics.Read(cpu)
	runtime.ReadMemStats(&m1)
	w.alloc = m1.TotalAlloc - m0.TotalAlloc
	if used := (cpu[1].Value.Float64() - total0) - (cpu[2].Value.Float64() - idle0); used > 0 {
		w.gcCPU = (cpu[0].Value.Float64() - gc0) / used
	}
	return w, err
}

// sampleHeap records the peak live heap every 5 ms until stop closes.
func sampleHeap(stop <-chan struct{}, peak chan<- uint64) {
	s := []metrics.Sample{{Name: liveHeapMetric}}
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	var max uint64
	for {
		metrics.Read(s)
		if v := s[0].Value.Uint64(); v > max {
			max = v
		}
		select {
		case <-stop:
			peak <- max
			return
		case <-t.C:
		}
	}
}

// processCPU is the process's user+sys time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// endToEnd turns one untraced window into the end-to-end metrics. upload
// is the upload phase's p50, used where the loop itself uploads nothing.
func endToEnd(w window, setup, upload time.Duration, churn bool) map[string]float64 {
	ops := float64(w.log.ops)
	m := map[string]float64{
		"setup_s":           setup.Seconds(),
		"mine_p50_ms":       ms(percentile(w.log.mineLat, 0.5)),
		"mine_p90_ms":       ms(percentile(w.log.mineLat, 0.9)),
		"mines_per_s":       float64(w.log.mines) / w.elapsed.Seconds(),
		"cpu_ms_per_mine":   ms(w.cpu) / ops,
		"alloc_mb_per_mine": float64(w.alloc) / 1e6 / ops,
		"peak_heap_mb":      float64(w.peakHeap) / 1e6,
		"upload_p50_ms":     ms(upload),
	}
	if churn {
		m["upload_p50_ms"] = ms(percentile(w.log.putLat, 0.5))
	}
	return m
}
