package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"ccs/internal/constraint"
	"ccs/internal/contingency"
	"ccs/internal/core"
	"ccs/internal/counting"
	"ccs/internal/cql"
	"ccs/internal/dataset"
	"ccs/internal/itemset"
	"ccs/internal/obs"
	"ccs/internal/server"
	"ccs/internal/tidlist"
)

// This file replays /v1/mine in-process, through the public calls the
// server's handleMine makes, in the same order and with the same options,
// and times each layer from outside at its public function boundary:
//
//	server.decode        JSON decode into server.MineRequest
//	cql.parse            cql.Parse and constraint.CheckDomain
//	dataset.index_build  counting.NewCachedBitmapCounterBackend
//	core.mine            core.New and the Miner's *Context call
//	  counting.count     every counting call, via tracedCounter
//	server.encode        building server.MineResponse and encoding it
//
// The split inside core.mine (candidate generation, pre-checks,
// evaluation, stall) has no public boundary; it comes from the core's own
// profile record (core.WithProfile).

// maxBodyBytes is the server's bound on a /v1/mine body.
const maxBodyBytes = 1 << 20

// origin anchors span timestamps; spans hold nanoseconds since it.
var origin = time.Now()

func clock() int64 { return int64(time.Since(origin)) }

// span is one timed call.
type span struct {
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// replayTrace is one traced replay: the request-scope spans (the root
// "replay" span first), the counting spans, and the per-layer values
// derived from them.
type replayTrace struct {
	Workload string             `json:"workload"`
	Request  int                `json:"request"`
	Spans    []span             `json:"spans"`
	Counting []span             `json:"counting"`
	Values   map[string]float64 `json:"values"`
}

func (t *replayTrace) begin() int64 {
	if t == nil {
		return 0
	}
	return clock()
}

func (t *replayTrace) end(name string, start int64) {
	if t != nil {
		t.Spans = append(t.Spans, span{Name: name, Start: start, End: clock()})
	}
}

// heap reads the heap counters on a traced replay; the untraced replay
// reads nothing.
func (t *replayTrace) heap() heapCounters {
	if t == nil {
		return heapCounters{}
	}
	return readHeap()
}

// heapCounters are the process's cumulative heap allocation counters.
type heapCounters struct{ bytes, objects uint64 }

func readHeap() heapCounters {
	s := [2]metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s[:])
	return heapCounters{bytes: s[0].Value.Uint64(), objects: s[1].Value.Uint64()}
}

func (h heapCounters) since(h0 heapCounters) heapCounters {
	return heapCounters{bytes: h.bytes - h0.bytes, objects: h.objects - h0.objects}
}

// tracedCounter forwards every call to the request's BitmapCounter and
// records a span around each counting call. It implements every optional
// interface the core probes for, so the core takes the same parallel arena
// path it takes with the bare counter.
type tracedCounter struct {
	inner *counting.BitmapCounter

	mu          sync.Mutex
	spans       []span
	sets, cells int64
	active      int    // counting calls in flight
	allocAt     uint64 // heap bytes when active last rose from 0
	alloc       uint64 // bytes allocated while any counting call ran
}

var (
	_ counting.ArenaCounter  = (*tracedCounter)(nil)
	_ counting.CostModeler   = (*tracedCounter)(nil)
	_ counting.IndexReporter = (*tracedCounter)(nil)
)

func (t *tracedCounter) begin() int64 {
	t.mu.Lock()
	if t.active == 0 {
		t.allocAt = readHeap().bytes
	}
	t.active++
	t.mu.Unlock()
	return clock()
}

func (t *tracedCounter) end(start int64, sets []itemset.Set) {
	s := span{Name: "counting.count", Start: start, End: clock()}
	var cells int64
	for _, set := range sets {
		cells += int64(1) << uint(set.Size())
	}
	t.mu.Lock()
	t.active--
	if t.active == 0 {
		t.alloc += readHeap().bytes - t.allocAt
	}
	t.spans = append(t.spans, s)
	t.sets += int64(len(sets))
	t.cells += cells
	t.mu.Unlock()
}

func (t *tracedCounter) NumTx() int                    { return t.inner.NumTx() }
func (t *tracedCounter) ItemSupports() []int           { return t.inner.ItemSupports() }
func (t *tracedCounter) Stats() counting.Stats         { return t.inner.Stats() }
func (t *tracedCounter) CostModel() counting.CostModel { return t.inner.CostModel() }
func (t *tracedCounter) IndexBackend() tidlist.Backend { return t.inner.IndexBackend() }
func (t *tracedCounter) IndexBytes() int64             { return t.inner.IndexBytes() }

func (t *tracedCounter) NewLevelArenas(n int) *counting.LevelArenas {
	return t.inner.NewLevelArenas(n)
}

func (t *tracedCounter) CountTables(sets []itemset.Set) ([]*contingency.Table, error) {
	start := t.begin()
	defer t.end(start, sets)
	return t.inner.CountTables(sets)
}

func (t *tracedCounter) CountTablesContext(ctx context.Context, sets []itemset.Set) ([]*contingency.Table, error) {
	start := t.begin()
	defer t.end(start, sets)
	return t.inner.CountTablesContext(ctx, sets)
}

func (t *tracedCounter) CountShard(ctx context.Context, sets []itemset.Set) ([]*contingency.Table, error) {
	start := t.begin()
	defer t.end(start, sets)
	return t.inner.CountShard(ctx, sets)
}

func (t *tracedCounter) CountShardArena(ctx context.Context, sets []itemset.Set, out []*contingency.Table, arena *counting.CacheArena) error {
	start := t.begin()
	defer t.end(start, sets)
	return t.inner.CountShardArena(ctx, sets, out, arena)
}

// replay serves one /v1/mine body in-process against db and returns the
// answers it would send. enc receives the encoded response. With tr nil it
// is the untraced replay; otherwise every step is a span in tr, counting
// goes through a tracedCounter, the mine is profiled, and tr.Values gets
// the per-layer numbers.
func (b *bench) replay(body []byte, db *dataset.DB, enc *bytes.Buffer, tr *replayTrace) ([][]uint32, error) {
	ctx, cancel := context.WithTimeout(context.Background(), mineTimeout)
	defer cancel()
	root := tr.begin()

	s := tr.begin()
	var req server.MineRequest
	if err := json.NewDecoder(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), maxBodyBytes)).Decode(&req); err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	tr.end("server.decode", s)

	queryText, algo := queryOf(req)
	s = tr.begin()
	q, err := cql.Parse(queryText)
	if err != nil {
		return nil, err
	}
	if err := constraint.CheckDomain(db.Catalog, q.All...); err != nil {
		return nil, err
	}
	tr.end("cql.parse", s)
	params := mineParams(req)

	mtr := b.tracer.Start("mine", obs.String("dataset", req.Dataset), obs.String("algo", algo), obs.String("query", queryText))
	mspan := mtr.StartSpan("setup")
	h0 := tr.heap()
	s = tr.begin()
	cc := counting.NewCachedBitmapCounterBackend(db, counting.DefaultCacheBytes, tidlist.BackendAuto)
	tr.end("dataset.index_build", s)
	indexAlloc := tr.heap().since(h0)
	defer cc.ReleaseCache()

	var cnt counting.Counter = cc
	var tc *tracedCounter
	var prof *obs.Profile
	if tr != nil {
		tc = &tracedCounter{inner: cc}
		cnt = tc
		prof = obs.NewProfile(req.Dataset + "/" + algo)
	}
	opts := []core.Option{core.WithCounter(cnt)}
	if prof != nil {
		opts = append(opts, core.WithProfile(prof))
	}
	opts = append(opts, core.WithProgress(func(ev core.ProgressEvent) {
		mspan.End()
		mspan = mtr.StartSpan(fmt.Sprintf("%s %d", ev.Phase, ev.Level),
			obs.String("algo", ev.Algorithm),
			obs.Int("candidates", ev.Candidates))
	}))
	h0 = tr.heap()
	s = tr.begin()
	m, err := core.New(db, params, opts...)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := runAlgo(ctx, m, algo, q, req.Push)
	mspan.End()
	tr.end("core.mine", s)
	mineAlloc := tr.heap().since(h0)
	if err != nil {
		return nil, err
	}
	if res.Truncated {
		return nil, fmt.Errorf("mine truncated: %v", res.Cause)
	}
	mtr.Finish(obs.String("outcome", "ok"), obs.Int("answers", len(res.Answers)))

	s = tr.begin()
	resp := server.MineResponse{
		Query:      q.String(),
		Answers:    make([][]uint32, len(res.Answers)),
		Named:      make([][]string, len(res.Answers)),
		Stats:      res.Stats,
		Elapsed:    time.Since(start).Seconds(),
		Backend:    string(cc.IndexBackend()),
		IndexBytes: cc.IndexBytes(),
	}
	for _, d := range res.Stats.LevelDurations {
		resp.LevelSeconds = append(resp.LevelSeconds, d.Seconds())
	}
	for i, set := range res.Answers {
		ids := make([]uint32, set.Size())
		names := make([]string, set.Size())
		for j, id := range set {
			ids[j] = uint32(id)
			names[j] = db.Catalog.Info(itemset.Item(id)).Name
		}
		resp.Answers[i] = ids
		resp.Named[i] = names
	}
	enc.Reset()
	if err := json.NewEncoder(enc).Encode(resp); err != nil {
		return nil, fmt.Errorf("encode: %w", err)
	}
	tr.end("server.encode", s)
	tr.end("replay", root)

	if tr != nil {
		tr.derive(tc, prof.Record(), res, cc, indexAlloc, mineAlloc, enc.Len())
	}
	return resp.Answers, nil
}

// derive fills tr.Values from the spans, the counter, and the profile.
func (t *replayTrace) derive(tc *tracedCounter, rec *obs.ProfileRecord, res *core.Result, cc *counting.BitmapCounter, indexAlloc, mineAlloc heapCounters, respBytes int) {
	// The root span is recorded last; move it first so readers find it there.
	root := t.Spans[len(t.Spans)-1]
	t.Spans = append([]span{root}, t.Spans[:len(t.Spans)-1]...)
	d := map[string]span{}
	for _, s := range t.Spans {
		d[s.Name] = s
	}
	mine := d["core.mine"]
	tc.mu.Lock()
	t.Counting = tc.spans
	sets, cells, countAlloc := tc.sets, tc.cells, tc.alloc
	tc.mu.Unlock()

	var busy time.Duration
	for _, s := range t.Counting {
		busy += s.dur()
	}
	wall := unionLen(t.Counting, mine.Start, mine.End)
	covered := unionLen(t.Spans[1:], root.Start, root.End)
	phase := func(name string) obs.PhaseRecord { return rec.Phases[name] }
	stall := phase(obs.PhaseStall).Seconds

	t.Values = map[string]float64{
		"server.decode_ms":         ms(d["server.decode"].dur()),
		"server.encode_ms":         ms(d["server.encode"].dur()),
		"server.response_kb":       float64(respBytes) / 1e3,
		"cql.parse_ms":             ms(d["cql.parse"].dur()),
		"dataset.index_build_ms":   ms(d["dataset.index_build"].dur()),
		"dataset.index_kb":         float64(cc.IndexBytes()) / 1e3,
		"dataset.index_alloc_mb":   float64(indexAlloc.bytes) / 1e6,
		"counting.busy_ms":         ms(busy),
		"counting.wall_ms":         ms(wall),
		"counting.calls":           float64(len(t.Counting)),
		"counting.sets":            float64(sets),
		"counting.cells":           float64(cells),
		"counting.ns_per_cell":     ratio(float64(busy), float64(cells)),
		"counting.cache_hit_rate":  cc.CacheStats().HitRate(),
		"counting.alloc_mb":        float64(countAlloc) / 1e6,
		"core.mine_ms":             ms(mine.dur()),
		"core.self_ms":             ms(mine.dur() - wall),
		"core.candgen_ms":          phase(obs.PhaseCandgen).Seconds * 1e3,
		"core.candgen_alloc_mb":    float64(phase(obs.PhaseCandgen).AllocBytes) / 1e6,
		"core.precheck_ms":         phase(obs.PhasePrecheck).Seconds * 1e3,
		"core.evaluate_ms":         phase(obs.PhaseEval).Seconds * 1e3,
		"core.alloc_mb":            float64(mineAlloc.bytes) / 1e6,
		"core.mallocs":             float64(mineAlloc.objects),
		"core.candidates":          float64(res.Stats.Candidates),
		"core.counted_frac":        ratio(float64(res.Stats.SetsConsidered), float64(res.Stats.Candidates)),
		"core.answer_frac":         ratio(float64(len(res.Answers)), float64(res.Stats.SetsConsidered)),
		"sched.stall_ms":           stall * 1e3,
		"sched.stall_frac":         ratio(stall, rec.WallSeconds),
		"sched.shard_skew":         shardSkew(rec.WorkerBusySeconds),
		"sched.shards":             float64(rec.Shards),
		"sched.parallelism":        ratio(float64(busy), float64(wall)),
		"trace.coverage":           ratio(float64(covered), float64(root.dur())),
		"trace.profile_wall_ratio": ratio(rec.WallSeconds, mine.dur().Seconds()),
	}
}

// shardSkew is the busiest worker's busy time over the mean across the
// workers that counted anything; 1 when no more than one did.
func shardSkew(busy []float64) float64 {
	var sum, max float64
	n := 0
	for _, b := range busy {
		if b > 0 {
			sum += b
			n++
			if b > max {
				max = b
			}
		}
	}
	if n < 2 {
		return 1
	}
	return max / (sum / float64(n))
}

// unionLen is the length of the union of spans, clipped to [lo, hi].
func unionLen(spans []span, lo, hi int64) time.Duration {
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := s.Start, s.End
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	total += curB - curA
	return time.Duration(total)
}
