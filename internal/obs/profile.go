package obs

import (
	"encoding/json"
	"io"
	"runtime/metrics"
	"sync"
	"time"
)

// This file implements the per-mine profiler (DESIGN.md §13): a Profile
// attributes one mining run's wall clock across phases — candidate
// generation, counting, chi-squared evaluation, pipeline hand-off stalls —
// with per-level, per-shard, and per-worker detail, plus allocation and
// cells-counted attribution. The mining core owns the collection points;
// this package owns the accumulators and the JSON schema.
//
// A nil *Profile is a valid disabled profiler: every method (and every
// method of the *LevelProf it hands out) no-ops, so call sites guard a
// single pointer and the disabled path costs nothing — no clock reads, no
// allocations.

// Phase labels used by the mining core's collection points. They are label
// values of the ccs_mine_phase_seconds histogram and keys of
// ProfileRecord.Phases.
const (
	// PhaseCandgen is candidate generation (pairs/extend/extendAny).
	PhaseCandgen = "candgen"
	// PhasePrecheck is the anti-monotone pre-check stage of a level.
	PhasePrecheck = "precheck"
	// PhaseCount is counting time spent on the mining goroutine (the
	// serial path; the parallel path's counting shows up as worker busy
	// time and PhaseStall instead).
	PhaseCount = "count"
	// PhaseEval is chi-squared evaluation and answer collection.
	PhaseEval = "evaluate"
	// PhaseStall is pipeline hand-off time: the evaluator blocked waiting
	// for the next shard's tables.
	PhaseStall = "stall"
	// PhaseOther is the residual: wall time not covered by any measured
	// phase (setup, sorting, result assembly). Computed, never recorded.
	PhaseOther = "other"
)

// allocMetric is the runtime/metrics cumulative heap-allocation counter
// used for per-phase allocation attribution.
const allocMetric = "/gc/heap/allocs:bytes"

// AllocBytes returns the process's cumulative heap-allocated bytes.
// Profiled collection points read it at phase boundaries and attribute the
// delta to the phase; the disabled path never calls it. The reading is
// process-global, so in parallel phases it includes other goroutines'
// allocations — attribution is exact for serial phases, approximate when
// workers overlap.
func AllocBytes() int64 {
	var s [1]metrics.Sample
	s[0].Name = allocMetric
	metrics.Read(s[:])
	if s[0].Value.Kind() == metrics.KindUint64 {
		return int64(s[0].Value.Uint64())
	}
	return 0
}

// Profile accumulates one mining run's phase attribution. Create one with
// NewProfile, hand it to the run (core.WithProfile), and call Record when
// the run ends. Methods are safe for concurrent use, but one Profile
// belongs to one run: per-level state is merged deterministically at level
// commit by the mining goroutine.
type Profile struct {
	mu      sync.Mutex
	name    string
	workers int
	start   time.Time
	end     time.Time
	phases  map[string]*phaseAcc
	levels  []*LevelProf
	busy    []time.Duration // per-worker busy (goroutine-seconds)
	shards  []int           // per-worker shards counted

	backend    string // TID-list backend of the run's vertical index
	indexBytes int64  // resident bytes of the run's vertical index
}

type phaseAcc struct {
	dur   time.Duration
	alloc int64
	cells int64
}

// NewProfile starts a profile for one named run (the algorithm name).
func NewProfile(name string) *Profile {
	return &Profile{name: name, start: time.Now(), phases: map[string]*phaseAcc{}}
}

// Enabled reports whether the profile collects anything (false on nil).
func (p *Profile) Enabled() bool { return p != nil }

// SetWorkers records the run's effective worker count.
func (p *Profile) SetWorkers(n int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.workers = n
	p.mu.Unlock()
}

// AddPhase attributes d (and allocBytes, cells) to a phase outside any
// level — candidate generation between levels, mostly.
func (p *Profile) AddPhase(phase string, d time.Duration, allocBytes, cells int64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.phaseLocked(phase).add(d, allocBytes, cells)
	p.mu.Unlock()
}

func (p *Profile) phaseLocked(phase string) *phaseAcc {
	a := p.phases[phase]
	if a == nil {
		a = &phaseAcc{}
		p.phases[phase] = a
	}
	return a
}

func (a *phaseAcc) add(d time.Duration, alloc, cells int64) {
	a.dur += d
	a.alloc += alloc
	a.cells += cells
}

// StartLevel opens per-level accumulators for one lattice level. The
// returned *LevelProf is written only by the mining goroutine (shard
// arenas are merged into it at level commit) and needs no further locking;
// on a nil Profile it returns nil, whose methods all no-op.
func (p *Profile) StartLevel(phase string, level, candidates int) *LevelProf {
	if p == nil {
		return nil
	}
	lp := &LevelProf{phase: phase, level: level, candidates: candidates, start: time.Now()}
	p.mu.Lock()
	p.levels = append(p.levels, lp)
	p.mu.Unlock()
	return lp
}

// AddWorker accumulates one worker's busy time and shard count for the run
// (called once per worker per level, after the end-of-level barrier).
func (p *Profile) AddWorker(worker int, busy time.Duration, shards int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	for len(p.busy) <= worker {
		p.busy = append(p.busy, 0)
		p.shards = append(p.shards, 0)
	}
	p.busy[worker] += busy
	p.shards[worker] += shards
	p.mu.Unlock()
}

// SetIndex records the run's vertical-index representation: the resolved
// TID-list backend and the index's resident bytes. The mining core calls it
// when the counter is attached; runs over non-vertical counters (the
// horizontal scanners) leave both fields zero.
func (p *Profile) SetIndex(backend string, bytes int64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.backend = backend
	p.indexBytes = bytes
	p.mu.Unlock()
}

// Finish stamps the run's end time; Record on an unfinished profile uses
// the current time instead.
func (p *Profile) Finish() {
	if p == nil {
		return
	}
	p.mu.Lock()
	if p.end.IsZero() {
		p.end = time.Now()
	}
	p.mu.Unlock()
}

// LevelProf accumulates one lattice level's phase split. All fields are
// owned by the mining goroutine; worker-side measurements arrive as
// ShardStat values merged at level commit, in shard index order, so the
// recorded shard list is deterministic at every worker count.
type LevelProf struct {
	phase      string
	level      int
	candidates int
	kept       int
	start      time.Time
	wall       time.Duration
	precheck   time.Duration
	count      time.Duration
	eval       time.Duration
	stall      time.Duration
	alloc      int64
	cells      int64
	shardStats []ShardStat
}

// AddPart attributes d and allocBytes to one phase of the level
// (PhasePrecheck, PhaseCount, PhaseEval, or PhaseStall).
func (l *LevelProf) AddPart(phase string, d time.Duration, allocBytes int64) {
	if l == nil {
		return
	}
	switch phase {
	case PhasePrecheck:
		l.precheck += d
	case PhaseCount:
		l.count += d
	case PhaseEval:
		l.eval += d
	case PhaseStall:
		l.stall += d
	}
	l.alloc += allocBytes
}

// SetKept records how many candidates survived the pre-checks.
func (l *LevelProf) SetKept(n int) {
	if l != nil {
		l.kept = n
	}
}

// AddCells adds contingency cells charged by this level.
func (l *LevelProf) AddCells(n int64) {
	if l != nil {
		l.cells += n
	}
}

// AddShard appends one counted shard's statistics.
func (l *LevelProf) AddShard(s ShardStat) {
	if l != nil {
		l.shardStats = append(l.shardStats, s)
	}
}

// End stamps the level's wall time.
func (l *LevelProf) End() {
	if l != nil {
		l.wall = time.Since(l.start)
	}
}

// ShardStat is one counted shard's contribution: which worker counted it
// and how much intersection work it did. Intersections counts every
// TID-list intersection the counting kernel performed, Materialized the
// ones written out as lists; on the dense backend each intersection costs
// the same number of words, so Cost = Intersections × words exactly. Cost
// is the scheduler's estimated counting cost in word-operations
// (counting.PlanShards); it is ≥ 1 for any shard with at least one set, so
// a profile whose shards all carry zero cost predates the cost-based
// scheduler.
type ShardStat struct {
	Worker        int     `json:"worker"`
	Sets          int     `json:"sets"`
	Cells         int64   `json:"cells"`
	Cost          int64   `json:"cost"`
	Seconds       float64 `json:"seconds"`
	Intersections int64   `json:"intersections"`
	Materialized  int64   `json:"materialized"`
}

// PhaseRecord is one phase's share of a run in the JSON schema.
type PhaseRecord struct {
	Seconds    float64 `json:"seconds"`
	AllocBytes int64   `json:"alloc_bytes,omitempty"`
	Cells      int64   `json:"cells,omitempty"`
}

// LevelRecord is one lattice level's phase split in the JSON schema.
type LevelRecord struct {
	Phase           string      `json:"phase"`
	Level           int         `json:"level"`
	Candidates      int         `json:"candidates"`
	Kept            int         `json:"kept"`
	Seconds         float64     `json:"seconds"`
	PrecheckSeconds float64     `json:"precheck_seconds"`
	CountSeconds    float64     `json:"count_seconds"`
	EvalSeconds     float64     `json:"evaluate_seconds"`
	StallSeconds    float64     `json:"stall_seconds"`
	AllocBytes      int64       `json:"alloc_bytes,omitempty"`
	Cells           int64       `json:"cells"`
	Shards          []ShardStat `json:"shards,omitempty"`
}

// ProfileRecord is the JSON shape of one profiled mine — the `profile`
// block of /v1/mine responses, the elements of /debug/mines, and the
// input format of ccsprof.
type ProfileRecord struct {
	Name        string    `json:"name"`
	Workers     int       `json:"workers"`
	Start       time.Time `json:"start"`
	WallSeconds float64   `json:"wall_seconds"`
	// Backend and IndexBytes describe the run's vertical index: which
	// TID-list representation it resolved to ("dense" or "compressed") and
	// its resident size. Both are empty/zero for horizontal-scan runs and
	// for profiles predating the pluggable backend.
	Backend    string `json:"backend,omitempty"`
	IndexBytes int64  `json:"index_bytes,omitempty"`
	// Phases attributes mining-goroutine wall time: the values sum to
	// WallSeconds up to the computed "other" residual, so two records of
	// the same query decompose their wall-clock gap phase by phase.
	Phases map[string]PhaseRecord `json:"phases"`
	Levels []LevelRecord          `json:"levels"`
	// CountWorkSeconds is total counting goroutine-seconds across all
	// shards — in a parallel run it exceeds the count phase (which only
	// sees the mining goroutine) and is the denominator for skew.
	CountWorkSeconds  float64   `json:"count_work_seconds"`
	WorkerBusySeconds []float64 `json:"worker_busy_seconds,omitempty"`
	WorkerShards      []int     `json:"worker_shards,omitempty"`
	Shards            int       `json:"shards"`
	// ShardCost totals the scheduler's estimated shard costs in
	// word-operations; zero with Shards > 0 marks a pre-cost-model profile.
	ShardCost  int64 `json:"shard_cost"`
	Candidates int64 `json:"candidates"`
	Kept       int64 `json:"kept"`
	Cells      int64 `json:"cells"`
	// Intersections and Materialized total the shards' exact counting
	// work (see ShardStat).
	Intersections int64 `json:"intersections"`
	Materialized  int64 `json:"materialized"`
}

// IntersectionsPerCell is the run's counting work per contingency cell
// built, or 0 before any cell: the kernel-efficiency figure two profiles of
// the same query compare.
func (r *ProfileRecord) IntersectionsPerCell() float64 {
	if r.Cells > 0 {
		return float64(r.Intersections) / float64(r.Cells)
	}
	return 0
}

// Record renders the profile into its JSON shape. Phase totals are the
// direct phase buckets plus the per-level parts, and the "other" phase is
// the wall-clock residual no collection point claimed — so the named
// phases plus "other" sum to WallSeconds exactly. Returns nil on a nil
// profile.
func (p *Profile) Record() *ProfileRecord {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	end := p.end
	if end.IsZero() {
		end = time.Now()
	}
	wall := end.Sub(p.start)
	rec := &ProfileRecord{
		Name:        p.name,
		Workers:     p.workers,
		Start:       p.start,
		WallSeconds: wall.Seconds(),
		Backend:     p.backend,
		IndexBytes:  p.indexBytes,
		Phases:      map[string]PhaseRecord{},
	}
	totals := map[string]*phaseAcc{}
	for ph, a := range p.phases {
		totals[ph] = &phaseAcc{dur: a.dur, alloc: a.alloc, cells: a.cells}
	}
	addTotal := func(ph string, d time.Duration, alloc, cells int64) {
		a := totals[ph]
		if a == nil {
			a = &phaseAcc{}
			totals[ph] = a
		}
		a.add(d, alloc, cells)
	}
	var accounted time.Duration
	for _, lp := range p.levels {
		lr := LevelRecord{
			Phase:           lp.phase,
			Level:           lp.level,
			Candidates:      lp.candidates,
			Kept:            lp.kept,
			Seconds:         lp.wall.Seconds(),
			PrecheckSeconds: lp.precheck.Seconds(),
			CountSeconds:    lp.count.Seconds(),
			EvalSeconds:     lp.eval.Seconds(),
			StallSeconds:    lp.stall.Seconds(),
			AllocBytes:      lp.alloc,
			Cells:           lp.cells,
			Shards:          lp.shardStats,
		}
		rec.Levels = append(rec.Levels, lr)
		rec.Candidates += int64(lp.candidates)
		rec.Kept += int64(lp.kept)
		rec.Cells += lp.cells
		rec.Shards += len(lp.shardStats)
		addTotal(PhasePrecheck, lp.precheck, 0, 0)
		addTotal(PhaseCount, lp.count, lp.alloc, lp.cells)
		addTotal(PhaseEval, lp.eval, 0, 0)
		addTotal(PhaseStall, lp.stall, 0, 0)
		for _, ss := range lp.shardStats {
			rec.CountWorkSeconds += ss.Seconds
			rec.ShardCost += ss.Cost
			rec.Intersections += ss.Intersections
			rec.Materialized += ss.Materialized
		}
	}
	for ph, a := range totals {
		if a.dur == 0 && a.alloc == 0 && a.cells == 0 {
			continue
		}
		rec.Phases[ph] = PhaseRecord{Seconds: a.dur.Seconds(), AllocBytes: a.alloc, Cells: a.cells}
		accounted += a.dur
	}
	if other := wall - accounted; other > 0 {
		rec.Phases[PhaseOther] = PhaseRecord{Seconds: other.Seconds()}
	}
	if len(p.busy) > 0 {
		rec.WorkerBusySeconds = make([]float64, len(p.busy))
		for i, d := range p.busy {
			rec.WorkerBusySeconds[i] = d.Seconds()
		}
		rec.WorkerShards = append([]int(nil), p.shards...)
	}
	return rec
}

// defaultProfileCap bounds the ring when NewProfileRing is given no
// capacity.
const defaultProfileCap = 64

// ProfileRing retains the last N mine profile records so /debug/mines can
// show recent mines after the fact. A nil *ProfileRing is a valid no-op
// ring. All methods are safe for concurrent use.
type ProfileRing struct {
	mu     sync.Mutex
	cap    int
	recent []*ProfileRecord // oldest first
}

// NewProfileRing returns a ring retaining the last capacity records
// (<= 0 means a default of 64).
func NewProfileRing(capacity int) *ProfileRing {
	if capacity <= 0 {
		capacity = defaultProfileCap
	}
	return &ProfileRing{cap: capacity}
}

// Add publishes a record into the ring (no-op on nil ring or nil record).
func (r *ProfileRing) Add(rec *ProfileRecord) {
	if r == nil || rec == nil {
		return
	}
	r.mu.Lock()
	r.recent = append(r.recent, rec)
	if len(r.recent) > r.cap {
		r.recent = r.recent[len(r.recent)-r.cap:]
	}
	r.mu.Unlock()
}

// Snapshot returns the retained records, newest first — never nil, so JSON
// renders [] rather than null when the ring is empty.
func (r *ProfileRing) Snapshot() []*ProfileRecord {
	out := []*ProfileRecord{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	for i := len(r.recent) - 1; i >= 0; i-- {
		out = append(out, r.recent[i])
	}
	r.mu.Unlock()
	return out
}

// WriteJSON writes the snapshot as a JSON array, newest first.
func (r *ProfileRing) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
