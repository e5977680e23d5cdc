package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"ccs/internal/constraint"
	"ccs/internal/core"
	"ccs/internal/cql"
	"ccs/internal/dataset"
	"ccs/internal/gen"
	"ccs/internal/itemset"
	"ccs/internal/server"
)

// workload is one traffic mix: the corpus versions the server holds, the
// mine requests clients send, and how many closed-loop clients send them.
type workload struct {
	name string
	// clients never exceeds the 2 cores of the box the baseline ran on.
	clients int
	// corpus builds the workload's dataset versions, before the seed's
	// basket shuffle. quick shrinks the lattice corpus for the smoke test.
	corpus   func(quick bool) ([]*dataset.DB, error)
	requests []server.MineRequest
	// churn gives each client a dataset of its own and makes every
	// (minesPerPut+1)-th operation a binary PUT of the version the client
	// does not currently hold.
	churn bool
}

// minesPerPut is churn-small's read/write mix: three mines, then one PUT.
const minesPerPut = 3

// corpusSeed fixes the generator seed of every corpus. The -seed flag does
// not reach the generators: the pinned corpora's mining work swings up to
// 2x between generator seeds (sparse-wide counts 5,605 sets at seed 1 and
// 10,336 at seed 2), which would drown any regression in seed noise.
// Instead -seed picks the basket order of each corpus (shuffleBaskets).
const corpusSeed = 1

// lattice is the shared corpus of the two lattice workloads: 100k baskets
// over 200 items (a 2.5 MB dense index). quick keeps a fifth of it.
func lattice(quick bool) ([]*dataset.DB, error) {
	n := 100_000
	if quick {
		n = 20_000
	}
	db, err := gen.Lattice(gen.DefaultLattice(n, corpusSeed))
	return []*dataset.DB{db}, err
}

// latticeRequest builds a lattice-corpus request with the thresholds both
// lattice workloads share.
func latticeRequest(algo, query string, push bool) server.MineRequest {
	return server.MineRequest{Algo: algo, Query: query, Alpha: 0.95, CellSupportFrac: 0.15, CTFraction: 0.25, MaxLevel: 6, Push: push}
}

// workloads are chosen so that index building, counting, scheduling and the
// request-scope layers each dominate one workload and are small in another.
var workloads = []workload{
	{
		// A cheap, selective mine on a big dataset: the per-request index
		// build dwarfs the mine, so index reuse shows here and kernel
		// changes must not.
		name:     "lattice-index",
		clients:  2,
		corpus:   lattice,
		requests: []server.MineRequest{latticeRequest("bms++", "max(price) <= 15", false)},
	},
	{
		// Counting-bound (11,300 sets, 161,560 cells): kernel, prefix-cache
		// and GC changes show here. One client leaves both cores to the
		// level engine's workers.
		name:     "lattice-deep",
		clients:  1,
		corpus:   lattice,
		requests: []server.MineRequest{latticeRequest("bms**", "min(price) <= 5", true)},
	},
	{
		// The compressed backend: candidate generation, counting and the
		// largest scheduler stall of any workload split the time, and 3,098
		// answers exercise encode.
		name:    "sparse-wide",
		clients: 1,
		corpus: func(bool) ([]*dataset.DB, error) {
			db, err := gen.Sparse(gen.DefaultSparse(20_000, corpusSeed))
			return []*dataset.DB{db}, err
		},
		requests: []server.MineRequest{{Algo: "bms", Alpha: 0.95, CellSupport: 400, CTFraction: 0.25, MaxLevel: 4}},
	},
	{
		// Interactive small mines beside uploads: request-scope layers and
		// candidate generation matter, and every PUT invalidates anything
		// cached per dataset.
		name:    "churn-small",
		clients: 2,
		churn:   true,
		corpus: func(bool) ([]*dataset.DB, error) {
			var out []*dataset.DB
			for v := int64(0); v < 2; v++ {
				cfg := gen.DefaultMethod2(2000, corpusSeed+v)
				cfg.NumItems = 60
				db, _, err := gen.Method2(cfg)
				if err != nil {
					return nil, err
				}
				out = append(out, db)
			}
			return out, nil
		},
		requests: []server.MineRequest{
			{Algo: "bms++", Query: "max(price) <= 50", MaxLevel: 4},
			{Algo: "bms++", Query: "max(price) <= 20 & sum(price) <= 60", MaxLevel: 4},
			{Algo: "bms**", Query: "min(price) <= 10", Push: true, MaxLevel: 4},
			{Algo: "bms", Alpha: 0.95, CellSupportFrac: 0.1, MaxLevel: 3},
		},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// shuffleBaskets returns db with its baskets in a random order: other
// upload bytes and other TID-lists, the same answers for the same mining
// work. Changing the item ids would not do. A permutation reorders the
// items, which decides the prefixes candidates share and so the
// prefix-cache reuse (up to 7% more or less work); padding the catalog
// with unsold items lowers the density, which already tips the lattice
// corpus from the dense to the compressed backend at 8 extra items.
func shuffleBaskets(db *dataset.DB, r *rand.Rand) (*dataset.DB, error) {
	tx := append([]dataset.Transaction(nil), db.Tx...)
	r.Shuffle(len(tx), func(a, b int) { tx[a], tx[b] = tx[b], tx[a] })
	return dataset.NewDB(db.Catalog, tx)
}

// version is one dataset version as the server sees it: the bytes a PUT
// uploads and the database dataset.Read makes of them.
type version struct {
	body []byte
	db   *dataset.DB
}

// buildVersions generates the workload's corpus, shuffles its baskets by
// seed, and round-trips each version through the binary format.
func buildVersions(w workload, seed int64, quick bool) ([]version, error) {
	dbs, err := w.corpus(quick)
	if err != nil {
		return nil, fmt.Errorf("%s: generate corpus: %w", w.name, err)
	}
	r := rand.New(rand.NewSource(seed))
	out := make([]version, len(dbs))
	for i, db := range dbs {
		db, err = shuffleBaskets(db, r)
		if err != nil {
			return nil, fmt.Errorf("%s: shuffle: %w", w.name, err)
		}
		var buf bytes.Buffer
		if err := dataset.Write(&buf, db); err != nil {
			return nil, fmt.Errorf("%s: encode: %w", w.name, err)
		}
		back, err := dataset.Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return nil, fmt.Errorf("%s: decode: %w", w.name, err)
		}
		out[i] = version{body: buf.Bytes(), db: back}
	}
	return out, nil
}

// mineParams resolves a request's thresholds exactly as handleMine does.
func mineParams(req server.MineRequest) core.Params {
	p := core.DefaultParams()
	if req.Alpha != 0 {
		p.Alpha = req.Alpha
	}
	if req.CellSupport != 0 {
		p.CellSupport = req.CellSupport
		p.CellSupportFrac = 0
	} else if req.CellSupportFrac != 0 {
		p.CellSupportFrac = req.CellSupportFrac
	}
	if req.CTFraction != 0 {
		p.CTFraction = req.CTFraction
	}
	if req.MaxLevel != 0 {
		p.MaxLevel = req.MaxLevel
	}
	return p
}

// queryOf returns the request's query text and algorithm with handleMine's
// defaults applied.
func queryOf(req server.MineRequest) (query, algo string) {
	query, algo = req.Query, strings.ToLower(req.Algo)
	if query == "" {
		query = "true"
	}
	if algo == "" {
		algo = "bms"
	}
	return query, algo
}

// runAlgo dispatches to the Miner method handleMine picks for algo.
func runAlgo(ctx context.Context, m *core.Miner, algo string, q *constraint.Conjunction, push bool) (*core.Result, error) {
	switch algo {
	case "bms":
		return m.BMSContext(ctx)
	case "bms+":
		return m.BMSPlusContext(ctx, q)
	case "bms++":
		return m.BMSPlusPlusContext(ctx, q, core.PlusPlusOptions{PushMonotoneSuccinct: push})
	case "bms*":
		return m.BMSStarContext(ctx, q)
	case "bms**":
		return m.BMSStarStarContext(ctx, q, core.StarStarOptions{PushMonotoneSuccinct: push})
	}
	return nil, fmt.Errorf("unknown algorithm %q", algo)
}

// reference is the answer set a request must return on one dataset version,
// plus the bytes the server's encoder writes for it, which lets a response
// be checked without decoding it.
type reference struct {
	answers [][]uint32
	encoded []byte // `"answers":[...],`
}

// answerIDs converts mined sets to the response's wire shape.
func answerIDs(sets []itemset.Set) [][]uint32 {
	out := make([][]uint32, len(sets))
	for i, s := range sets {
		ids := make([]uint32, len(s))
		for j, id := range s {
			ids[j] = uint32(id)
		}
		out[i] = ids
	}
	return out
}

// computeReferences mines every (version, request) pair on the serial path
// with the default counter — an engine configuration the server never uses —
// and rejects an empty answer set, which would make the check vacuous.
func computeReferences(w workload, versions []version) ([][]reference, error) {
	refs := make([][]reference, len(versions))
	for v, ver := range versions {
		refs[v] = make([]reference, len(w.requests))
		for i, req := range w.requests {
			query, algo := queryOf(req)
			q, err := cql.Parse(query)
			if err != nil {
				return nil, err
			}
			m, err := core.New(ver.db, mineParams(req), core.WithWorkers(1))
			if err != nil {
				return nil, err
			}
			res, err := runAlgo(context.Background(), m, algo, q, req.Push)
			if err != nil {
				return nil, err
			}
			if res.Truncated || len(res.Answers) == 0 {
				return nil, fmt.Errorf("%s: request %d on version %d has no reference answers (truncated=%v)", w.name, i, v, res.Truncated)
			}
			refs[v][i], err = newReference(answerIDs(res.Answers))
			if err != nil {
				return nil, err
			}
		}
	}
	return refs, nil
}

func newReference(answers [][]uint32) (reference, error) {
	enc, err := json.Marshal(answers)
	if err != nil {
		return reference{}, err
	}
	encoded := append([]byte(`"answers":`), enc...)
	return reference{answers: answers, encoded: append(encoded, ',')}, nil
}

var (
	answersKey   = []byte(`"answers":`)
	truncatedKey = []byte(`"truncated":true`)
)

// matches reports whether a 200 /v1/mine body carries exactly the
// reference answers and is not truncated. The byte comparison is the fast
// path; a body encoded differently (but equivalently) falls back to a full
// decode.
func (r reference) matches(body []byte) bool {
	if i := bytes.Index(body, answersKey); i >= 0 && bytes.HasPrefix(body[i:], r.encoded) && !bytes.Contains(body, truncatedKey) {
		return true
	}
	var resp struct {
		Answers   [][]uint32 `json:"answers"`
		Truncated bool       `json:"truncated"`
	}
	if err := json.Unmarshal(body, &resp); err != nil || resp.Truncated {
		return false
	}
	return equalAnswers(resp.Answers, r.answers)
}

func equalAnswers(a, b [][]uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}
