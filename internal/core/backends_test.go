package core

import (
	"fmt"
	"reflect"
	"testing"

	"ccs/internal/constraint"
	"ccs/internal/counting"
	"ccs/internal/dataset"
	"ccs/internal/gen"
	"ccs/internal/obs"
	"ccs/internal/tidlist"
)

// TestBackendsAgree mines the lattice and sparse corpora with all six
// algorithms on both TID-list backends at 1 and 8 workers: the answers and
// every Stats counter must be identical to the dense serial run. The
// corpora are small but deep enough that their levels hold prefix runs of
// several members, which the test checks, so the run kernel's shared
// prefix lists are exercised on both backends.
func TestBackendsAgree(t *testing.T) {
	lcfg := gen.DefaultLattice(3000, 1)
	lcfg.NumItems = 60
	lcfg.NumBlocks = 3
	lcfg.BlockLen = 5
	lattice, err := gen.Lattice(lcfg)
	if err != nil {
		t.Fatal(err)
	}
	scfg := gen.DefaultSparse(3000, 1)
	scfg.NumItems = 1000 // the tail stays rare with one tail item per basket
	scfg.TailPerTx = 1
	sparse, err := gen.Sparse(scfg)
	if err != nil {
		t.Fatal(err)
	}
	corpora := []struct {
		name   string
		db     *dataset.DB
		params Params
		q      *constraint.Conjunction
	}{
		{"lattice", lattice, Params{Alpha: 0.95, CellSupportFrac: 0.1, CTFraction: 0.25, MaxLevel: 5},
			constraint.And(constraint.NewAggregate(constraint.AggMax, constraint.Price, constraint.LE, 12))},
		{"sparse", sparse, Params{Alpha: 0.95, CellSupport: 40, CTFraction: 0.25, MaxLevel: 3},
			constraint.And(constraint.NewAggregate(constraint.AggMax, constraint.Price, constraint.LE, 100))},
	}
	for _, c := range corpora {
		checkPrefixRuns(t, c.name, c.db, c.params)
		for _, algo := range allAlgos {
			t.Run(c.name+"/"+algo, func(t *testing.T) {
				var want *Result
				for _, backend := range []tidlist.Backend{tidlist.BackendDense, tidlist.BackendCompressed} {
					for _, workers := range []int{1, 8} {
						cnt := counting.NewBitmapCounterBackend(c.db, backend)
						if cnt.IndexBackend() != backend {
							t.Fatalf("%s: forced %s index reports %s", c.name, backend, cnt.IndexBackend())
						}
						m, err := New(c.db, c.params, WithCounter(cnt), WithWorkers(workers))
						if err != nil {
							t.Fatal(err)
						}
						got := runAlgo(t, m, algo, c.q)
						tag := fmt.Sprintf("%s/%s/%s/workers=%d", c.name, algo, backend, workers)
						if want == nil {
							want = got
							if len(want.Answers) == 0 && want.Stats.SetsConsidered == 0 {
								t.Fatalf("%s: mined nothing; the comparison is vacuous", tag)
							}
							continue
						}
						if !sameSets(want.Answers, got.Answers) {
							t.Errorf("%s: answers differ from dense serial:\n got  %s\n want %s",
								tag, setsString(got.Answers), setsString(want.Answers))
						}
						if ws, gs := statsNoDurations(want.Stats), statsNoDurations(got.Stats); !reflect.DeepEqual(ws, gs) {
							t.Errorf("%s: stats differ from dense serial:\n got  %+v\n want %+v", tag, gs, ws)
						}
					}
				}
			})
		}
	}
}

// checkPrefixRuns profiles a BMS mine on db and fails unless some level of
// 3-sets holds more sets than prefix runs: at k = 3 the kernel
// materializes exactly one list per run, so sets > materialized means runs
// of several members.
func checkPrefixRuns(t *testing.T, name string, db *dataset.DB, params Params) {
	t.Helper()
	prof := obs.NewProfile(name)
	m, err := New(db, params, WithWorkers(1), WithProfile(prof))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.BMS(); err != nil {
		t.Fatal(err)
	}
	for _, lv := range prof.Record().Levels {
		for _, sh := range lv.Shards {
			if lv.Level == 3 && int64(sh.Sets) > sh.Materialized {
				return
			}
		}
	}
	t.Fatalf("%s: no level of 3-sets holds a prefix run of several members", name)
}
