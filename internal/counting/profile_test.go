package counting

import (
	"context"
	"math/rand"
	"testing"

	"ccs/internal/itemset"
)

// TestProfilerOffZeroAllocs is the overhead guard: with no ShardProf on
// the context, the instrumented counting path must allocate exactly what
// the plain path allocates on the 3-item kernel — the disabled profiler is
// free.
func TestProfilerOffZeroAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	db := randomDB(r, 50, 5000)
	sets := []itemset.Set{itemset.New(1, 2, 3)}
	ctx := context.Background()
	plain := func() {
		if _, err := NewBitmapCounter(db).CountTables(sets); err != nil {
			t.Fatal(err)
		}
	}
	inst := func() {
		if _, err := NewBitmapCounter(db).CountTablesContext(ctx, sets); err != nil {
			t.Fatal(err)
		}
	}
	// warm once so both sides measure the steady state
	plain()
	inst()
	if a, b := testing.AllocsPerRun(50, inst), testing.AllocsPerRun(50, plain); a > b {
		t.Errorf("profiler-off context path allocates %.1f/op, plain path %.1f/op — want 0 extra", a, b)
	}
}

// TestShardProfCollects checks an attached ShardProf sees every set, the
// cells actually built, and the exact intersection work of the run kernel.
func TestShardProfCollects(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	db := randomDB(r, 30, 500)
	batch := prefixBatch(8, 3) // 21 prefix runs of 1 to 6 members

	bm := NewBitmapCounter(db)
	var prof ShardProf
	ctx := WithShardProf(context.Background(), &prof)
	tables, err := bm.CountTablesContext(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != len(batch) {
		t.Fatalf("got %d tables for %d sets", len(tables), len(batch))
	}
	if got := prof.Sets.Load(); got != int64(len(batch)) {
		t.Errorf("prof.Sets = %d, want %d", got, len(batch))
	}
	if got, want := prof.Cells.Load(), int64(len(batch))*8; got != want {
		t.Errorf("prof.Cells = %d, want %d (3-item sets build 8 cells each)", got, want)
	}
	// Each 2-item prefix materializes its one pair list (2^2 − 3 = 1) and
	// each member popcounts 2^2 − 1 = 3 lists against its last column.
	runs := int64(len(PrefixRuns(batch)))
	if got := prof.Materialized.Load(); got != runs {
		t.Errorf("prof.Materialized = %d, want one per run (%d)", got, runs)
	}
	if got, want := prof.Intersections.Load(), runs+3*int64(len(batch)); got != want {
		t.Errorf("prof.Intersections = %d, want %d", got, want)
	}
	want, err := NewScanCounter(db).CountTables(batch)
	if err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		if !tablesEqual(want[i], tables[i]) {
			t.Fatalf("profiled count diverges on %v", batch[i])
		}
	}

	// nil prof: WithShardProf must return the context unchanged
	if got := WithShardProf(ctx, nil); got != ctx {
		t.Error("WithShardProf(ctx, nil) wrapped the context")
	}
	if shardProfFrom(context.Background()) != nil {
		t.Error("shardProfFrom on a bare context returned a profile")
	}
}

// TestShardProfParallelCounter checks the fan-out counter aggregates into
// one shared ShardProf without losing counts (atomics, exercised under
// -race by the suite).
func TestShardProfParallelCounter(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	db := randomDB(r, 30, 2000)
	batch := prefixBatch(10, 3)

	pc := NewParallelCounter(db, 8)
	var prof ShardProf
	ctx := WithShardProf(context.Background(), &prof)
	tables, err := pc.CountTablesContext(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != len(batch) {
		t.Fatalf("got %d tables for %d sets", len(tables), len(batch))
	}
	if got := prof.Sets.Load(); got != int64(len(batch)) {
		t.Errorf("prof.Sets = %d, want %d", got, len(batch))
	}
	if got, want := prof.Cells.Load(), int64(len(batch))*8; got != want {
		t.Errorf("prof.Cells = %d, want %d", got, want)
	}
}
