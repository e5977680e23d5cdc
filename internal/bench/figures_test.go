package bench

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// figureRow is one committed figure row without its hardware-dependent
// seconds column: figure, x, algo, sets_considered, db_scans, answers.
type figureRow [6]string

// readFigureRows parses figure CSV (the layout WriteCSV emits) into rows.
func readFigureRows(t *testing.T, data []byte) []figureRow {
	t.Helper()
	recs, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || strings.Join(recs[0], ",") != "figure,x_label,x,algo,seconds,sets_considered,db_scans,answers" {
		t.Fatalf("unexpected figure CSV header %v", recs[:1])
	}
	rows := make([]figureRow, 0, len(recs)-1)
	for _, r := range recs[1:] {
		rows = append(rows, figureRow{r[0], r[2], r[3], r[5], r[6], r[7]})
	}
	return rows
}

// TestFiguresMatchCommitted regenerates every panel of the paper's
// evaluation with DefaultConfig and holds the work it counts — sets
// considered, database scans, answers — to results/figures.csv, row by
// row. These columns do not depend on the hardware, so a change to how
// counting is done must leave every row alone; a change to what is counted
// regenerates the CSV (make figures) and explains each changed row. Under
// -short only the 10k-basket points of the basket sweeps run.
func TestFiguresMatchCommitted(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "results", "figures.csv"))
	if err != nil {
		t.Fatal(err)
	}
	want := readFigureRows(t, data)
	cfg := DefaultConfig()
	if testing.Short() {
		cfg.Baskets = []int{10000}
		kept := want[:0]
		for _, r := range want {
			if r[1] == "10000" {
				kept = append(kept, r)
			}
		}
		want = kept
	}

	var buf bytes.Buffer
	header := true
	for _, id := range FigureIDs() {
		if testing.Short() && findFigures(id)[0].sweep != sweepBaskets {
			continue
		}
		series, err := Run(id, cfg)
		if err != nil {
			t.Fatalf("figure %s: %v", id, err)
		}
		for _, s := range series {
			if err := WriteCSV(&buf, header, s); err != nil {
				t.Fatal(err)
			}
			header = false
		}
	}
	got := readFigureRows(t, buf.Bytes())

	if len(got) != len(want) {
		t.Errorf("regenerated %d rows, results/figures.csv has %d", len(got), len(want))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Errorf("row %d: got %v, committed %v (figure, x, algo, sets_considered, db_scans, answers)",
				i+1, got[i], want[i])
		}
	}
}
