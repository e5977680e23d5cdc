package counting

import (
	"io"

	"ccs/internal/obs"
)

// Metric names exported by the counting engines. Keep metric names as
// package-level consts: the ccslint metriconst analyzer rejects computed
// names so the catalog in DESIGN.md stays greppable and complete.
const (
	// MetricSetsCountedTotal counts itemsets turned into contingency
	// tables, by engine.
	MetricSetsCountedTotal = "ccs_sets_counted_total"
	// MetricDiskScanBytesTotal counts bytes read from dataset files by the
	// disk scanner (before buffering).
	MetricDiskScanBytesTotal = "ccs_diskscan_bytes_total"
	// MetricDiskScanRetriesTotal counts read retries the disk scanner
	// performed on transient I/O errors.
	MetricDiskScanRetriesTotal = "ccs_diskscan_retries_total"
	// MetricTransientFaultsTotal counts transient faults a scan absorbed on
	// its way to a successful completion.
	MetricTransientFaultsTotal = "ccs_transient_faults_survived_total"
	// MetricIndexBytes gauges the resident size of the most recently built
	// vertical index, by TID-list backend — the live view of what the
	// dense/compressed choice costs in memory.
	MetricIndexBytes = "ccs_index_bytes"
)

var (
	setsCounted     = obs.Default().CounterVec(MetricSetsCountedTotal, "Itemsets turned into contingency tables, by counting engine.", "engine")
	diskBytes       = obs.Default().Counter(MetricDiskScanBytesTotal, "Bytes read from dataset files by the disk scanner.")
	diskRetries     = obs.Default().Counter(MetricDiskScanRetriesTotal, "Disk-scanner read retries on transient I/O errors.")
	transientFaults = obs.Default().Counter(MetricTransientFaultsTotal, "Transient faults absorbed by scans that then completed successfully.")
	indexBytes      = obs.Default().GaugeVec(MetricIndexBytes, "Resident bytes of the most recently built vertical index, by TID-list backend.", "backend")
)

// recordSetsCounted charges one batch's tables to an engine's series.
func recordSetsCounted(engine string, n int) {
	if n > 0 {
		setsCounted.With(engine).Add(int64(n))
	}
}

// byteCountReader counts the bytes flowing out of the underlying reader.
// It sits between the retry layer and bufio, so it sees exactly the bytes
// a scan consumed from the file (a retried read counts once).
type byteCountReader struct {
	r io.Reader
	n int64
}

func (b *byteCountReader) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	b.n += int64(n)
	return n, err
}
