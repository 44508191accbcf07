package exp

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"adjstream/internal/stream"
	"adjstream/internal/telemetry"
)

// The run journal is the machine-readable provenance record of a sweep: an
// append-only JSONL file with one record per experiment grid point (the
// config and measured cells of one table row), bracketed by a run header
// (seed, git revision, driver, environment) and a per-experiment summary
// (wall time, telemetry metrics snapshot, driver-counter delta). Everything
// EXPERIMENTS.md claims is re-derivable from the journal of the run that
// produced it: workload parameters, budgets, measured space words, and the
// per-pass timing/occupancy metrics of the telemetry registry.

// Journal record kinds.
const (
	// KindRun is the one-per-run header record: seed, git rev, driver,
	// Go version, GOMAXPROCS.
	KindRun = "run"
	// KindGridPoint is one experiment table row: the header names the
	// config and measured columns, the cells hold the values.
	KindGridPoint = "grid-point"
	// KindExperiment is the per-experiment trailer: elapsed wall time,
	// notes, the telemetry metrics snapshot accumulated over the
	// experiment, and the driver-counter delta.
	KindExperiment = "experiment"
)

// JournalRecord is one line of the JSONL run journal.
type JournalRecord struct {
	Kind string `json:"kind"`
	// Time is the record's wall-clock timestamp (RFC 3339).
	Time string `json:"time,omitempty"`
	// Experiment is the experiment id (e.g. "T1.R9"); empty on run headers.
	Experiment string `json:"experiment,omitempty"`
	// Title is the experiment title (experiment records only).
	Title string `json:"title,omitempty"`
	// Seed is the sweep seed every grid point derives its randomness from.
	Seed uint64 `json:"seed"`
	// GitRev is the VCS revision of the binary (suffixed "+dirty" when the
	// worktree had local modifications; empty when no VCS stamp is present).
	GitRev string `json:"git_rev,omitempty"`
	// GoVersion and Workers describe the environment (run headers only).
	GoVersion string `json:"go_version,omitempty"`
	Workers   int    `json:"workers,omitempty"`
	// Driver is the multi-copy execution driver; runs record "broadcast".
	Driver string `json:"driver,omitempty"`
	// Row is the 1-based grid-point index within its experiment.
	Row int `json:"row,omitempty"`
	// Header and Cells are the column names and values of one grid point,
	// in table order.
	Header []string `json:"header,omitempty"`
	Cells  []string `json:"cells,omitempty"`
	// Notes are the experiment's conclusions (fitted exponents etc.).
	Notes []string `json:"notes,omitempty"`
	// ElapsedMS is the experiment's wall time in milliseconds.
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`
	// Metrics is the telemetry registry snapshot accumulated over the
	// experiment (per-pass wall times, items/sec, space high-water marks,
	// sample occupancy; empty when telemetry is disabled).
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// DriverStats is the driver-counter delta of the experiment.
	DriverStats *stream.DriverStats `json:"driver_stats,omitempty"`
}

// Point returns the grid point as a column→value map.
func (r *JournalRecord) Point() map[string]string {
	if len(r.Header) == 0 {
		return nil
	}
	out := make(map[string]string, len(r.Header))
	for i, h := range r.Header {
		if i < len(r.Cells) {
			out[h] = r.Cells[i]
		}
	}
	return out
}

var (
	journalMu sync.Mutex
	journalW  io.Writer
)

// SetJournal directs Run to append JSONL records to w (nil disables
// journaling). The caller owns w's lifetime; records are written with a
// trailing newline each, so appending to an existing journal file is safe.
func SetJournal(w io.Writer) {
	journalMu.Lock()
	defer journalMu.Unlock()
	journalW = w
}

// writeJournal marshals rec onto the journal, if one is set.
func writeJournal(rec JournalRecord) error {
	journalMu.Lock()
	defer journalMu.Unlock()
	if journalW == nil {
		return nil
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = journalW.Write(b)
	return err
}

// journaling reports whether a journal writer is installed.
func journaling() bool {
	journalMu.Lock()
	defer journalMu.Unlock()
	return journalW != nil
}

// GitRev returns the build's VCS revision (12 hex digits, "+dirty" suffix
// when built from a modified worktree), or "" when the binary carries no
// VCS stamp (e.g. under `go test`).
func GitRev() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	var rev string
	dirty := false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return ""
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// journalDriver is the multi-copy driver every record names. runCopies runs
// the copy pool, which keeps the name of the broadcast driver it replaced,
// so journals written before and after the change validate alike.
const journalDriver = "broadcast"

// statsDelta returns after minus before for the summing counters; the
// max-style field Passes keeps its after value.
func statsDelta(after, before stream.DriverStats) stream.DriverStats {
	return stream.DriverStats{
		Copies:          after.Copies - before.Copies,
		Passes:          after.Passes,
		StreamItemsRead: after.StreamItemsRead - before.StreamItemsRead,
		ItemsDelivered:  after.ItemsDelivered - before.ItemsDelivered,
		Batches:         after.Batches - before.Batches,
	}
}

// journalRunHeader emits the one-per-run provenance record.
func journalRunHeader(seed uint64) error {
	return writeJournal(JournalRecord{
		Kind:      KindRun,
		Time:      time.Now().Format(time.RFC3339),
		Seed:      seed,
		GitRev:    GitRev(),
		GoVersion: runtime.Version(),
		Workers:   runtime.GOMAXPROCS(0),
		Driver:    journalDriver,
	})
}

// journalExperiment emits the grid-point records of t followed by the
// experiment trailer.
func journalExperiment(t *Table, seed uint64, elapsed time.Duration, metrics map[string]float64, ds stream.DriverStats) error {
	rev := GitRev()
	for i, row := range t.Rows {
		if err := writeJournal(JournalRecord{
			Kind:       KindGridPoint,
			Experiment: t.ID,
			Seed:       seed,
			GitRev:     rev,
			Driver:     journalDriver,
			Row:        i + 1,
			Header:     t.Header,
			Cells:      row,
		}); err != nil {
			return err
		}
	}
	return writeJournal(JournalRecord{
		Kind:        KindExperiment,
		Time:        time.Now().Format(time.RFC3339),
		Experiment:  t.ID,
		Title:       t.Title,
		Seed:        seed,
		GitRev:      rev,
		Driver:      journalDriver,
		Notes:       t.Notes,
		ElapsedMS:   float64(elapsed) / float64(time.Millisecond),
		Metrics:     metrics,
		DriverStats: &ds,
	})
}

// ReadJournal parses a JSONL run journal, skipping blank lines. Every
// record must carry a known kind; grid points must have matching
// header/cell lengths — the validation `cmd/runjournal -check` and the
// journal-smoke CI target rely on.
func ReadJournal(r io.Reader) ([]JournalRecord, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	var out []JournalRecord
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var rec JournalRecord
		if err := json.Unmarshal([]byte(text), &rec); err != nil {
			return nil, fmt.Errorf("exp: journal line %d: %w", line, err)
		}
		switch rec.Kind {
		case KindRun, KindExperiment:
		case KindGridPoint:
			if len(rec.Header) == 0 || len(rec.Header) != len(rec.Cells) {
				return nil, fmt.Errorf("exp: journal line %d: grid point with %d header / %d cell columns",
					line, len(rec.Header), len(rec.Cells))
			}
			if rec.Experiment == "" {
				return nil, fmt.Errorf("exp: journal line %d: grid point without experiment id", line)
			}
		default:
			return nil, fmt.Errorf("exp: journal line %d: unknown kind %q", line, rec.Kind)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("exp: reading journal: %w", err)
	}
	return out, nil
}

// JournalTables reconstructs the experiment tables recorded in a journal
// (the re-summarize direction of the round trip): grid points grouped by
// experiment id in journal order, with the notes of the matching experiment
// trailer. id filters to one experiment ("" or "all" keeps every one).
func JournalTables(recs []JournalRecord, id string) ([]*Table, error) {
	byID := make(map[string]*Table)
	var order []string
	for i := range recs {
		rec := &recs[i]
		if id != "" && id != "all" && rec.Experiment != id {
			continue
		}
		switch rec.Kind {
		case KindGridPoint:
			t, ok := byID[rec.Experiment]
			if !ok {
				t = &Table{ID: rec.Experiment, Header: rec.Header}
				byID[rec.Experiment] = t
				order = append(order, rec.Experiment)
			}
			t.Rows = append(t.Rows, rec.Cells)
		case KindExperiment:
			if t, ok := byID[rec.Experiment]; ok {
				t.Title = rec.Title
				t.Notes = rec.Notes
			}
		}
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("exp: no grid points for experiment %q in journal", id)
	}
	out := make([]*Table, 0, len(order))
	for _, eid := range order {
		out = append(out, byID[eid])
	}
	return out, nil
}

// SummarizeJournal renders one overview table for a journal: a row per
// experiment with grid-point count, elapsed time, stream traversal work,
// and the peak space words telemetry observed — the `cmd/runjournal`
// default view.
func SummarizeJournal(recs []JournalRecord) *Table {
	t := &Table{
		ID:    "J1",
		Title: "Run journal summary",
		Header: []string{
			"experiment", "grid points", "elapsed (ms)", "copies run",
			"stream items read", "peak space (words)", "seed", "git rev", "driver",
		},
	}
	points := make(map[string]int)
	var order []string
	seen := make(map[string]bool)
	trailers := make(map[string]*JournalRecord)
	for i := range recs {
		rec := &recs[i]
		if rec.Experiment == "" {
			continue
		}
		if !seen[rec.Experiment] {
			seen[rec.Experiment] = true
			order = append(order, rec.Experiment)
		}
		switch rec.Kind {
		case KindGridPoint:
			points[rec.Experiment]++
		case KindExperiment:
			trailers[rec.Experiment] = rec
		}
	}
	for _, id := range order {
		row := []string{id, d(int64(points[id])), "—", "—", "—", "—", "—", "—", "—"}
		if tr := trailers[id]; tr != nil {
			row[2] = fmt.Sprintf("%.0f", tr.ElapsedMS)
			if tr.DriverStats != nil {
				row[3] = d(int64(tr.DriverStats.Copies))
				row[4] = d(tr.DriverStats.StreamItemsRead)
			}
			if peak := peakSpaceWords(tr.Metrics); peak > 0 {
				row[5] = d(peak)
			}
			row[6] = fmt.Sprintf("%d", tr.Seed)
			if tr.GitRev != "" {
				row[7] = tr.GitRev
			}
			if tr.Driver != "" {
				row[8] = tr.Driver
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// peakSpaceWords extracts the largest space high-water mark of a metrics
// snapshot (keys ending in ".space_words").
func peakSpaceWords(metrics map[string]float64) int64 {
	var peak int64
	keys := make([]string, 0, len(metrics))
	for k := range metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if strings.HasSuffix(k, ".space_words") {
			if v := int64(metrics[k]); v > peak {
				peak = v
			}
		}
	}
	return peak
}

// runExperimentJournaled executes one experiment, bracketing it with the
// telemetry/driver-counter bookkeeping the journal records. When a journal
// is installed and the global telemetry registry is live, the registry is
// reset first so the recorded metrics snapshot is the experiment's own.
func runExperimentJournaled(e Experiment, seed uint64) (*Table, error) {
	journal := journaling()
	reg := telemetry.Global()
	if journal {
		reg.Reset()
	}
	usedBefore := DriverCounters()
	start := time.Now()
	t, err := e.Run(seed)
	if err != nil {
		return nil, err
	}
	if !journal {
		return t, nil
	}
	usedAfter := DriverCounters()
	if err := journalExperiment(t, seed, time.Since(start), reg.Snapshot(), statsDelta(usedAfter, usedBefore)); err != nil {
		return nil, fmt.Errorf("writing journal: %w", err)
	}
	return t, nil
}
