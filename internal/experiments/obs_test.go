package experiments

import (
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"surfnet/internal/obs"
	"surfnet/internal/telemetry"
)

// TestFig6aInvariantUnderFullObservability pins the acceptance criterion that
// observability must not perturb results: Fig. 6(a) with tracing, metrics,
// progress reporting, and a live obs server scraped mid-run is
// field-for-field identical to the bare run, for every worker count.
func TestFig6aInvariantUnderFullObservability(t *testing.T) {
	cfg := tinyConfig()
	cfg.Trials = 5
	bare, err := Fig6a(cfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, w := range workerCounts {
		cfg := tinyConfig()
		cfg.Trials = 5
		cfg.Workers = w
		cfg.Metrics = telemetry.NewRegistry()
		cfg.Tracer = telemetry.NewJSONL(io.Discard)
		cfg.Progress = obs.NewTracker()

		srv := obs.NewServer(cfg.Metrics, cfg.Progress)
		srv.SetReady(true)
		ts := httptest.NewServer(srv.Handler())

		// Scrape continuously while the sweep runs.
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, path := range []string{"/metrics", "/status"} {
					resp, err := http.Get(ts.URL + path)
					if err != nil {
						t.Error(err)
						return
					}
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()

		rows, err := Fig6a(cfg)
		close(stop)
		wg.Wait()
		ts.Close()
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !reflect.DeepEqual(rows, bare) {
			t.Fatalf("workers=%d: observability perturbed the results\ngot  %+v\nwant %+v", w, rows, bare)
		}

		st := cfg.Progress.Status()
		if st.CellsStarted == 0 || st.CellsDone != st.CellsStarted {
			t.Fatalf("workers=%d: progress cells started=%d done=%d, want all done",
				w, st.CellsStarted, st.CellsDone)
		}
		if st.TrialsDone != st.TrialsTotal || st.TrialsDone == 0 {
			t.Fatalf("workers=%d: trials done=%d total=%d, want all reported",
				w, st.TrialsDone, st.TrialsTotal)
		}
	}
}

// TestRunCellReportsProgressLabels checks the /status cell labels carry the
// figure/design naming the CLIs print.
func TestRunCellReportsProgressLabels(t *testing.T) {
	cfg := tinyConfig()
	cfg.Trials = 2
	cfg.Progress = obs.NewTracker()
	if _, err := Fig6a(cfg); err != nil {
		t.Fatal(err)
	}
	st := cfg.Progress.Status()
	found := false
	for _, c := range st.Cells {
		if strings.HasPrefix(c.Label, "fig6a/") {
			found = true
			if c.Done != int64(cfg.Trials) || c.Total != int64(cfg.Trials) {
				t.Fatalf("cell %+v, want %d/%d trials", c, cfg.Trials, cfg.Trials)
			}
		}
	}
	if !found {
		t.Fatalf("no fig6a/ cell labels in %+v", st.Cells)
	}
}

// TestFig8ReportsProgress checks the threshold study declares one cell per
// (decoder, distance, rate) point.
func TestFig8ReportsProgress(t *testing.T) {
	cfg := DefaultFig8Config()
	cfg.Trials = 5
	cfg.Distances = []int{3}
	cfg.PauliRates = []float64{0.06, 0.08}
	cfg.Progress = obs.NewTracker()
	if _, err := Fig8(cfg); err != nil {
		t.Fatal(err)
	}
	st := cfg.Progress.Status()
	wantCells := len(cfg.Decoders) * len(cfg.Distances) * len(cfg.PauliRates)
	if st.CellsStarted != wantCells || st.CellsDone != wantCells {
		t.Fatalf("cells started=%d done=%d, want %d", st.CellsStarted, st.CellsDone, wantCells)
	}
	if st.TrialsDone != int64(wantCells*cfg.Trials) {
		t.Fatalf("trials done=%d, want %d", st.TrialsDone, wantCells*cfg.Trials)
	}
	for _, c := range st.Cells {
		if !strings.HasPrefix(c.Label, "fig8/") {
			t.Fatalf("unexpected cell label %q", c.Label)
		}
	}
}
