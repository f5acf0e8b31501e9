package experiments

import (
	"strings"
	"testing"
)

func TestAdaptiveStudySmoke(t *testing.T) {
	rows, err := AdaptiveStudy(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		checkCell(t, r.Variant, r.Cell)
	}
	if rows[0].Variant != "fixed-d5" || rows[1].Variant != "adaptive-d357" {
		t.Fatalf("variants = %v, %v", rows[0].Variant, rows[1].Variant)
	}
	out := FormatAblation(rows)
	if !strings.Contains(out, "adaptive-d357") {
		t.Error("formatter dropped a variant")
	}
}

func TestStepSizeStudySmoke(t *testing.T) {
	pts, err := StepSizeStudy(DecoderStudyConfig{Seed: 1, Trials: 30}, []float64{0.5, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.LogicalRate < 0 || p.LogicalRate > 1 || p.Trials != 30 {
			t.Fatalf("bad point %+v", p)
		}
	}
	if !strings.Contains(FormatDecoderPoints(pts), "r=0.500") {
		t.Error("formatter lost the variant label")
	}
}

func TestCoreLayoutStudySmoke(t *testing.T) {
	layouts, err := CoreLayoutStudy(DecoderStudyConfig{Seed: 1, Trials: 30})
	if err != nil {
		t.Fatal(err)
	}
	// The layouts print in this order, so results_ablations.txt must not
	// depend on map iteration.
	if len(layouts) != 2 || layouts[0].Layout != "l-shape" || layouts[1].Layout != "diagonal" {
		t.Fatalf("layouts = %+v, want l-shape then diagonal", layouts)
	}
	for _, l := range layouts {
		if len(l.Points) != 2 {
			t.Fatalf("%s: %d points", l.Layout, len(l.Points))
		}
	}
}

func TestErasureGrowthStudySmoke(t *testing.T) {
	pts, err := ErasureGrowthStudy(DecoderStudyConfig{Seed: 1, Trials: 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].Variant != "pre-absorbed" || pts[1].Variant != "finite-speed" {
		t.Fatalf("points = %+v", pts)
	}
}

func TestWaitForCompleteStudySmoke(t *testing.T) {
	rows, err := WaitForCompleteStudy(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		checkCell(t, r.Variant, r.Cell)
	}
}

func TestSchedulerStudySmoke(t *testing.T) {
	rows, err := SchedulerStudy(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Variant != "lp-rounding" || rows[1].Variant != "greedy" {
		t.Fatalf("rows = %+v", rows)
	}
	for _, r := range rows {
		checkCell(t, r.Variant, r.Cell)
	}
}
