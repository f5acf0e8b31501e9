package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// toySweep shrinks a sweep workload to small codes and few trials.
func toySweep(s sweepSpec) sweepSpec {
	s.distances, s.trials = []int{5, 7}, 64
	return s
}

func assertClean(t *testing.T, o *outcome, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if len(o.checks) == 0 {
		t.Fatal("no output checks ran")
	}
	for _, c := range o.checks {
		if !c.ok {
			t.Errorf("check %s failed: %s", c.name, c.detail)
		}
	}
	if o.tally.attempted < 1 {
		t.Error("no ops attempted")
	}
}

func TestSmokeSweeps(t *testing.T) {
	for name, spec := range map[string]sweepSpec{"threshold": thresholdSpec, "erasure": erasureSpec} {
		spec := toySweep(spec)
		for _, traced := range []bool{false, true} {
			cfg := runConfig{seed: 3, seconds: 0.05, traced: traced}
			var tr *tracer
			if traced {
				tr = newTracer()
			}
			o, err := runSweep(cfg, tr, spec)
			assertClean(t, o, err)
			if traced {
				if len(tr.spans) == 0 {
					t.Errorf("%s: traced run recorded no spans", name)
				}
				if _, err := buildResult(o, perLayer, false); err != nil {
					t.Errorf("%s: %v", name, err)
				}
				continue
			}
			if _, err := buildResult(o, endToEnd, true); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			if f := o.metrics["fidelity"]; f <= 0 || f > 1 {
				t.Errorf("%s: fidelity %v outside (0,1]", name, f)
			}
		}
	}
}

func TestSmokeService(t *testing.T) {
	for _, traced := range []bool{false, true} {
		cfg := runConfig{seed: 1, seconds: 0.05, traced: traced}
		var tr *tracer
		if traced {
			tr = newTracer()
		}
		o, err := runService(cfg, tr)
		assertClean(t, o, err)
		defs, required := endToEnd, true
		if traced {
			defs, required = perLayer, false
		}
		if _, err := buildResult(o, defs, required); err != nil {
			t.Errorf("traced %v: %v", traced, err)
		}
		if traced {
			if o.metrics["faults.step_us"] <= 0 {
				t.Errorf("faults.step_us = %v, want > 0", o.metrics["faults.step_us"])
			}
			continue
		}
		if f := o.metrics["fidelity"]; f <= 0 || f > 1 {
			t.Errorf("fidelity %v outside (0,1]", f)
		}
		if h := o.metrics["heap_mb"]; h <= 0 {
			t.Errorf("heap_mb = %v, want > 0", h)
		}
	}
}

func TestCommandOutput(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-workload", "erasure", "-seconds", "0.01", "-trace-dir", t.TempDir()}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := res[k]; !ok {
			t.Errorf("result lacks %q", k)
		}
	}
	if len(res) != 4 {
		t.Errorf("result has %d keys, want 4", len(res))
	}
	var metrics map[string]resultMetric
	if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	for _, d := range endToEnd {
		if m, ok := metrics[d.name]; !ok || m.Unit != d.unit || m.Value == 0 {
			t.Errorf("metric %s = %+v", d.name, m)
		}
	}

	out.Reset()
	if code := run([]string{"-workload", "nope"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, out.String())
	}
}
