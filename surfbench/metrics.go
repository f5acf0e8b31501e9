package main

import (
	"fmt"
	"math"
	"regexp"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// Metric names and units follow the benchmark contract: a name is at most 64
// letters, digits, '_', '.' and '-', starting with a letter or digit; a unit
// is at most 16 letters, digits, '_', '/', '%', '.' and '-'.
var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func validName(s string) bool { return nameRE.MatchString(s) }
func validUnit(s string) bool { return unitRE.MatchString(s) }

// metricDef declares one reported metric.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run prints on every workload. They
// are the ones every workload defines and never reports as 0; the
// workload-specific quality ratios (failed_share, accepted_share,
// logical_error_rate) are printed on the report lines instead.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_kb_per_op", "KB"},
	{"heap_mb", "MB"},
	{"fidelity", "ratio"},
}

// distances are the code distances both sweep workloads run.
var distances = []int{9, 15, 25}

// perLayer are the metrics a traced run prints. A layer the workload does not
// exercise reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"service.submit_us", "us"},
		{"service.get_us", "us"},
		{"service.step_epoch_ms", "ms"},
		{"service.epoch_fill", "count"},
		{"service.retries_per_op", "ratio"},
	}
	for _, seg := range flightSegments {
		defs = append(defs, metricDef{"service.flight." + seg + "_ms", "ms"})
	}
	defs = append(defs, []metricDef{
		{"routing.plan_ms", "ms"},
		{"routing.build_lp_ms", "ms"},
		{"routing.round_repair_ms", "ms"},
		{"routing.greedy_ms", "ms"},
		{"routing.greedy_accepted_share", "ratio"},
		{"routing.warm_hit_share", "ratio"},
		{"routing.lp_fallback_share", "ratio"},
		{"lp.solve_ms", "ms"},
		{"lp.solve_warm_ms", "ms"},
		{"lp.pivots_per_solve", "count"},
		{"lp.degenerate_share", "ratio"},
		{"lp.vars", "count"},
		{"lp.rows", "count"},
		{"lp.tableau_mb", "MB"},
		{"lp.alloc_kb_per_solve", "KB"},
		{"lp.iteration_limit_solves", "count"},
		{"core.execute_ms", "ms"},
		{"core.slots_per_code", "count"},
		{"core.recoveries_per_code", "count"},
		{"core.replans_per_code", "count"},
		{"faults.step_us", "us"},
		{"faults.outages_per_step", "count"},
	}...)
	for _, d := range distances {
		defs = append(defs,
			metricDef{fmt.Sprintf("surfacecode.sample_us.d%d", d), "us"},
			metricDef{fmt.Sprintf("surfacecode.syndrome_us.d%d", d), "us"})
	}
	for _, dec := range []string{"union-find", "surfnet"} {
		for _, d := range distances {
			defs = append(defs, metricDef{fmt.Sprintf("decoder.%s.decode_us.d%d", dec, d), "us"})
		}
	}
	for _, d := range distances {
		defs = append(defs, metricDef{fmt.Sprintf("decoder.syndrome_weight.d%d", d), "count"})
	}
	for _, d := range distances {
		defs = append(defs,
			metricDef{fmt.Sprintf("batch.sample_us.d%d", d), "us"},
			metricDef{fmt.Sprintf("batch.run_us.d%d", d), "us"})
	}
	return append(defs, []metricDef{
		{"batch.fast_lane_share", "ratio"},
		{"batch.fallback_lane_share", "ratio"},
		{"experiments.self_share", "ratio"},
		{"host.ref_ms", "ms"},
		{"trace.overhead_share", "ratio"},
	}...)
}()

// percentile is the nearest-rank percentile: the smallest sample with at
// least q of the samples at or below it. It returns 0 for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio divides, reporting 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// usage is one reading of the process counters a timed phase is charged by.
type usage struct {
	wall       time.Time
	cpuNs      int64  // user + system CPU of the whole process
	totalAlloc uint64 // cumulative heap bytes allocated
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // RUSAGE_SELF on a live process cannot fail
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		wall:       time.Now(),
		cpuNs:      ru.Utime.Nano() + ru.Stime.Nano(),
		totalAlloc: ms.TotalAlloc,
	}
}

// phaseCost is what a timed phase consumed, between two usage readings.
type phaseCost struct {
	seconds    float64
	cpuNs      int64
	allocBytes uint64
}

func costBetween(a, b usage) phaseCost {
	return phaseCost{
		seconds:    b.wall.Sub(a.wall).Seconds(),
		cpuNs:      b.cpuNs - a.cpuNs,
		allocBytes: b.totalAlloc - a.totalAlloc,
	}
}

// cpuMsPerOp and allocKBPerOp charge a phase's CPU time and allocation to
// the ops it completed.
func (c phaseCost) cpuMsPerOp(ops int) float64 { return ratio(float64(c.cpuNs)/1e6, float64(ops)) }
func (c phaseCost) allocKBPerOp(ops int) float64 {
	return ratio(float64(c.allocBytes)/1e3, float64(ops))
}

// liveHeapMB forces a collection and reports the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// tally counts attempted ops and the ones the program did not carry out. For
// the service an op is one POST, failed when the answer is not 202. For a
// sweep an op is one trial, failed when decoding returns an error.
type tally struct{ attempted, failed int }

// refSink keeps the host reference loop's result alive.
var refSink uint64

// hostRefMs times a fixed, cache-resident CPU loop. Its drift between runs
// of one binary is host drift, not a program change.
func hostRefMs() float64 {
	var buf [512]uint64 // 4 KiB: stays in L1
	x := uint64(88172645463325252)
	start := time.Now()
	for i := 0; i < 30_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[x&511] += x
	}
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	refSink += buf[x&511]
	return ms
}

// check is one output-correctness check of a run.
type check struct {
	name   string
	ok     bool
	detail string
}

// outcome is everything one workload run produced.
type outcome struct {
	tally   tally
	metrics map[string]float64
	report  []string // human-readable lines printed before the result
	checks  []check
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]float64)} }

func (o *outcome) set(name string, v float64) { o.metrics[name] = v }

func (o *outcome) printf(format string, args ...any) {
	o.report = append(o.report, fmt.Sprintf(format, args...))
}

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.checks = append(o.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

func (o *outcome) correct() bool {
	for _, c := range o.checks {
		if !c.ok {
			return false
		}
	}
	return true
}

// resultMetric and result are the JSON shapes of the final output line.
type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

// buildResult selects the declared metrics from an outcome. An end-to-end
// metric the workload did not set is a bug and an error; a per-layer metric
// it did not set is a layer it does not exercise and reads 0.
func buildResult(o *outcome, defs []metricDef, required bool) (result, error) {
	r := result{
		Correct:   o.correct(),
		Attempted: o.tally.attempted,
		Failed:    o.tally.failed,
		Metrics:   make(map[string]resultMetric, len(defs)),
	}
	for _, d := range defs {
		if !validName(d.name) || !validUnit(d.unit) {
			return r, fmt.Errorf("metric %q with unit %q breaks the naming rule", d.name, d.unit)
		}
		v, ok := o.metrics[d.name]
		if !ok && required {
			return r, fmt.Errorf("workload did not measure %s", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return r, fmt.Errorf("metric %s is %v", d.name, v)
		}
		r.Metrics[d.name] = resultMetric{Value: v, Unit: d.unit}
	}
	if r.Attempted < 1 {
		return r, fmt.Errorf("workload attempted no ops")
	}
	return r, nil
}
