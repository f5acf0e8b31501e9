// Package obs is the live observability plane: an embedded HTTP server
// exposing the telemetry registry in Prometheus text exposition format
// (/metrics), process health and readiness (/healthz, /readyz), runtime
// profiling (/debug/pprof/), and live sweep progress (/status), plus the
// progress Tracker the experiment harness feeds.
//
// The package only reads telemetry state; it never perturbs results. All
// entry points are nil-safe in the same spirit as internal/telemetry: a nil
// *Tracker or nil *Cell no-ops, so uninstrumented runs pay one branch.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"surfnet/internal/telemetry"
)

// MetricPrefix namespaces every exported metric, per the Prometheus naming
// convention of one prefix per application.
const MetricPrefix = "surfnet_"

// promName maps a dot-namespaced telemetry instrument name onto a legal
// Prometheus metric name: the application prefix plus the sanitized name.
func promName(name string) string {
	return MetricPrefix + telemetry.SanitizeName(name)
}

// promFloat renders a float64 the way the exposition format expects,
// including the special values +Inf, -Inf, and NaN.
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders a telemetry snapshot in the Prometheus text
// exposition format (version 0.0.4): counters with the _total suffix, gauges
// verbatim, and histograms as cumulative _bucket series with _sum and _count.
// Output is sorted by instrument name, so successive scrapes of an idle
// registry are byte-identical.
func WritePrometheus(w io.Writer, s telemetry.Snapshot) error {
	var b strings.Builder
	for _, name := range sortedKeys(s.Counters) {
		pn := promName(name) + "_total"
		fmt.Fprintf(&b, "# TYPE %s counter\n", pn)
		fmt.Fprintf(&b, "%s %d\n", pn, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		pn := promName(name)
		fmt.Fprintf(&b, "# TYPE %s gauge\n", pn)
		fmt.Fprintf(&b, "%s %s\n", pn, promFloat(s.Gauges[name]))
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		pn := promName(name)
		fmt.Fprintf(&b, "# TYPE %s histogram\n", pn)
		// Telemetry buckets are per-interval counts; Prometheus buckets are
		// cumulative, so accumulate the running sum.
		cum := int64(0)
		for _, bk := range h.Buckets {
			cum += bk.Count
			fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", pn, promFloat(bk.Le), cum)
		}
		fmt.Fprintf(&b, "%s_sum %s\n", pn, promFloat(h.Sum))
		fmt.Fprintf(&b, "%s_count %d\n", pn, h.Count)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
