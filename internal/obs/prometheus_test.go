package obs

import (
	"math"
	"strings"
	"testing"

	"surfnet/internal/telemetry"
)

func TestWritePrometheusRendersAllInstrumentKinds(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("sim.trials").Add(42)
	reg.Counter("core.timeouts").Inc()
	reg.Gauge("net.active-links").Set(3.5)
	// One sub-bucket per octave: bucket upper bounds 0.002, 0.004, 0.008,
	// 0.016, then the overflow bucket.
	h := reg.HDR("decoder.surfnet.decode_seconds", telemetry.HDRSpec{Min: 0.001, SubBuckets: 1, Octaves: 4})
	h.Observe(0.0005) // below Min: bucket 0
	h.Observe(0.005)
	h.Observe(99) // overflow bucket

	var b strings.Builder
	if err := WritePrometheus(&b, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	want := []string{
		"# TYPE surfnet_core_timeouts_total counter\n" +
			"surfnet_core_timeouts_total 1\n",
		"surfnet_sim_trials_total 42\n",
		"# TYPE surfnet_net_active_links gauge\n" +
			"surfnet_net_active_links 3.5\n",
		"# TYPE surfnet_decoder_surfnet_decode_seconds histogram\n",
		`surfnet_decoder_surfnet_decode_seconds_bucket{le="0.002"} 1` + "\n",
		// Cumulative: the 0.008 bucket includes the 0.002 bucket's
		// observation, and the empty 0.004 bucket is elided.
		`surfnet_decoder_surfnet_decode_seconds_bucket{le="0.008"} 2` + "\n",
		`surfnet_decoder_surfnet_decode_seconds_bucket{le="+Inf"} 3` + "\n",
		"surfnet_decoder_surfnet_decode_seconds_count 3\n",
	}
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Errorf("exposition missing %q\ngot:\n%s", w, out)
		}
	}
	if strings.Contains(out, `le="0.004"`) {
		t.Errorf("empty bucket not elided:\n%s", out)
	}
	if strings.Contains(out, "-") || strings.Contains(out, ".decode") {
		t.Errorf("unsanitized metric name in exposition:\n%s", out)
	}
}

// TestWritePrometheusLeIsInclusive pins that a bucket's le bound counts the
// observations equal to it, as Prometheus reads le: with CountSpec, 8 and 9
// are each the top of a bucket, so le="8" holds one and le="9" both.
func TestWritePrometheusLeIsInclusive(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.HDR("service.queue_depth", telemetry.CountSpec)
	h.Observe(8)
	h.Observe(9)
	var b strings.Builder
	if err := WritePrometheus(&b, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, w := range []string{
		`surfnet_service_queue_depth_bucket{le="8"} 1` + "\n",
		`surfnet_service_queue_depth_bucket{le="9"} 2` + "\n",
	} {
		if !strings.Contains(out, w) {
			t.Errorf("exposition missing %q\ngot:\n%s", w, out)
		}
	}
}

func TestWritePrometheusEveryInstrumentAppears(t *testing.T) {
	reg := telemetry.NewRegistry()
	names := []string{"a.one", "b.two", "c.three", "d.four"}
	for _, n := range names {
		reg.Counter(n).Inc()
	}
	reg.Gauge("g.one").Set(1)
	reg.HDR("h.one", telemetry.CountSpec).Observe(0.5)

	var b strings.Builder
	if err := WritePrometheus(&b, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, n := range names {
		if !strings.Contains(out, promName(n)+"_total ") {
			t.Errorf("counter %q missing from exposition", n)
		}
	}
	for _, pn := range []string{"surfnet_g_one ", "surfnet_h_one_count "} {
		if !strings.Contains(out, pn) {
			t.Errorf("%q missing from exposition", pn)
		}
	}
}

func TestWritePrometheusDeterministicOrder(t *testing.T) {
	reg := telemetry.NewRegistry()
	for _, n := range []string{"z.last", "a.first", "m.mid"} {
		reg.Counter(n).Inc()
	}
	var first, second strings.Builder
	if err := WritePrometheus(&first, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := WritePrometheus(&second, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Fatal("successive scrapes of an idle registry differ")
	}
	a := strings.Index(first.String(), "surfnet_a_first_total")
	z := strings.Index(first.String(), "surfnet_z_last_total")
	if a == -1 || z == -1 || a > z {
		t.Fatalf("counters not sorted by name:\n%s", first.String())
	}
}

func TestPromFloatSpecials(t *testing.T) {
	cases := map[float64]string{
		math.Inf(1):  "+Inf",
		math.Inf(-1): "-Inf",
		0.25:         "0.25",
	}
	for in, want := range cases {
		if got := promFloat(in); got != want {
			t.Errorf("promFloat(%v) = %q, want %q", in, got, want)
		}
	}
	if got := promFloat(math.NaN()); got != "NaN" {
		t.Errorf("promFloat(NaN) = %q", got)
	}
}
