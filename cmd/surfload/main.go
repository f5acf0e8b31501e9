// Command surfload drives a running surfnetd with open-loop Poisson arrivals
// and records service-level latency into a benchjson-schema report (-out).
// The daemon, chaos and flight smoke scripts assert on that report; the
// service's benchmarked latency is surfbench's epoch workload.
//
// Open-loop means arrivals do not wait for completions: interarrival gaps are
// drawn exponentially from -rate and each transfer is submitted on its own
// goroutine at its scheduled instant, then polled to a terminal state. By
// default shed responses (429) and drain refusals (503) are counted, not
// retried — the daemon's admission control is part of what is being measured.
// With -retry, a 429 is resubmitted honoring the daemon's Retry-After hint
// under capped exponential backoff with deterministic jitter, up to
// -retry-max attempts; retries are reported separately from sheds. Drain
// refusals (503) are never retried — the daemon is going away.
//
// The request mix (src/dst user pairs, message counts, tenants) derives
// deterministically from -seed; wall-clock latency is whatever the run
// observes. Transfers can carry the daemon's robustness contract through
// -deadline (TTL) and -retry-budget (server-side re-queues under faults).
//
// Usage:
//
//	surfload -addr 127.0.0.1:8080 [-rate 200] [-requests 1000] [-messages 2]
//	         [-tenants 2] [-seed 1] [-poll 5ms] [-timeout 120s]
//	         [-retry] [-retry-max 5] [-retry-cap 2s]
//	         [-deadline D] [-retry-budget N] [-sample-traces N]
//	         [-out report.json]
//
// With -sample-traces N the driver pulls GET /v1/transfers/{id}/trace for the
// N slowest completions after the run and folds their per-segment latency
// attribution (queue_wait, plan, execute, retry_backoff, fault_stall) into
// the report's extras — the incident-debugging view.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"surfnet/internal/rng"
)

func main() {
	os.Exit(run())
}

// transferRequest mirrors the daemon's POST /v1/transfers body.
type transferRequest struct {
	Tenant      string `json:"tenant,omitempty"`
	Src         int    `json:"src"`
	Dst         int    `json:"dst"`
	Messages    int    `json:"messages"`
	DeadlineMs  int64  `json:"deadline_ms,omitempty"`
	RetryBudget int    `json:"retry_budget,omitempty"`
}

// transferStatus mirrors the daemon's transfer resource.
type transferStatus struct {
	ID                 string  `json:"id"`
	State              string  `json:"state"`
	FailureClass       string  `json:"failure_class"`
	AcceptedCodes      int     `json:"accepted_codes"`
	SuccessCodes       int     `json:"success_codes"`
	WallLatencySeconds float64 `json:"wall_latency_seconds"`
}

// networkInfo mirrors GET /v1/network, reduced to what the driver needs.
type networkInfo struct {
	Nodes []struct {
		ID   int    `json:"id"`
		Role string `json:"role"`
	} `json:"nodes"`
}

// benchmark and report mirror cmd/benchjson's schema, so the report reads
// with the same tools as the micro-benchmark ledger.
type benchmark struct {
	Name       string             `json:"name"`
	Procs      int                `json:"procs"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Extra      map[string]float64 `json:"extra,omitempty"`
}

type report struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	Benchmarks []benchmark `json:"benchmarks"`
}

// result is one transfer's fate as the client saw it.
type result struct {
	id        string  // daemon-assigned transfer ID (empty if never admitted)
	state     string  // completed | failed | shed | refused | error | timeout
	failClass string  // daemon failure class when state is failed
	retries   int     // client-side 429 resubmissions consumed
	accepted  int     // surface codes the epoch plan admitted for the transfer
	success   int     // codes that decoded successfully end to end
	wallNs    float64 // daemon-reported admission-to-completion latency
	clientNs  float64 // submit-to-terminal as observed over HTTP
}

// flightTrace mirrors GET /v1/transfers/{id}/trace, reduced to the
// attribution the driver aggregates.
type flightTrace struct {
	ID       string `json:"id"`
	Segments []struct {
		Class  string `json:"class"`
		WallNs int64  `json:"wall_ns"`
	} `json:"segments"`
	TotalWallNs int64 `json:"total_wall_ns"`
}

// sampleSlowTraces pulls flight traces for the n slowest completed transfers
// and aggregates their per-segment wall time. It returns the summed ns per
// segment class and how many traces were actually fetched (the daemon may
// run with flight recording disabled — sampling then degrades to zero).
func sampleSlowTraces(client *http.Client, base string, results []result, n int) (map[string]float64, int) {
	completed := make([]result, 0, len(results))
	for _, r := range results {
		if r.state == "completed" && r.id != "" {
			completed = append(completed, r)
		}
	}
	sort.Slice(completed, func(i, j int) bool { return completed[i].wallNs > completed[j].wallNs })
	if n > len(completed) {
		n = len(completed)
	}
	segNs := map[string]float64{}
	fetched := 0
	for _, r := range completed[:n] {
		resp, err := client.Get(base + "/v1/transfers/" + r.id + "/trace")
		if err != nil {
			continue
		}
		var tr flightTrace
		decErr := json.NewDecoder(resp.Body).Decode(&tr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || decErr != nil {
			continue
		}
		for _, seg := range tr.Segments {
			segNs[seg.Class] += float64(seg.WallNs)
		}
		fetched++
	}
	return segNs, fetched
}

// retryPolicy is the client-side 429 retry contract: up to max resubmissions,
// each delayed by the server's Retry-After hint scaled 2x per attempt, capped
// at cap, with deterministic jitter drawn from the transfer's own stream.
type retryPolicy struct {
	enabled bool
	max     int
	cap     time.Duration
}

// backoff computes the attempt-th retry delay from the server's Retry-After
// header (seconds; missing or invalid falls back to 1s).
func (rp retryPolicy) backoff(retryAfter string, attempt int, src *rng.Source) time.Duration {
	secs, err := strconv.Atoi(strings.TrimSpace(retryAfter))
	if err != nil || secs < 1 {
		secs = 1
	}
	d := time.Duration(secs) * time.Second << attempt
	if d > rp.cap || d <= 0 {
		d = rp.cap
	}
	// Jitter in [0.5, 1.0): desynchronizes colliding clients while keeping
	// the delay sequence deterministic for a fixed seed.
	return time.Duration(float64(d) * (0.5 + 0.5*src.Float64()))
}

// quantile reads the q-th quantile from ascending xs (nearest-rank).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// userNodes fetches the daemon's network snapshot and returns its user-role
// node IDs — the only valid transfer endpoints.
func userNodes(client *http.Client, base string) ([]int, error) {
	resp, err := client.Get(base + "/v1/network")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/network: status %d", resp.StatusCode)
	}
	var info networkInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return nil, err
	}
	var users []int
	for _, n := range info.Nodes {
		if n.Role == "user" {
			users = append(users, n.ID)
		}
	}
	if len(users) < 2 {
		return nil, fmt.Errorf("network has %d user nodes, need at least 2", len(users))
	}
	return users, nil
}

// drive submits one transfer — resubmitting shed attempts per the retry
// policy — and polls it to a terminal state.
func drive(client *http.Client, base string, req transferRequest, poll, timeout time.Duration, rp retryPolicy, src *rng.Source) result {
	body, _ := json.Marshal(req)
	start := time.Now()
	var st transferStatus
	retries := 0
	for {
		resp, err := client.Post(base+"/v1/transfers", "application/json", bytes.NewReader(body))
		if err != nil {
			return result{state: "error", retries: retries}
		}
		st = transferStatus{}
		decErr := json.NewDecoder(resp.Body).Decode(&st)
		retryAfter := resp.Header.Get("Retry-After")
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
		case http.StatusTooManyRequests:
			if !rp.enabled || retries >= rp.max {
				return result{state: "shed", retries: retries}
			}
			time.Sleep(rp.backoff(retryAfter, retries, src))
			retries++
			continue
		case http.StatusServiceUnavailable:
			return result{state: "refused", retries: retries}
		default:
			return result{state: "error", retries: retries}
		}
		if decErr != nil || st.ID == "" {
			return result{state: "error", retries: retries}
		}
		break
	}
	deadline := start.Add(timeout)
	for {
		resp, err := client.Get(base + "/v1/transfers/" + st.ID)
		if err != nil {
			return result{state: "error", retries: retries}
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return result{state: "error", retries: retries}
		}
		if st.State == "completed" || st.State == "failed" {
			return result{
				id:        st.ID,
				state:     st.State,
				failClass: st.FailureClass,
				retries:   retries,
				accepted:  st.AcceptedCodes,
				success:   st.SuccessCodes,
				wallNs:    st.WallLatencySeconds * 1e9,
				clientNs:  float64(time.Since(start).Nanoseconds()),
			}
		}
		if time.Now().After(deadline) {
			return result{state: "timeout", retries: retries}
		}
		time.Sleep(poll)
	}
}

func run() int {
	addr := flag.String("addr", "", "surfnetd address (host:port or http://host:port); required")
	rate := flag.Float64("rate", 200, "mean arrival rate in transfers/second (open-loop Poisson)")
	requests := flag.Int("requests", 1000, "total transfers to submit")
	maxMsgs := flag.Int("messages", 2, "maximum surface codes per transfer")
	tenants := flag.Int("tenants", 2, "tenant names to spread transfers across")
	seed := flag.Uint64("seed", 1, "request-mix seed (pairs, message counts, interarrival gaps)")
	poll := flag.Duration("poll", 5*time.Millisecond, "status poll interval")
	timeout := flag.Duration("timeout", 120*time.Second, "per-transfer completion timeout")
	retry := flag.Bool("retry", false, "resubmit shed (429) transfers honoring Retry-After with capped exponential backoff")
	retryMax := flag.Int("retry-max", 5, "max client resubmissions per transfer in -retry mode")
	retryCap := flag.Duration("retry-cap", 2*time.Second, "client retry backoff ceiling in -retry mode")
	deadlineMs := flag.Duration("deadline", 0, "per-transfer server-side TTL (0: none)")
	retryBudget := flag.Int("retry-budget", 0, "per-transfer server-side re-queue budget under faults")
	traceN := flag.Int("sample-traces", 0, "pull flight traces for the N slowest completions and emit segment-attribution extras")
	out := flag.String("out", "", "write a benchjson-schema latency report to this file")
	flag.Parse()
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, nil)))

	if *addr == "" {
		fmt.Fprintln(os.Stderr, "surfload: -addr is required")
		return 2
	}
	base := *addr
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		base = "http://" + base
	}
	base = strings.TrimSuffix(base, "/")
	if *rate <= 0 || *requests <= 0 || *maxMsgs <= 0 || *tenants <= 0 {
		fmt.Fprintln(os.Stderr, "surfload: -rate, -requests, -messages, and -tenants must be positive")
		return 2
	}

	// Many transfers poll concurrently; without a deep idle pool the default
	// transport (2 idle conns/host) would churn TCP setups and pollute the
	// client-side latency numbers.
	client := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 256,
		},
	}
	users, err := userNodes(client, base)
	if err != nil {
		slog.Error("surfload: reading network snapshot", "err", err)
		return 1
	}

	// Pre-draw the whole deterministic arrival plan, then fire it open-loop.
	src := rng.New(*seed)
	type arrival struct {
		at  time.Duration
		req transferRequest
	}
	plan := make([]arrival, *requests)
	var at time.Duration
	for i := range plan {
		gap := -math.Log(1-src.Float64()) / *rate
		at += time.Duration(gap * float64(time.Second))
		ai := src.IntN(len(users))
		bi := src.IntN(len(users) - 1)
		if bi >= ai { // draw b from the users minus a, keeping both uniform
			bi++
		}
		a, b := users[ai], users[bi]
		plan[i] = arrival{at: at, req: transferRequest{
			Tenant:      fmt.Sprintf("tenant-%d", src.IntN(*tenants)),
			Src:         a,
			Dst:         b,
			Messages:    1 + src.IntN(*maxMsgs),
			DeadlineMs:  deadlineMs.Milliseconds(),
			RetryBudget: *retryBudget,
		}}
	}
	rp := retryPolicy{enabled: *retry, max: *retryMax, cap: *retryCap}

	slog.Info("surfload: starting run", "addr", base, "rate", *rate,
		"requests", *requests, "users", len(users))
	results := make([]result, len(plan))
	var wg sync.WaitGroup
	begin := time.Now()
	for i, a := range plan {
		if d := a.at - time.Since(begin); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, req transferRequest) {
			defer wg.Done()
			results[i] = drive(client, base, req, *poll, *timeout, rp, src.SplitN("retry", i))
		}(i, a.req)
	}
	wg.Wait()
	elapsed := time.Since(begin)

	counts := map[string]int64{}
	classes := map[string]int64{}
	var totalRetries, codesAccepted, codesSuccess int64
	var wall, clientNs []float64
	for _, r := range results {
		counts[r.state]++
		totalRetries += int64(r.retries)
		codesAccepted += int64(r.accepted)
		codesSuccess += int64(r.success)
		if r.state == "failed" && r.failClass != "" {
			classes[r.failClass]++
		}
		if r.state == "completed" {
			wall = append(wall, r.wallNs)
			clientNs = append(clientNs, r.clientNs)
		}
	}
	// The paper's communication fidelity at the service level: the fraction
	// of plan-admitted surface codes that decoded successfully, over every
	// executed transfer (completed and failed alike).
	fidelity := 0.0
	if codesAccepted > 0 {
		fidelity = float64(codesSuccess) / float64(codesAccepted)
	}
	sort.Float64s(wall)
	sort.Float64s(clientNs)
	slog.Info("surfload: run finished", "elapsed", elapsed.Round(time.Millisecond),
		"completed", counts["completed"], "failed", counts["failed"],
		"shed", counts["shed"], "refused", counts["refused"],
		"timeout", counts["timeout"], "error", counts["error"],
		"retries", totalRetries)
	if counts["error"] > 0 || counts["timeout"] > 0 {
		slog.Error("surfload: transfers errored or timed out — daemon dropped load")
		return 1
	}
	if len(wall) == 0 {
		slog.Error("surfload: no transfer completed")
		return 1
	}

	mean := 0.0
	for _, v := range wall {
		mean += v
	}
	mean /= float64(len(wall))
	rep := report{
		Goos:   runtime.GOOS,
		Goarch: runtime.GOARCH,
		Benchmarks: []benchmark{{
			// Admission-to-completion wall latency as measured by the daemon
			// itself; the client-observed round trip rides along as extras.
			Name:       "ServiceTransferWall",
			Procs:      runtime.GOMAXPROCS(0),
			Iterations: counts["completed"],
			NsPerOp:    mean,
			Extra: map[string]float64{
				"p50-ns/op":        quantile(wall, 0.50),
				"p90-ns/op":        quantile(wall, 0.90),
				"p99-ns/op":        quantile(wall, 0.99),
				"client-p50-ns/op": quantile(clientNs, 0.50),
				"client-p99-ns/op": quantile(clientNs, 0.99),
				"shed/op":          float64(counts["shed"]),
				"failed/op":        float64(counts["failed"]),
				"retries/op":       float64(totalRetries),
				"fidelity/op":      fidelity,
			},
		}},
	}
	for class, c := range classes {
		rep.Benchmarks[0].Extra["failed-"+class+"/op"] = float64(c)
	}
	if *traceN > 0 {
		// Segment attribution over the slowest completions: where their
		// admission-to-completion time actually went, per the daemon's own
		// flight recorder. Extras are mean ns per sampled transfer.
		segNs, fetched := sampleSlowTraces(client, base, results, *traceN)
		rep.Benchmarks[0].Extra["traces-sampled/op"] = float64(fetched)
		if fetched > 0 {
			var parts []string
			classes := make([]string, 0, len(segNs))
			for class := range segNs {
				classes = append(classes, class)
			}
			sort.Strings(classes)
			for _, class := range classes {
				mean := segNs[class] / float64(fetched)
				rep.Benchmarks[0].Extra["seg-"+class+"-ns/op"] = mean
				parts = append(parts, fmt.Sprintf("%s %.3fms", class, mean/1e6))
			}
			fmt.Printf("slowest-%d attribution  %s\n", fetched, strings.Join(parts, "  "))
		} else {
			slog.Warn("surfload: -sample-traces requested but no traces fetched (flight recording disabled?)")
		}
	}
	fmt.Printf("transfers %d completed %d shed %d failed %d retries %d fidelity %.3f\n",
		len(plan), counts["completed"], counts["shed"], counts["failed"], totalRetries, fidelity)
	fmt.Printf("wall  p50 %.3fms  p90 %.3fms  p99 %.3fms  mean %.3fms\n",
		quantile(wall, 0.50)/1e6, quantile(wall, 0.90)/1e6, quantile(wall, 0.99)/1e6, mean/1e6)
	fmt.Printf("client p50 %.3fms  p99 %.3fms\n",
		quantile(clientNs, 0.50)/1e6, quantile(clientNs, 0.99)/1e6)

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			slog.Error("surfload: creating output", "err", err)
			return 1
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			f.Close()
			slog.Error("surfload: writing output", "err", err)
			return 1
		}
		if err := f.Close(); err != nil {
			slog.Error("surfload: closing output", "err", err)
			return 1
		}
		slog.Info("surfload: wrote report", "out", *out)
	}
	return 0
}
