package main

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"time"

	"surfnet/internal/batch"
	"surfnet/internal/decoder"
	"surfnet/internal/experiments"
	"surfnet/internal/quantum"
	"surfnet/internal/rng"
	"surfnet/internal/surfacecode"
)

// sweepSpec fixes one Fig 8 sweep workload. One pass is experiments.Fig8
// over every cell with the same trial count per cell, once per erasure rate.
type sweepSpec struct {
	batch     bool
	decoders  []decoder.Decoder
	distances []int
	paulis    []float64
	erasures  []float64
	trials    int // per cell per pass
}

var (
	thresholdSpec = sweepSpec{
		decoders:  []decoder.Decoder{decoder.UnionFind{}, decoder.SurfNet{}},
		distances: distances,
		paulis:    []float64{0.06, 0.07, 0.08},
		erasures:  []float64{0.15},
		trials:    64,
	}
	erasureSpec = sweepSpec{
		batch:     true,
		decoders:  []decoder.Decoder{decoder.SurfNet{}},
		distances: distances,
		paulis:    []float64{0},
		erasures:  []float64{0.40, 0.45},
		trials:    1024,
	}
)

// cell is one (decoder, distance, Pauli rate, erasure rate) point.
type cell struct {
	dec     decoder.Decoder
	d       int
	pauli   float64
	erasure float64
}

// cells lists the cells in the order a pass's Fig8 points come back.
func (s sweepSpec) cells() []cell {
	var out []cell
	for _, e := range s.erasures {
		for _, dec := range s.decoders {
			for _, d := range s.distances {
				for _, p := range s.paulis {
					out = append(out, cell{dec: dec, d: d, pauli: p, erasure: e})
				}
			}
		}
	}
	return out
}

// fig8 runs experiments.Fig8 on every cell, or on one cell when only is set.
// Fig8 seeds each cell's stream from (seed, decoder, distance, Pauli rate), so
// a one-cell call draws exactly the trials of that cell in a full pass. ctx
// may be nil.
func (s sweepSpec) fig8(seed uint64, trials int, only *cell, ctx context.Context) ([]experiments.Fig8Point, error) {
	cfg := experiments.DefaultFig8Config()
	cfg.Seed, cfg.Trials, cfg.Workers, cfg.Batch = seed, trials, 1, s.batch
	cfg.Context = ctx
	cfg.Decoders, cfg.Distances, cfg.PauliRates = s.decoders, s.distances, s.paulis
	erasures := s.erasures
	if only != nil {
		cfg.Decoders, cfg.Distances, cfg.PauliRates = []decoder.Decoder{only.dec}, []int{only.d}, []float64{only.pauli}
		erasures = []float64{only.erasure}
	}
	var pts []experiments.Fig8Point
	for _, e := range erasures {
		cfg.ErasureRate = e
		p, err := experiments.Fig8(cfg)
		if err != nil {
			return nil, err
		}
		pts = append(pts, p...)
	}
	return pts, nil
}

// setUp builds what a pass builds before its first trial, in Fig8's order:
// one code per decoder and distance, and per cell its noise model and, on
// the packed path, its engine. The results are dropped, because Fig8 builds
// its own on every call.
func (s sweepSpec) setUp() error {
	for _, dec := range s.decoders {
		for _, d := range s.distances {
			code, err := surfacecode.New(d, surfacecode.CoreLShape)
			if err != nil {
				return err
			}
			for _, e := range s.erasures {
				for _, p := range s.paulis {
					nm := surfacecode.UniformNoise(code, p, e)
					if !s.batch {
						nm.EdgeErrorProb()
						continue
					}
					if _, err := batch.NewEngine(code, nm, dec); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// heapProbe is the context Fig8 receives when the benchmark reads a cell's
// working set. With one worker, Fig8's trial loop consults it before every
// trial or batch; at call number at it forces a collection and records the
// live heap, so the reading falls at the same trial whatever the speed.
type heapProbe struct {
	context.Context
	calls, at int
	mb        float64
}

func (p *heapProbe) Err() error {
	p.calls++
	if p.calls == p.at {
		p.mb = liveHeapMB()
	}
	return p.Context.Err()
}

// cellHeapMB runs a pass's last cell, its largest code at its highest rate,
// through Fig8 twice, untimed: once to count the trial loop's context checks,
// and once to read the live heap at the middle one. Fig8 keeps nothing
// between calls, so a reading after a pass would see none of its memory.
func (s sweepSpec) cellHeapMB(seed uint64) (float64, error) {
	cells := s.cells()
	c := cells[len(cells)-1]
	count := &heapProbe{Context: context.Background()}
	if _, err := s.fig8(seed, s.trials, &c, count); err != nil {
		return 0, err
	}
	probe := &heapProbe{Context: context.Background(), at: max(count.calls/2, 1)}
	if _, err := s.fig8(seed, s.trials, &c, probe); err != nil {
		return 0, err
	}
	if probe.mb == 0 {
		return 0, fmt.Errorf("Fig8 consulted its context %d times; no heap reading taken", count.calls)
	}
	return probe.mb, nil
}

// failures recovers a point's failure count from its rate.
func failures(pt experiments.Fig8Point) int {
	return int(math.Round(pt.LogicalRate * float64(pt.Trials)))
}

// layerAcc collects per-layer samples of replayed trials, keyed by distance.
type layerAcc struct {
	sampleUs, syndromeUs, batchSampleUs, batchRunUs map[int][]float64
	decodeUs                                        map[string][]float64 // by "<decoder>.d<d>"
	weight, weightTrials                            map[int]int
	lanes                                           batch.Stats
	layerS                                          float64 // spans of the work Fig8 does
	trials                                          int
}

func newLayerAcc() *layerAcc {
	return &layerAcc{
		sampleUs: map[int][]float64{}, syndromeUs: map[int][]float64{},
		batchSampleUs: map[int][]float64{}, batchRunUs: map[int][]float64{},
		decodeUs: map[string][]float64{}, weight: map[int]int{}, weightTrials: map[int]int{},
	}
}

// replayer re-runs a cell's trials through each layer's public function on
// the streams Fig8 uses. It reuses one code per distance.
type replayer struct {
	batch bool // replay on the packed engine
	tr    *tracer
	codes map[int]*surfacecode.Code
	acc   *layerAcc
	next  int64 // span id of the next trial or batch
}

func newReplayer(s sweepSpec) (*replayer, error) {
	rp := &replayer{batch: s.batch, codes: make(map[int]*surfacecode.Code, len(s.distances))}
	for _, d := range s.distances {
		c, err := surfacecode.New(d, surfacecode.CoreLShape)
		if err != nil {
			return nil, err
		}
		rp.codes[d] = c
	}
	return rp, nil
}

// replayResult is one replayed cell.
type replayResult struct {
	fails       int
	laneErrors  int // batches whose lane counts do not add up to lanes x graphs
	planeErrors int // batches whose standalone sample differs from the engine's
}

func (rp *replayer) cell(c cell, seed uint64, trials int) (replayResult, error) {
	code := rp.codes[c.d]
	nm := surfacecode.UniformNoise(code, c.pauli, c.erasure)
	root := rng.New(seed).Split(fmt.Sprintf("fig8/%s/%d/%.4f", c.dec.Name(), c.d, c.pauli))
	ch := rp.tr.begin("experiments.cell", -1, rp.next)
	var res replayResult
	var layerS float64
	var err error
	if rp.batch {
		layerS, err = rp.packed(&res, c, code, nm, root, trials, ch)
	} else {
		layerS, err = rp.scalar(&res, c, code, nm, root, trials, ch)
	}
	rp.tr.end(ch)
	if rp.acc != nil {
		rp.acc.layerS += layerS
	}
	return res, err
}

func (rp *replayer) scalar(res *replayResult, c cell, code *surfacecode.Code, nm *surfacecode.NoiseModel, root *rng.Source, trials int, ch int32) (float64, error) {
	sd, ok := c.dec.(decoder.ScratchDecoder)
	if !ok {
		return 0, fmt.Errorf("decoder %s has no scratch path", c.dec.Name())
	}
	probs := nm.EdgeErrorProb()
	scratch := decoder.NewScratch()
	decodeSpan := "decoder." + c.dec.Name() + ".decode"
	key := fmt.Sprintf("%s.d%d", c.dec.Name(), c.d)
	graphs := [2]struct {
		kind  surfacecode.GraphKind
		apply quantum.Pauli
	}{{surfacecode.ZGraph, quantum.X}, {surfacecode.XGraph, quantum.Z}}
	var frame, residual quantum.Frame
	var erased []bool
	var layerS float64
	for i := 0; i < trials; i++ {
		id := rp.next
		rp.next++
		th := rp.tr.begin("experiments.trial", ch, id)
		h := rp.tr.begin("surfacecode.sample", th, id)
		frame, erased = nm.SampleInto(root.SplitN("t", i), frame, erased)
		sampleS := rp.tr.end(h)
		residual = append(residual[:0], frame...)
		var synS, decS float64
		weight := 0
		for _, g := range graphs {
			h = rp.tr.begin("surfacecode.syndrome", th, id)
			syn := code.Syndrome(g.kind, frame)
			synS += rp.tr.end(h)
			weight += len(syn)
			h = rp.tr.begin(decodeSpan, th, id)
			corr, err := sd.DecodeWith(decoder.Input{Graph: code.Graph(g.kind), Syndromes: syn, Erased: erased, ErrorProb: probs}, scratch)
			decS += rp.tr.end(h)
			if err != nil {
				return layerS, fmt.Errorf("replaying d=%d p=%v trial %d: %w", c.d, c.pauli, i, err)
			}
			for _, q := range corr {
				residual.Apply(q, g.apply)
			}
		}
		h = rp.tr.begin("surfacecode.logical", th, id)
		failed := code.HasLogicalError(surfacecode.ZGraph, residual) || code.HasLogicalError(surfacecode.XGraph, residual)
		logicalS := rp.tr.end(h)
		rp.tr.end(th)
		if failed {
			res.fails++
		}
		layerS += sampleS + synS + decS + logicalS
		if a := rp.acc; a != nil {
			a.trials++
			a.sampleUs[c.d] = append(a.sampleUs[c.d], sampleS*1e6)
			a.syndromeUs[c.d] = append(a.syndromeUs[c.d], synS*1e6)
			a.decodeUs[key] = append(a.decodeUs[key], decS*1e6)
			a.weight[c.d] += weight
			a.weightTrials[c.d]++
		}
	}
	return layerS, nil
}

func (rp *replayer) packed(res *replayResult, c cell, code *surfacecode.Code, nm *surfacecode.NoiseModel, root *rng.Source, trials int, ch int32) (float64, error) {
	eng, err := batch.NewEngine(code, nm, c.dec)
	if err != nil {
		return 0, err
	}
	sampler, err := batch.NewSampler(code.NumData(), nm)
	if err != nil {
		return 0, err
	}
	planes := batch.NewPlanes(code.NumData())
	var layerS float64
	for b := 0; b*batch.Lanes < trials; b++ {
		lanes := min(batch.Lanes, trials-b*batch.Lanes)
		id := rp.next
		rp.next++
		h := rp.tr.begin("batch.sample", ch, id)
		sampler.SampleInto(planes, root.SplitN("batch", b))
		sampleS := rp.tr.end(h)
		h = rp.tr.begin("batch.run", ch, id)
		mask, st, err := eng.Run(root.SplitN("batch", b), lanes)
		runS := rp.tr.end(h)
		if err != nil {
			return layerS, fmt.Errorf("replaying d=%d e=%v batch %d: %w", c.d, c.erasure, b, err)
		}
		// Run samples the batch itself; the standalone sample is the
		// benchmark's own check and breakdown, not work Fig8 does.
		layerS += runS
		res.fails += bits.OnesCount64(mask)
		if st.FastLanes+st.FallbackLanes+st.EmptyLanes != 2*lanes {
			res.laneErrors++
		}
		ep := eng.Planes()
		if !slices.Equal(planes.X, ep.X) || !slices.Equal(planes.Z, ep.Z) || !slices.Equal(planes.Erase, ep.Erase) {
			res.planeErrors++
		}
		if a := rp.acc; a != nil {
			a.trials += lanes
			a.batchSampleUs[c.d] = append(a.batchSampleUs[c.d], sampleS*1e6)
			a.batchRunUs[c.d] = append(a.batchRunUs[c.d], runS*1e6)
			a.lanes.Add(st)
		}
	}
	return layerS, nil
}

// passSeed is the sweep seed of pass i of a run.
func passSeed(root *rng.Source, i int) uint64 { return root.SplitN("pass", i).Uint64() }

func runSweep(cfg runConfig, tr *tracer, s sweepSpec) (*outcome, error) {
	o := newOutcome()
	root := rng.New(cfg.seed)
	sweepRoot := root.Split("sweep")
	cells := s.cells()
	// setup_s is the median over one set-up before the warm-up pass and, in
	// an untraced run, one after every timed pass, outside the pass's
	// reading. A set-up takes under a millisecond, so a block of them would
	// time one moment of the host; spread over the run, they see it as the
	// passes do.
	var setups []float64
	setUp := func() error {
		runtime.GC()
		start := time.Now()
		if err := s.setUp(); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		return nil
	}
	if err := setUp(); err != nil {
		return nil, err
	}
	// One untimed warm-up pass fills lazy caches before anything is timed.
	if _, err := s.fig8(root.Split("warmup").Uint64(), s.trials, nil, nil); err != nil {
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	if tr != nil {
		return o, traceSweep(cfg, tr, s, sweepRoot, o)
	}

	// Throughput, CPU and allocation per trial are medians over passes, as
	// the service's are over rounds, so load from outside the process that
	// slows a few passes does not move them.
	var passMs, opsPerS, cpuMs, allocKB []float64
	var first []experiments.Fig8Point
	ops, fails, passS := 0, 0, 0.0
	runtime.GC()
	for start := time.Now(); time.Since(start) < cfg.duration(); {
		u0 := readUsage()
		pts, err := s.fig8(passSeed(sweepRoot, len(passMs)), s.trials, nil, nil)
		if err != nil {
			return nil, err
		}
		c := costBetween(u0, readUsage())
		if first == nil {
			first = pts
		}
		n := 0
		for _, pt := range pts {
			n += pt.Trials
			fails += failures(pt)
		}
		ops += n
		passS += c.seconds
		passMs = append(passMs, c.seconds*1e3)
		opsPerS = append(opsPerS, float64(n)/c.seconds)
		cpuMs = append(cpuMs, c.cpuMsPerOp(n))
		allocKB = append(allocKB, c.allocKBPerOp(n))
		if err := setUp(); err != nil {
			return nil, err
		}
	}
	o.set("setup_s", median(setups))
	heap, err := s.cellHeapMB(passSeed(sweepRoot, 0))
	if err != nil {
		return nil, err
	}

	// Fig8 returns an error instead of a rate when a trial fails to decode,
	// so every counted trial succeeded as an op.
	o.tally = tally{attempted: ops}
	o.set("ops_per_s", median(opsPerS))
	o.set("p50_ms", percentile(passMs, 0.5))
	o.set("p90_ms", percentile(passMs, 0.9))
	o.set("cpu_ms_per_op", median(cpuMs))
	o.set("alloc_kb_per_op", median(allocKB))
	o.set("heap_mb", heap)
	o.set("fidelity", 1-ratio(float64(fails), float64(ops)))
	o.printf("timed phase: %.3f s in passes, %d passes of %d cells x %d trials; ops_per_s, cpu_ms_per_op and alloc_kb_per_op are medians over passes, p50_ms/p90_ms per-pass latencies; heap_mb is read halfway through the last cell; setup_s is the median of %d set-ups",
		passS, len(passMs), len(cells), s.trials, len(setups))
	o.printf("logical_error_rate %.6g ratio (%d of %d trials)", ratio(float64(fails), float64(ops)), fails, ops)
	o.printf("failed_share 0 ratio (no trial returned an error)")

	// Replay the first pass outside the timed phase for the output checks.
	// The replay's codes are built only now, after every heap reading.
	rp, err := newReplayer(s)
	if err != nil {
		return nil, err
	}
	mismatch, errs := 0, replayResult{}
	for ci, c := range cells {
		res, err := rp.cell(c, passSeed(sweepRoot, 0), s.trials)
		if err != nil {
			return nil, err
		}
		if res.fails != failures(first[ci]) {
			mismatch++
		}
		errs.laneErrors += res.laneErrors
		errs.planeErrors += res.planeErrors
	}
	checkReplay(o, s, mismatch, len(cells), errs)
	return o, nil
}

// checkReplay records the replay's output checks.
func checkReplay(o *outcome, s sweepSpec, mismatch, cells int, errs replayResult) {
	o.check("replay_rates", mismatch == 0, "%d of %d replayed cells reproduce Fig8's logical rate exactly", cells-mismatch, cells)
	if s.batch {
		o.check("packed_lanes", errs.laneErrors == 0, "%d batches with fast + fallback + empty != lanes x 2 graphs", errs.laneErrors)
		o.check("packed_sample", errs.planeErrors == 0, "%d batches whose standalone sample differs from the engine's", errs.planeErrors)
	}
}

// traceSweep alternates, cell by cell, an untraced one-cell Fig8 call and
// the traced replay of the same trials, until the run's seconds are spent.
func traceSweep(cfg runConfig, tr *tracer, s sweepSpec, sweepRoot *rng.Source, o *outcome) error {
	rp, err := newReplayer(s)
	if err != nil {
		return err
	}
	rp.tr, rp.acc = tr, newLayerAcc()
	cells := s.cells()
	var fig8S, replayS float64
	fig8Trials, mismatch, cellsRun := 0, 0, 0
	var errs replayResult
	start := time.Now()
	for i := 0; time.Since(start) < cfg.duration(); i++ {
		seed := passSeed(sweepRoot, i)
		for _, c := range cells {
			t0 := time.Now()
			pts, err := s.fig8(seed, s.trials, &c, nil)
			if err != nil {
				return err
			}
			fig8S += time.Since(t0).Seconds()
			fig8Trials += s.trials
			t1 := time.Now()
			res, err := rp.cell(c, seed, s.trials)
			if err != nil {
				return err
			}
			replayS += time.Since(t1).Seconds()
			cellsRun++
			if res.fails != failures(pts[0]) {
				mismatch++
			}
			errs.laneErrors += res.laneErrors
			errs.planeErrors += res.planeErrors
		}
	}
	o.tally = tally{attempted: fig8Trials}
	checkReplay(o, s, mismatch, cellsRun, errs)
	a := rp.acc
	fig8Rate, replayRate := ratio(float64(fig8Trials), fig8S), ratio(float64(a.trials), replayS)
	o.set("trace.overhead_share", 1-ratio(replayRate, fig8Rate))
	o.printf("tracing overhead: %.1f trials/s in untraced Fig8 cells vs %.1f trials/s traced replay", fig8Rate, replayRate)
	// Fig8's own time outside the layers, against the paired untraced
	// calls on the same trials.
	o.set("experiments.self_share", 1-ratio(a.layerS, fig8S))
	o.printf("experiments.self_share: layer spans %.3f s of %.3f s in untraced Fig8 calls on the same trials", a.layerS, fig8S)
	for _, d := range s.distances {
		o.set(fmt.Sprintf("surfacecode.sample_us.d%d", d), median(a.sampleUs[d]))
		o.set(fmt.Sprintf("surfacecode.syndrome_us.d%d", d), median(a.syndromeUs[d]))
		o.set(fmt.Sprintf("decoder.syndrome_weight.d%d", d), ratio(float64(a.weight[d]), float64(a.weightTrials[d])))
		for _, dec := range s.decoders {
			o.set(fmt.Sprintf("decoder.%s.decode_us.d%d", dec.Name(), d), median(a.decodeUs[fmt.Sprintf("%s.d%d", dec.Name(), d)]))
		}
		o.set(fmt.Sprintf("batch.sample_us.d%d", d), median(a.batchSampleUs[d]))
		o.set(fmt.Sprintf("batch.run_us.d%d", d), median(a.batchRunUs[d]))
	}
	if s.batch {
		total := float64(a.lanes.FastLanes + a.lanes.FallbackLanes + a.lanes.EmptyLanes)
		o.set("batch.fast_lane_share", ratio(float64(a.lanes.FastLanes), total))
		o.set("batch.fallback_lane_share", ratio(float64(a.lanes.FallbackLanes), total))
		return nil
	}
	var sampleUs, synUs, decUs []float64
	for _, d := range s.distances {
		sampleUs = append(sampleUs, a.sampleUs[d]...)
		synUs = append(synUs, a.syndromeUs[d]...)
	}
	for _, v := range a.decodeUs {
		decUs = append(decUs, v...)
	}
	layers := mean(sampleUs) + mean(synUs) + mean(decUs)
	perTrial := ratio(fig8S, float64(fig8Trials)) * 1e6
	o.printf("reconcile trial: sample %.2f + syndrome %.2f + decode %.2f = %.2f us per trial; Fig8 wall %.2f us per trial; within %.0f%%: %v",
		mean(sampleUs), mean(synUs), mean(decUs), layers, perTrial, reconcileTolerance*100,
		math.Abs(perTrial-layers) <= reconcileTolerance*perTrial)
	return nil
}
