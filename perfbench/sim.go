package main

import (
	"fmt"
	"runtime"
	"time"

	"mdst/internal/graph"
	"mdst/internal/harness"
	"mdst/internal/mdstseq"
	"mdst/internal/sim"
	"mdst/internal/spanning"
)

// tickSeconds converts protocol rounds to protocol time: one round is
// one node tick, and the tcp workload ticks every 2 ms. Sim upkeep
// rates are per second of protocol time at that tick.
const tickSeconds = 0.002

// upkeepRounds is the length of a sim upkeep window, and upkeepWindows
// the number of windows after each convergence. Idle traffic on a freshly
// preloaded tree ramps up with time, so several short windows measure
// more upkeep per second spent than one long one.
const (
	upkeepRounds  = 64
	upkeepWindows = 3
)

// simEnv is one sim workload's instance: the graph and the Δ*+1 bound,
// both computed once and outside every timed span.
type simEnv struct {
	w     workload
	n     int
	g     *graph.Graph
	p     proto
	bound int
}

func newSimEnv(w workload, smoke bool) (*simEnv, error) {
	n := w.size(smoke)
	g := w.buildGraph(n)
	delta, ok := mdstseq.ExactDelta(g, 0)
	if !ok {
		return nil, fmt.Errorf("exact Δ* oracle gave up on %s", w.name)
	}
	return &simEnv{w: w, n: n, g: g, p: w.proto(n), bound: delta + 1}, nil
}

// setupOnce builds the instance through the public constructors the way
// harness.Run does before its first message: graph, network, corrupted
// initial configuration.
func (e *simEnv) setupOnce() (setupParts, error) {
	t0 := time.Now()
	g := e.w.buildGraph(e.n)
	t1 := time.Now()
	net := sim.NewNetwork(g, e.p.newNode, e.w.instanceSeed)
	t2 := time.Now()
	e.p.corruptAll(processes(net, g.N()), e.w.instanceSeed)
	t3 := time.Now()
	return setupParts{partGraph: t1.Sub(t0), partBuild: t2.Sub(t1), partTotal: t3.Sub(t0)}, nil
}

func processes(net *sim.Network, n int) []sim.Process {
	procs := make([]sim.Process, n)
	for i := range procs {
		procs[i] = net.Process(i)
	}
	return procs
}

// simOp is one untraced convergence through harness.Run.
type simOp struct {
	span span
	res  harness.Result
}

// converge runs the workload once through harness.Run and checks that it
// returned a certified, legitimate tree within Δ*+1.
func (e *simEnv) converge() (simOp, error) {
	runtime.GC()
	m := startMeter()
	res, err := harness.Run(e.w.runSpec(e.g))
	op := simOp{span: m.stop(), res: res}
	switch {
	case err != nil:
		return op, err
	case !res.Converged || res.Cert == nil:
		return op, fmt.Errorf("not converged after %d rounds", res.Rounds)
	case !res.Legit.OK():
		return op, fmt.Errorf("not legitimate: %+v", res.Legit)
	case res.Tree == nil:
		return op, fmt.Errorf("no tree extracted")
	case res.Tree.MaxDegree() > e.bound:
		return op, fmt.Errorf("tree degree %d above Δ*+1 = %d", res.Tree.MaxDegree(), e.bound)
	}
	return op, nil
}

// upkeep idles the converged tree for upkeepRounds: a fresh network
// preloaded with tree runs on the workload's engine, and must still be
// legitimate afterwards. It returns the span and the messages delivered.
func (e *simEnv) upkeep(tree *spanning.Tree) (span, int64, error) {
	net := sim.NewNetwork(e.g, e.p.newNode, e.w.instanceSeed)
	procs := processes(net, e.n)
	if err := e.p.preload(e.g, procs, tree); err != nil {
		return span{}, 0, err
	}
	runtime.GC()
	m := startMeter()
	if e.w.engine == harness.EngineEvent {
		net.RunEvents(sim.EventConfig{Policy: harness.EventPolicyFor(harness.SchedSync), MaxRounds: upkeepRounds})
	} else {
		net.Run(sim.RunConfig{Scheduler: harness.NewScheduler(harness.SchedSync), MaxRounds: upkeepRounds})
	}
	sp := m.stop()
	if err := e.p.check(e.g, procs, e.bound); err != nil {
		return sp, 0, fmt.Errorf("upkeep: %w", err)
	}
	return sp, net.Metrics().Deliveries, nil
}

// tracedSim is one traced convergence.
type tracedSim struct {
	span    span
	metrics *sim.Metrics
	run     sim.RunResult
	times   handlerTimes
	stats   protoStats
}

// traced rebuilds the harness.Run instance through sim.NewNetwork with
// every process wrapped in a timedProc and runs it with the run loop
// configuration harness.Run derives, so it replays the untraced run.
func (e *simEnv) traced() (tracedSim, error) {
	var inner []sim.Process
	var wrapped []*timedProc
	var wrapErr error
	kinds := e.p.reductionKinds()
	factory := func(id sim.NodeID, nbrs []sim.NodeID) sim.Process {
		p := e.p.newNode(id, nbrs)
		t, err := newTimedProc(p, kinds)
		if err != nil {
			wrapErr = err
			return p
		}
		inner = append(inner, p)
		wrapped = append(wrapped, t)
		return t
	}
	n, cfg, seed := e.n, e.p.cfg, e.w.instanceSeed

	runtime.GC()
	m := startMeter()
	net := sim.NewNetwork(e.g, factory, seed)
	if wrapErr != nil {
		return tracedSim{}, wrapErr
	}
	e.p.corruptAll(inner, seed)
	for i, p := range inner {
		p.(mutationHooker).SetMutationHook(wrapped[i].countMutation)
	}
	// The quiescence window harness.Run uses: with backoff the floor is
	// the un-backed-off window and the live deepest tier raises it.
	retry := cfg.EffectiveRetryPeriod()
	var window func() int
	if cfg.BackoffSearches {
		flat := cfg
		flat.BackoffSearches = false
		retry = flat.EffectiveRetryPeriod()
		window = func() int { return harness.QuiesceWindowRounds(n, net.MaxRetryPeriod(retry)) }
	}
	maxRounds := 200*n + 20000
	var res sim.RunResult
	if e.w.engine == harness.EngineEvent {
		res = net.RunEvents(sim.EventConfig{
			Policy:        harness.EventPolicyFor(harness.SchedSync),
			MaxRounds:     maxRounds,
			QuiesceRounds: harness.QuiesceWindowRounds(n, retry),
			QuiesceWindow: window,
			ActiveKinds:   kinds,
		})
	} else {
		res = net.Run(sim.RunConfig{
			Scheduler:     harness.NewScheduler(harness.SchedSync),
			MaxRounds:     maxRounds,
			QuiesceRounds: harness.QuiesceWindowRounds(n, retry),
			QuiesceWindow: window,
			ActiveKinds:   kinds,
		})
	}
	out := tracedSim{span: m.stop(), metrics: net.Metrics(), run: res, times: sumTimes(wrapped), stats: e.p.stats(inner)}
	if !res.Converged {
		return out, fmt.Errorf("traced run did not converge")
	}
	return out, e.p.check(e.g, inner, e.bound)
}

// replays reports how the traced run departs from the untraced one, nil
// when deliveries, rounds and the last-change round all match.
func (t tracedSim) replays(res harness.Result) error {
	if t.metrics.Deliveries != res.Metrics.Deliveries || t.run.Rounds != res.Rounds ||
		t.run.LastChangeRound != res.LastChange {
		return fmt.Errorf("traced run diverged: deliveries %d/%d rounds %d/%d last change %d/%d",
			t.metrics.Deliveries, res.Metrics.Deliveries, t.run.Rounds, res.Rounds,
			t.run.LastChangeRound, res.LastChange)
	}
	return nil
}

// Set-up sampling of the sim workloads: a set-up is well under a
// millisecond, so a batch holds ten.
const (
	simSetupPer    = 10
	simSetupWarm   = 20
	simSetupsPerOp = 8 // batches after warm-up and after every operation
)

func (e *simEnv) setupSampler(t *tally, clock *refClock) *setupSampler {
	s := newSetupSampler(t, clock, simSetupPer, simSetupWarm, e.setupOnce)
	s.batches(simSetupsPerOp)
	return s
}

// measureSim reports the end-to-end metrics of a sim workload: repeated
// convergences through harness.Run, each followed by upkeep windows on
// its tree. Every convergence must reproduce the first one's messages
// and rounds exactly. Times are in reference seconds (see refClock);
// convergence times are the median over the run's operations. Upkeep
// rates are totals over all the run's windows: one window lasts a
// fraction of a second, and samples that short vary by ±15% on a shared
// host.
func measureSim(w workload, opts options, t *tally) (metrics, error) {
	e, err := newSimEnv(w, opts.smoke)
	if err != nil {
		return nil, err
	}
	clock := newRefClock()
	setup := e.setupSampler(t, clock)

	var first *harness.Result
	var wall, cpu, alloc []float64
	var upCPU, upMB float64 // summed over every upkeep window of the run
	var upMsgs int64
	var upSeconds float64 // protocol time idled
	repeat(opts, 2, func() {
		defer setup.batches(simSetupsPerOp)
		op, err := e.converge()
		f := clock.scale()
		if err == nil && first != nil &&
			(op.res.Metrics.Deliveries != first.Metrics.Deliveries || op.res.Rounds != first.Rounds) {
			err = fmt.Errorf("repeat diverged: %d messages in %d rounds, first run %d in %d",
				op.res.Metrics.Deliveries, op.res.Rounds, first.Metrics.Deliveries, first.Rounds)
		}
		if !t.record("convergence", err) {
			return
		}
		if first == nil {
			first = &op.res
		}
		fmt.Fprintf(opts.log, "perfbench: convergence %.3fs wall %.3fs cpu, x%.3f to reference\n",
			op.span.wall.Seconds(), op.span.cpu.Seconds(), f)
		wall = append(wall, op.span.wall.Seconds()*f)
		cpu = append(cpu, op.span.cpu.Seconds()*f)
		alloc = append(alloc, float64(op.span.bytes)/1e6)
		var cpuUp float64
		for i := 0; i < upkeepWindows; i++ {
			sp, msgs, err := e.upkeep(op.res.Tree)
			if !t.record("upkeep", err) {
				continue
			}
			cpuUp += sp.cpu.Seconds()
			upMB += float64(sp.bytes) / 1e6
			upMsgs += msgs
			upSeconds += upkeepRounds * tickSeconds
		}
		upCPU += cpuUp * clock.scale()
	})
	vals := map[string]float64{
		"setup_s":        setup.median(partTotal),
		"converge_s":     median(wall),
		"cpu_s":          median(cpu),
		"alloc_mb":       median(alloc),
		"upkeep_cores":   ratio(upCPU, upSeconds),
		"msgs_per_s":     ratio(float64(upMsgs), upSeconds),
		"alloc_mb_per_s": ratio(upMB, upSeconds),
		"max_rss_mb":     maxRSSMB(),
	}
	if first != nil {
		vals["messages"] = float64(first.Metrics.Deliveries)
		vals["rounds"] = float64(first.Rounds)
	}
	return collect(endToEnd, vals), nil
}

// traceSim reports the per-layer metrics of a sim workload: one untraced
// convergence through harness.Run, then the traced replay of it under
// the CPU profiler, which must match its deliveries, rounds and
// last-change round exactly.
func traceSim(w workload, opts options, t *tally) (metrics, error) {
	e, err := newSimEnv(w, opts.smoke)
	if err != nil {
		return nil, err
	}
	clock := newRefClock()
	setup := e.setupSampler(t, clock)
	op, err := e.converge()
	setup.batches(simSetupsPerOp)
	vals := map[string]float64{"graph.build_s": setup.median(partGraph), "sim.network_s": setup.median(partBuild),
		"host.cal_ms": clock.calMS()}
	if !t.record("convergence", err) {
		return collect(perLayer, vals), nil
	}
	tracePath, profPath := tracePaths(w, opts)
	var tr tracedSim
	err = profile(profPath, func() { tr, err = e.traced() })
	if err == nil {
		err = tr.replays(op.res)
	}
	if !t.record("traced convergence", err) {
		return collect(perLayer, vals), nil
	}

	h, mt, sp := tr.times, tr.metrics, tr.span
	msgs := float64(mt.Deliveries)
	protoMetrics(vals, e.p.layer(), h, tr.stats, sp.wall)
	vals["sim.self_ns_per_msg"] = ratio(float64(sp.wall)-float64(h.busyNS()), msgs)
	vals["sim.allocs_per_msg"] = ratio(float64(sp.allocs), msgs)
	vals["sim.alloc_b_per_msg"] = ratio(float64(sp.bytes), msgs)
	vals["sim.events"] = float64(mt.Events)
	vals["sim.tail_events_share"] = ratio(float64(mt.Events-mt.EventsAtLastChange), float64(mt.Events))
	vals["sim.tail_rounds_share"] = ratio(float64(tr.run.Rounds-tr.run.LastChangeRound), float64(tr.run.Rounds))
	vals["sim.fingerprint_recomputes"] = float64(mt.FingerprintRecomputes)
	vals["sim.max_queue_len"] = float64(mt.MaxQueueLen)
	vals["trace.overhead"] = ratio(float64(sp.wall), float64(op.span.wall))
	m := collect(perLayer, vals)

	tf := traceFile{Workload: w.name, Seed: opts.seed, Metrics: m, Spans: []spanRecord{
		spanAt("harness.Run", "", op.span),
		spanAt("traced.run", "", sp),
	}}
	return m, writeTrace(tracePath, tf, h)
}
