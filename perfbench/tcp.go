package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"mdst/internal/detect"
	"mdst/internal/graph"
	"mdst/internal/harness"
	"mdst/internal/mdstseq"
	"mdst/internal/netrun"
	"mdst/internal/sim"
	"mdst/internal/spanning"
)

// The tcp cluster's tuning: the 2 ms default tick with the best batching
// of BENCH_tcp.json (16 messages per frame, 6 ms maximum hold).
const (
	tcpTick      = 2 * time.Millisecond
	tcpBatch     = 16
	tcpBatchWait = 6 * time.Millisecond
	tcpProbe     = 25 * time.Millisecond
	// tcpCertDeadline bounds the wait for a certificate.
	tcpCertDeadline = 20 * time.Second
)

// tcpEnv is the tcp workload's instance: the graph, its preloaded tree
// and the Δ*+1 bound, all computed once and outside every timed span.
type tcpEnv struct {
	w      workload
	n      int
	g      *graph.Graph
	p      proto
	tree   *spanning.Tree
	bound  int
	stable int           // detector window in probe samples
	steady time.Duration // length of the measured steady window
	log    io.Writer
}

func newTCPEnv(w workload, opts options) (*tcpEnv, error) {
	smoke := opts.smoke
	n := w.size(smoke)
	g := w.buildGraph(n)
	delta, ok := mdstseq.ExactDelta(g, 0)
	if !ok {
		return nil, fmt.Errorf("exact Δ* oracle gave up on %s", w.name)
	}
	tree, err := harness.PreloadTree(g)
	if err != nil {
		return nil, err
	}
	p := w.proto(n)
	// The stability window harness.Run derives on tcp: a full
	// quiescence window of rounds, each a tick plus a batch hold.
	window := time.Duration(harness.QuiesceWindowRounds(n, p.cfg.EffectiveRetryPeriod())) * (tcpTick + tcpBatchWait)
	steady := 2 * time.Second
	if smoke {
		steady = 200 * time.Millisecond
	}
	return &tcpEnv{w: w, n: n, g: g, p: p, tree: tree, bound: delta + 1,
		stable: int(window/tcpProbe) + 1, steady: steady, log: opts.log}, nil
}

// cluster is one constructed (not yet started) cluster.
type cluster struct {
	c     *netrun.Cluster
	procs []sim.Process // the protocol nodes, unwrapped
}

// newCluster constructs the cluster through netrun.NewCluster. wrap,
// when non-nil, decorates each process.
func (e *tcpEnv) newCluster(g *graph.Graph, wrap func(sim.Process) sim.Process) cluster {
	var procs []sim.Process
	c := netrun.NewCluster(g, func(id int, nbrs []int) sim.Process {
		p := e.p.newNode(id, nbrs)
		procs = append(procs, p)
		if wrap != nil {
			return wrap(p)
		}
		return p
	}, netrun.Config{
		TickInterval: tcpTick,
		ActiveKinds:  e.p.reductionKinds(),
		BatchSize:    tcpBatch,
		BatchMaxWait: tcpBatchWait,
	})
	return cluster{c: c, procs: procs}
}

// setupOnce builds and starts a cluster from scratch, then stops it
// outside the timed span. It returns the times of graph generation, the
// tree preload (computing the tree and writing it into the nodes),
// Cluster.Start, and the total, which also covers cluster construction.
func (e *tcpEnv) setupOnce() (setupParts, error) {
	var parts setupParts
	t0 := time.Now()
	g := e.w.buildGraph(e.n)
	t1 := time.Now()
	tree, err := harness.PreloadTree(g)
	if err != nil {
		return parts, err
	}
	t2 := time.Now()
	cl := e.newCluster(g, nil)
	t3 := time.Now()
	if err := e.p.preload(g, cl.procs, tree); err != nil {
		return parts, err
	}
	t4 := time.Now()
	if err := cl.c.Start(); err != nil {
		return parts, err
	}
	t5 := time.Now()
	cl.c.Stop()
	return setupParts{partGraph: t1.Sub(t0), partBuild: t2.Sub(t1) + t4.Sub(t3),
		partStart: t5.Sub(t4), partTotal: t5.Sub(t0)}, nil
}

// tcpOp is one certificate-then-steady-window operation.
type tcpOp struct {
	cert     span  // Start returning to the certificate
	certMsgs int64 // messages sent until the certificate
	epochs   uint64
	steady   span
	msgs     int64 // messages sent in the steady window
	whole    span  // Start to Stop
	total    int64 // messages sent from Start to Stop
	frames   int64
	dropped  int64         // messages dropped before Stop
	observe  time.Duration // total time in detect.Observe
	rtt      []float64     // probe round trips, µs
}

// operate starts a built cluster, waits for the control channel's
// certificate, idles it for the steady window and stops it. The cluster
// must be legitimate at Stop with nothing dropped and no restart.
func (e *tcpEnv) operate(cl cluster) (tcpOp, error) {
	var op tcpOp
	c := cl.c
	runtime.GC()
	whole := startMeter()
	if err := c.Start(); err != nil {
		return op, err
	}
	stopped := false
	defer func() {
		if !stopped {
			c.Stop()
		}
	}()
	cert := startMeter()
	probe, err := netrun.DialProbe(c.ControlAddr())
	if err != nil {
		return op, err
	}
	det := detect.New(detect.Config{Window: e.stable, Backend: string(harness.BackendTCP)})
	ticker := time.NewTicker(tcpProbe)
	deadline := time.Now().Add(tcpCertDeadline)
	issued := false
	for !issued && time.Now().Before(deadline) {
		<-ticker.C
		t0 := time.Now()
		s, err := probe.Sample()
		t1 := time.Now()
		if err != nil {
			ticker.Stop()
			probe.Close()
			return op, err
		}
		_, issued = det.Observe(s)
		op.observe += time.Since(t1)
		op.rtt = append(op.rtt, float64(t1.Sub(t0))/1e3)
	}
	ticker.Stop()
	op.certMsgs = c.Sent()
	op.cert = cert.stop()
	op.epochs = det.Epoch()
	probe.Close()
	if !issued {
		return op, fmt.Errorf("no certificate within %v", tcpCertDeadline)
	}

	sent0 := c.Sent()
	steady := startMeter()
	time.Sleep(e.steady)
	op.msgs = c.Sent() - sent0
	op.steady = steady.stop()
	// Losses count while the cluster runs. Stop closes connections under
	// node loops that may still be sending, and netrun counts those sends
	// as drops too; they are logged, not failures.
	op.dropped = c.Dropped()

	c.Stop()
	stopped = true
	op.whole = whole.stop()
	op.total, op.frames = c.Sent(), c.FramesWritten()
	if d := c.Dropped() - op.dropped; d > 0 {
		fmt.Fprintf(e.log, "perfbench: %d messages dropped by Stop's teardown\n", d)
	}
	switch {
	case op.dropped != 0:
		return op, fmt.Errorf("%d messages dropped", op.dropped)
	case c.Restarts() != 0:
		return op, fmt.Errorf("%d restarts", c.Restarts())
	}
	return op, e.p.check(e.g, cl.procs, e.bound)
}

// Set-up sampling of the tcp workload: a set-up starts a whole cluster,
// several milliseconds, so a batch holds two.
const (
	tcpSetupPer    = 2
	tcpSetupWarm   = 3
	tcpSetupsPerOp = 3 // batches after warm-up and after every operation
)

func (e *tcpEnv) setupSampler(t *tally, clock *refClock) *setupSampler {
	s := newSetupSampler(t, clock, tcpSetupPer, tcpSetupWarm, e.setupOnce)
	s.batches(tcpSetupsPerOp)
	return s
}

// prepare constructs and preloads the workload's cluster.
func (e *tcpEnv) prepare(wrap func(sim.Process) sim.Process) (cluster, error) {
	cl := e.newCluster(e.g, wrap)
	return cl, e.p.preload(e.g, cl.procs, e.tree)
}

// measureTCP reports the end-to-end metrics of the tcp workload over
// repeated certificate-then-steady-window operations. The windows are
// paced by the wall clock and the work in them varies both ways, so
// every metric is the median over the run's operations. CPU times are in
// reference seconds (see refClock), with one factor for the whole run:
// calRef over the mean of the calibrations that follow the operations.
// A run holds about ten operations, and each calibration follows a
// cluster's teardown, so per-operation factors scatter. The wall time to
// the certificate is paced by the protocol's ticks, not by the host's
// speed, and stays as measured.
func measureTCP(w workload, opts options, t *tally) (metrics, error) {
	e, err := newTCPEnv(w, opts)
	if err != nil {
		return nil, err
	}
	clock := newRefClock()
	setup := e.setupSampler(t, clock)

	var wall, cpu, msgs, rounds, alloc, cores, rate, allocRate, cals []float64
	repeat(opts, 1, func() {
		defer setup.batches(tcpSetupsPerOp)
		cl, err := e.prepare(nil)
		var op tcpOp
		if err == nil {
			op, err = e.operate(cl)
		}
		clock.scale()
		if !t.record("tcp window", err) {
			return
		}
		cals = append(cals, clock.last)
		sw := op.steady.wall.Seconds()
		fmt.Fprintf(opts.log, "perfbench: certified in %.3fs, steady %.0f msgs/s at %.3f cores, calibration %.1f ms\n",
			op.cert.wall.Seconds(), float64(op.msgs)/sw, op.steady.cpu.Seconds()/sw, clock.last*1e3)
		wall = append(wall, op.cert.wall.Seconds())
		cpu = append(cpu, op.cert.cpu.Seconds())
		msgs = append(msgs, float64(op.certMsgs))
		rounds = append(rounds, float64(op.epochs))
		alloc = append(alloc, float64(op.cert.bytes)/1e6)
		cores = append(cores, op.steady.cpu.Seconds()/sw)
		rate = append(rate, float64(op.msgs)/sw)
		allocRate = append(allocRate, float64(op.steady.bytes)/1e6/sw)
	})
	f := ratio(calRef, mean(cals))
	return collect(endToEnd, map[string]float64{
		"setup_s":        setup.median(partTotal),
		"converge_s":     median(wall),
		"cpu_s":          median(cpu) * f,
		"messages":       median(msgs),
		"rounds":         median(rounds),
		"alloc_mb":       median(alloc),
		"upkeep_cores":   median(cores) * f,
		"msgs_per_s":     median(rate),
		"alloc_mb_per_s": median(allocRate),
		"max_rss_mb":     maxRSSMB(),
	}), nil
}

// traceTCP reports the per-layer metrics of the tcp workload: one
// untraced operation, then one with every node wrapped in a timedProc
// under the CPU profiler.
func traceTCP(w workload, opts options, t *tally) (metrics, error) {
	e, err := newTCPEnv(w, opts)
	if err != nil {
		return nil, err
	}
	clock := newRefClock()
	setup := e.setupSampler(t, clock)
	cl, err := e.prepare(nil)
	var op tcpOp
	if err == nil {
		op, err = e.operate(cl)
	}
	setup.batches(tcpSetupsPerOp)
	vals := map[string]float64{"graph.build_s": setup.median(partGraph),
		"harness.preload_s": setup.median(partBuild), "netrun.start_s": setup.median(partStart),
		"host.cal_ms": clock.calMS()}
	if !t.record("tcp window", err) {
		return collect(perLayer, vals), nil
	}

	var wrapped []*timedProc
	kinds := e.p.reductionKinds()
	var wrapErr error
	tcl, err := e.prepare(func(p sim.Process) sim.Process {
		tp, err := newTimedProc(p, kinds)
		if err != nil {
			wrapErr = err
			return p
		}
		p.(mutationHooker).SetMutationHook(tp.countMutation)
		wrapped = append(wrapped, tp)
		return tp
	})
	if err == nil {
		err = wrapErr
	}
	var tr tcpOp
	tracePath, profPath := tracePaths(w, opts)
	if err == nil {
		err = profile(profPath, func() { tr, err = e.operate(tcl) })
	}
	if !t.record("traced tcp window", err) {
		return collect(perLayer, vals), nil
	}

	h := sumTimes(wrapped)
	total := float64(tr.total)
	protoMetrics(vals, e.p.layer(), h, e.p.stats(tcl.procs), tr.whole.wall)
	vals["netrun.frames_per_msg"] = ratio(float64(tr.frames), total)
	vals["netrun.cpu_us_per_msg"] = ratio(float64(tr.whole.cpu)/1e3, total)
	vals["netrun.self_cpu_us_per_msg"] = ratio(float64(tr.whole.cpu-time.Duration(h.busyNS()))/1e3, total)
	vals["netrun.alloc_b_per_msg"] = ratio(float64(tr.whole.bytes), total)
	vals["netrun.probe_rtt_us"] = median(tr.rtt)
	vals["netrun.dropped"] = float64(tr.dropped)
	vals["netrun.restarts"] = float64(tcl.c.Restarts())
	vals["detect.observe_ns"] = ratio(float64(tr.observe), float64(tr.epochs))
	vals["detect.samples_to_cert"] = float64(tr.epochs)
	// Both windows last the same wall time, so the overhead shows in CPU.
	vals["trace.overhead"] = ratio(float64(tr.whole.cpu), float64(op.whole.cpu))
	m := collect(perLayer, vals)

	tf := traceFile{Workload: w.name, Seed: opts.seed, Metrics: m, Spans: []spanRecord{
		spanAt("tcp.window", "", op.whole),
		spanAt("traced.tcp.window", "", tr.whole),
		spanAt("traced.certify", "traced.tcp.window", tr.cert),
	}}
	return m, writeTrace(tracePath, tf, h)
}
