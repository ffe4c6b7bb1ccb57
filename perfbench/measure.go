package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"
)

// name and unit of one metric.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of untraced runs, every one lower-is-better.
// The sim workloads measure a convergence from the corrupted start and
// then the upkeep of the converged tree for upkeepRounds of protocol
// time; the tcp workload measures the certification of its preloaded
// tree and then a steady window of wall time.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"converge_s", "s"},
	{"cpu_s", "s"},
	{"messages", "count"},
	{"rounds", "count"},
	{"alloc_mb", "MB"},
	{"upkeep_cores", "cores"},
	{"msgs_per_s", "1/s"},
	{"alloc_mb_per_s", "MB/s"},
	{"max_rss_mb", "MB"},
}

// protoLayer are the per-layer metrics of a protocol module (core or
// paperproto), reported under the module's prefix.
var protoLayer = []metricDef{
	{"search_ns", "ns"},
	{"info_ns", "ns"},
	{"reduction_ns", "ns"},
	{"tick_ns", "ns"},
	{"handler_share", "ratio"},
	{"search_share", "ratio"},
	{"searches_launched", "count"},
	{"search_yield", "ratio"},
	{"searches_suppressed", "count"},
	{"chains_aborted", "count"},
	{"mutations", "count"},
}

// perLayer are the metrics of traced runs. A workload reports zero for a
// layer it bypasses.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, mod := range []string{"core", "paperproto"} {
		for _, d := range protoLayer {
			defs = append(defs, metricDef{mod + "." + d.name, d.unit})
		}
	}
	return append(defs, []metricDef{
		{"sim.self_ns_per_msg", "ns"},
		{"sim.allocs_per_msg", "count"},
		{"sim.alloc_b_per_msg", "B"},
		{"sim.events", "count"},
		{"sim.tail_events_share", "ratio"},
		{"sim.tail_rounds_share", "ratio"},
		{"sim.fingerprint_recomputes", "count"},
		{"sim.max_queue_len", "count"},
		{"netrun.frames_per_msg", "ratio"},
		{"netrun.cpu_us_per_msg", "us"},
		{"netrun.self_cpu_us_per_msg", "us"},
		{"netrun.alloc_b_per_msg", "B"},
		{"netrun.probe_rtt_us", "us"},
		{"netrun.dropped", "count"},
		{"netrun.restarts", "count"},
		{"netrun.start_s", "s"},
		{"detect.observe_ns", "ns"},
		{"detect.samples_to_cert", "count"},
		{"graph.build_s", "s"},
		{"harness.preload_s", "s"},
		{"sim.network_s", "s"},
		{"host.cal_ms", "ms"},
		{"trace.overhead", "ratio"},
	}...)
}()

// collect fills every metric of defs from vals, zero where vals has none.
func collect(defs []metricDef, vals map[string]float64) metrics {
	m := make(metrics, len(defs))
	for _, d := range defs {
		m[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return m
}

// setupParts are the timed parts of one set-up.
type setupParts [4]time.Duration

// Indexes into setupParts.
const (
	partGraph = iota // graph generation
	partBuild        // sim: network construction; tcp: tree preload
	partStart        // tcp: Cluster.Start
	partTotal        // the whole set-up
)

// setupSampler times repeated set-ups. Set-up takes well under a
// millisecond to tens of milliseconds, so a run times batches of set-ups
// spread over its whole length: a few after warm-up, more after every
// operation. A single batch lasts milliseconds, and samples that short
// vary by ±15% on the 2-vCPU host the bounds were set on, so the metric
// is the median batch mean over the whole run, in reference seconds.
type setupSampler struct {
	t       *tally
	clock   *refClock
	per     int // set-ups per batch
	fn      func() (setupParts, error)
	samples [len(setupParts{})][]float64 // batch means in reference seconds
}

func newSetupSampler(t *tally, clock *refClock, per, warm int, fn func() (setupParts, error)) *setupSampler {
	s := &setupSampler{t: t, clock: clock, per: per, fn: fn}
	for i := 0; i < warm; i++ {
		_, err := fn()
		t.record("set-up", err)
	}
	return s
}

// batches times n more batches and closes them with a calibration.
// Every set-up is one operation; a batch with a failed set-up is not
// sampled.
func (s *setupSampler) batches(n int) {
	var from [len(setupParts{})]int
	for k := range from {
		from[k] = len(s.samples[k])
	}
	defer func() {
		f := s.clock.scale()
		for k := range from {
			for i := from[k]; i < len(s.samples[k]); i++ {
				s.samples[k][i] *= f
			}
		}
	}()
	for b := 0; b < n; b++ {
		var sum setupParts
		ok := true
		for i := 0; i < s.per; i++ {
			parts, err := s.fn()
			ok = s.t.record("set-up", err) && ok
			for k, d := range parts {
				sum[k] += d
			}
		}
		if !ok {
			continue
		}
		for k, d := range sum {
			s.samples[k] = append(s.samples[k], d.Seconds()/float64(s.per))
		}
	}
}

// median returns the median batch mean of part k.
func (s *setupSampler) median(k int) float64 { return median(s.samples[k]) }

// repeat runs op at least min times, then again while one more
// operation, as long as the last one, still ends within the run's
// measured time.
func repeat(opts options, min int, op func()) {
	start := time.Now()
	var last time.Duration
	for i := 0; i < min || time.Since(start)+last <= opts.seconds; i++ {
		t0 := time.Now()
		op()
		last = time.Since(t0)
	}
}

// profile runs fn under the CPU profiler, writing the profile to path.
func profile(path string, fn func()) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	fn()
	pprof.StopCPUProfile()
	return f.Close()
}

// spanRecord is one timed interval of the traced run, relative to the
// start of the run's process.
type spanRecord struct {
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
	CPUMS   float64 `json:"cpu_ms"`
}

var processStart = time.Now()

func spanAt(name, parent string, s span) spanRecord {
	start := s.start.Sub(processStart)
	return spanRecord{Name: name, Parent: parent, StartMS: float64(start) / 1e6,
		EndMS: float64(start+s.wall) / 1e6, CPUMS: float64(s.cpu) / 1e6}
}

// traceFile is what a traced run writes beside its CPU profile.
type traceFile struct {
	Workload string       `json:"workload"`
	Seed     int64        `json:"seed"`
	Spans    []spanRecord `json:"spans"`
	// Handlers holds the protocol handlers' busy time and call counts by
	// message class, summed over nodes.
	Handlers map[string][2]int64 `json:"handlers"`
	Metrics  metrics             `json:"metrics"`
}

// tracePaths returns the trace file and CPU profile paths of a run.
func tracePaths(w workload, opts options) (string, string) {
	base := filepath.Join(opts.out, "trace", fmt.Sprintf("%s-seed%d", w.name, opts.seed))
	return base + ".json", base + ".cpu.pprof"
}

func writeTrace(path string, tf traceFile, h handlerTimes) error {
	tf.Handlers = map[string][2]int64{
		"search":    {h.ns[clsSearch], h.calls[clsSearch]},
		"info":      {h.ns[clsInfo], h.calls[clsInfo]},
		"reduction": {h.ns[clsReduction], h.calls[clsReduction]},
		"other":     {h.ns[clsOther], h.calls[clsOther]},
		"tick":      {h.tickNS, h.ticks},
	}
	b, err := json.MarshalIndent(tf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// protoMetrics fills the per-layer metrics of the protocol module.
func protoMetrics(vals map[string]float64, layer string, h handlerTimes, st protoStats, wall time.Duration) {
	put := func(name string, v float64) { vals[layer+"."+name] = v }
	put("search_ns", ratio(float64(h.ns[clsSearch]), float64(h.calls[clsSearch])))
	put("info_ns", ratio(float64(h.ns[clsInfo]), float64(h.calls[clsInfo])))
	put("reduction_ns", ratio(float64(h.ns[clsReduction]), float64(h.calls[clsReduction])))
	put("tick_ns", ratio(float64(h.tickNS), float64(h.ticks)))
	put("handler_share", ratio(float64(h.busyNS()), float64(wall)))
	put("search_share", ratio(float64(h.calls[clsSearch]), float64(h.messages())))
	put("searches_launched", float64(st.launched))
	put("search_yield", ratio(float64(st.exchanges), float64(st.launched)))
	put("searches_suppressed", float64(st.suppressed))
	put("chains_aborted", float64(st.aborted))
	put("mutations", float64(h.mutations))
}
