package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mdst/internal/core"
	"mdst/internal/harness"
	"mdst/internal/paperproto"
	"mdst/internal/sim"
)

// plainProc implements sim.Process and nothing optional.
type plainProc struct{}

func (plainProc) Init(*sim.Context)                             {}
func (plainProc) Tick(*sim.Context)                             {}
func (plainProc) Receive(*sim.Context, sim.NodeID, sim.Message) {}

func TestTimedProcForwardsEveryOptionalInterface(t *testing.T) {
	cfg := core.DefaultConfig(4)
	for _, inner := range []sim.Process{
		core.NewNode(0, []int{1, 2}, cfg),
		paperproto.NewNode(0, []int{1, 2}, cfg),
	} {
		tp, err := newTimedProc(inner, nil)
		if err != nil {
			t.Fatalf("%T: %v", inner, err)
		}
		var wrapped sim.Process = tp
		checks := []struct {
			name         string
			inner, outer bool
		}{
			{"Fingerprinter", is[sim.Fingerprinter](inner), is[sim.Fingerprinter](wrapped)},
			{"StateVersioner", is[sim.StateVersioner](inner), is[sim.StateVersioner](wrapped)},
			{"StateSizer", is[sim.StateSizer](inner), is[sim.StateSizer](wrapped)},
			{"RetryAware", is[sim.RetryAware](inner), is[sim.RetryAware](wrapped)},
			{"EventProcess", is[sim.EventProcess](inner), is[sim.EventProcess](wrapped)},
		}
		for _, c := range checks {
			if c.inner && !c.outer {
				t.Errorf("%T implements %s but its wrapper does not", inner, c.name)
			}
		}
		if tp.Fingerprint() != inner.(sim.Fingerprinter).Fingerprint() ||
			tp.StateVersion() != inner.(sim.StateVersioner).StateVersion() {
			t.Errorf("%T: wrapper reports different state than the node", inner)
		}
	}
	if _, err := newTimedProc(plainProc{}, nil); err == nil {
		t.Error("a process without the optional interfaces was wrapped")
	}
}

func is[T any](p sim.Process) bool {
	_, ok := p.(T)
	return ok
}

func TestTracedRunReplaysUntraced(t *testing.T) {
	for _, w := range workloads {
		if w.tcp {
			continue
		}
		e, err := newSimEnv(w, true)
		if err != nil {
			t.Fatal(err)
		}
		op, err := e.converge()
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		tr, err := e.traced()
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if err := tr.replays(op.res); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		if tr.times.messages() != tr.metrics.Deliveries {
			t.Errorf("%s: timed %d receives of %d deliveries", w.name, tr.times.messages(), tr.metrics.Deliveries)
		}
	}
}

// TestSmoke runs every workload in both modes on tiny instances: every
// check passes and every named metric is printed with its unit.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			out := t.TempDir()
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", w.name, "--seed", "3", "--seconds", "1",
				"--trace", trace, "--smoke", "--out", out}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d: %s", w.name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d: %s",
					w.name, trace, res.Correct, res.Attempted, res.Failed, stderr.String())
			}
			defs := endToEnd
			if trace == "1" {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%s: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%s: metric %s missing", w.name, trace, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s trace=%s: %s unit %q, want %q", w.name, trace, d.name, m.Unit, d.unit)
				case trace == "0" && m.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, d.name, m.Value)
				}
			}
			if trace == "1" {
				layer := "core"
				if w.variant == harness.VariantLiteral {
					layer = "paperproto"
				}
				if res.Metrics[layer+".tick_ns"].Value <= 0 || res.Metrics["trace.overhead"].Value <= 0 {
					t.Errorf("%s: traced run timed nothing", w.name)
				}
				tracePath, profPath := tracePaths(w, options{seed: 3, out: out})
				for _, p := range []string{tracePath, profPath} {
					if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
						t.Errorf("%s: trace output %s missing or empty", w.name, p)
					}
				}
				checkSpans(t, w.name, tracePath)
			}
		}
	}
}

// checkSpans asserts that every span of a trace file lies inside its
// parent.
func checkSpans(t *testing.T, name, path string) {
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	byName := map[string]spanRecord{}
	for _, s := range tf.Spans {
		byName[s.Name] = s
	}
	for _, s := range tf.Spans {
		if s.EndMS < s.StartMS {
			t.Errorf("%s: span %s ends before it starts", name, s.Name)
		}
		if s.Parent == "" {
			continue
		}
		p, ok := byName[s.Parent]
		if !ok || s.StartMS < p.StartMS || s.EndMS > p.EndMS {
			t.Errorf("%s: span %s [%.1f, %.1f] is not inside its parent %s [%.1f, %.1f]",
				name, s.Name, s.StartMS, s.EndMS, s.Parent, p.StartMS, p.EndMS)
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "gnp40-corrupt", "--trace", "2"},
		{"--workload", "gnp40-corrupt", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

// TestBenchmarkFileMatches keeps BENCHMARK.json and the metrics the
// benchmark prints in step.
func TestBenchmarkFileMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var bf struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d, the benchmark prints %d", what, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || (d.unit != "" && got[i].Unit != d.unit) {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark prints %s [%s]",
					what, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	var ws []metricDef
	for _, w := range workloads {
		ws = append(ws, metricDef{name: w.name})
	}
	same("workloads", bf.Workloads, ws)
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
}
