package main

import (
	"fmt"
	"math/rand"

	"mdst/internal/core"
	"mdst/internal/graph"
	"mdst/internal/harness"
	"mdst/internal/paperproto"
	"mdst/internal/sim"
	"mdst/internal/spanning"
)

// workload is one pinned instance with a fixed configuration. Instance
// cost varies by up to 2x across gnp seeds at these sizes, more than any
// useful regression bound, so the graph and the initial configuration
// come from instanceSeed and never from the run's --seed. The sim
// instances converge in about a second, so a run holds tens of them.
type workload struct {
	name         string
	family       string
	n, smokeN    int
	instanceSeed int64
	variant      harness.Variant
	engine       harness.Engine
	// suppress/backoff are the shipped traffic knobs (RunSpec.Suppress,
	// RunSpec.Backoff).
	suppress, backoff bool
	tcp               bool
}

var workloads = []workload{
	{
		// The paper's headline scenario and ROADMAP's hot path: every
		// node corrupted, core handlers plus the compat send/Deliver loop
		// do the work.
		name: "gnp40-corrupt", family: "gnp", n: 40, smokeN: 16,
		instanceSeed: 0, variant: harness.VariantCore, engine: harness.EngineCompat,
	},
	{
		// The only workload on the paper-literal choreography, event-core
		// parking and the suppression/backoff knobs; core and the compat
		// loop sit idle.
		name: "gnp32-literal-event", family: "gnp", n: 32, smokeN: 16,
		instanceSeed: 0, variant: harness.VariantLiteral, engine: harness.EngineEvent,
		suppress: true, backoff: true,
	},
	{
		// The wire path and the control-channel detector on a certified,
		// idling, unsaturated cluster; sim is bypassed.
		name: "tcp-cube16-steady", family: "hypercube", n: 16, smokeN: 8,
		variant: harness.VariantCore, tcp: true,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// size is the instance's node count (smokeN in smoke mode).
func (w workload) size(smoke bool) int {
	if smoke {
		return w.smokeN
	}
	return w.n
}

// buildGraph generates the instance's topology.
func (w workload) buildGraph(n int) *graph.Graph {
	return graph.MustFamily(w.family).Build(n, rand.New(rand.NewSource(w.instanceSeed)))
}

// runSpec is the harness.Run input of a sim workload.
func (w workload) runSpec(g *graph.Graph) harness.RunSpec {
	return harness.RunSpec{
		Graph:     g,
		Variant:   w.variant,
		Scheduler: harness.SchedSync,
		Start:     harness.StartCorrupt,
		Seed:      w.instanceSeed,
		Engine:    w.engine,
		Suppress:  w.suppress,
		Backoff:   w.backoff,
	}
}

// config resolves the protocol configuration the way harness.Run does
// for the same spec: the variant's default plus the traffic knobs.
func (w workload) config(n int) core.Config {
	cfg := core.DefaultConfig(n)
	if w.variant == harness.VariantLiteral {
		cfg = paperproto.DefaultConfig(n)
	}
	cfg.SuppressSearches = w.suppress || w.backoff
	cfg.BackoffSearches = w.backoff
	return cfg
}

// proto is the variant-specific surface the benchmark drives directly:
// node construction, corruption, preloading and the end-state checks.
type proto struct {
	literal bool
	cfg     core.Config
}

func (w workload) proto(n int) proto {
	return proto{literal: w.variant == harness.VariantLiteral, cfg: w.config(n)}
}

// newNode builds one protocol node.
func (p proto) newNode(id int, nbrs []int) sim.Process {
	if p.literal {
		return paperproto.NewNode(id, nbrs, p.cfg)
	}
	return core.NewNode(id, nbrs, p.cfg)
}

// reductionKinds are the message kinds that must drain at quiescence.
func (p proto) reductionKinds() []string {
	if p.literal {
		return paperproto.ReductionKinds()
	}
	return core.ReductionKinds()
}

// corruptAll randomizes every node from the corruption RNG harness.Run
// documents (Seed ^ 0x5eed), in ID order, as harness.Run does.
func (p proto) corruptAll(procs []sim.Process, seed int64) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for _, q := range procs {
		q.(interface{ Corrupt(*rand.Rand, int) }).Corrupt(rng, len(procs))
	}
}

// preload writes the legitimate configuration induced by tree.
func (p proto) preload(g *graph.Graph, procs []sim.Process, tree *spanning.Tree) error {
	if p.literal {
		return harness.PreloadLiteralFromTree(g, literalNodes(procs), p.cfg, tree)
	}
	return harness.PreloadFromTree(g, coreNodes(procs), p.cfg, tree)
}

// check reports whether the configuration is legitimate with a tree of
// degree at most bound.
func (p proto) check(g *graph.Graph, procs []sim.Process, bound int) error {
	var ok bool
	var detail string
	var tree *spanning.Tree
	var err error
	if p.literal {
		nodes := literalNodes(procs)
		leg := paperproto.CheckLegitimacy(g, nodes)
		ok, detail = leg.OK(), leg.Detail
		tree, err = paperproto.ExtractTree(g, nodes)
	} else {
		nodes := coreNodes(procs)
		leg := core.CheckLegitimacy(g, nodes)
		ok, detail = leg.OK(), leg.Detail
		tree, err = core.ExtractTree(g, nodes)
	}
	switch {
	case !ok:
		return fmt.Errorf("not legitimate: %s", detail)
	case err != nil:
		return err
	case tree.MaxDegree() > bound:
		return fmt.Errorf("tree degree %d above Δ*+1 = %d", tree.MaxDegree(), bound)
	}
	return nil
}

// protoStats is the cross-variant view of the per-node event counters.
type protoStats struct {
	launched, exchanges, suppressed, aborted int
}

func (p proto) stats(procs []sim.Process) protoStats {
	if p.literal {
		s := paperproto.AggregateStats(literalNodes(procs))
		return protoStats{s.SearchesLaunched, s.ExchangesComplete, s.SearchesSuppressed, s.ChoreoAborted}
	}
	s := core.AggregateStats(coreNodes(procs))
	return protoStats{s.SearchesLaunched, s.ExchangesComplete, s.SearchesSuppressed, s.ChainsAborted}
}

// layer is the per-layer metric prefix of the variant's protocol module.
func (p proto) layer() string {
	if p.literal {
		return "paperproto"
	}
	return "core"
}

func coreNodes(procs []sim.Process) []*core.Node {
	nodes := make([]*core.Node, len(procs))
	for i, q := range procs {
		nodes[i] = q.(*core.Node)
	}
	return nodes
}

func literalNodes(procs []sim.Process) []*paperproto.Node {
	nodes := make([]*paperproto.Node, len(procs))
	for i, q := range procs {
		nodes[i] = q.(*paperproto.Node)
	}
	return nodes
}

// mutationHooker is the SetMutationHook method both protocol nodes have.
type mutationHooker interface {
	SetMutationHook(core.MutationHook)
}
