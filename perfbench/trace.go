package main

import (
	"fmt"
	"time"

	"mdst/internal/core"
	"mdst/internal/sim"
)

// node is every interface the runtimes type-assert on a sim.Process. The
// runtimes change execution by what a process implements (StateVersioner
// skips re-hashing, EventProcess parks idle nodes, RetryAware widens the
// quiescence window), so a wrapper that dropped one would trace a
// different run than the untraced one.
type node interface {
	sim.Process
	sim.Fingerprinter
	sim.StateVersioner
	sim.StateSizer
	sim.RetryAware
	sim.EventProcess
}

// Handler classes the trace splits Receive time into.
const (
	clsSearch = iota
	clsInfo
	clsReduction
	clsOther
	numClasses
)

// handlerTimes accumulates busy time and call counts per handler class
// plus Tick. One value is written by one node's goroutine only; readers
// sum them after the run has stopped.
type handlerTimes struct {
	ns            [numClasses]int64
	calls         [numClasses]int64
	tickNS, ticks int64
	mutations     int64
}

func (h *handlerTimes) add(o *handlerTimes) {
	for c := 0; c < numClasses; c++ {
		h.ns[c] += o.ns[c]
		h.calls[c] += o.calls[c]
	}
	h.tickNS += o.tickNS
	h.ticks += o.ticks
	h.mutations += o.mutations
}

// busyNS is the total time spent inside the protocol's handlers.
func (h *handlerTimes) busyNS() int64 {
	t := h.tickNS
	for _, ns := range h.ns {
		t += ns
	}
	return t
}

func (h *handlerTimes) messages() int64 {
	var m int64
	for _, c := range h.calls {
		m += c
	}
	return m
}

// timedProc decorates a protocol node with per-call timers. It forwards
// every method of node unchanged, so the runtime sees the same process
// behaviour with timing around Receive and Tick.
type timedProc struct {
	node
	class map[string]int
	t     handlerTimes
}

// newTimedProc wraps p. It fails when p lacks one of the interfaces the
// runtimes look for, rather than hiding that from them.
func newTimedProc(p sim.Process, reduction []string) (*timedProc, error) {
	n, ok := p.(node)
	if !ok {
		return nil, fmt.Errorf("perfbench: %T does not implement every optional sim interface", p)
	}
	class := map[string]int{core.KindSearch: clsSearch, core.KindInfo: clsInfo}
	for _, k := range reduction {
		class[k] = clsReduction
	}
	return &timedProc{node: n, class: class}, nil
}

func (p *timedProc) Receive(ctx *sim.Context, from sim.NodeID, m sim.Message) {
	c, ok := p.class[m.Kind()]
	if !ok {
		c = clsOther
	}
	t0 := time.Now()
	p.node.Receive(ctx, from, m)
	p.t.ns[c] += int64(time.Since(t0))
	p.t.calls[c]++
}

func (p *timedProc) Tick(ctx *sim.Context) {
	t0 := time.Now()
	p.node.Tick(ctx)
	p.t.tickNS += int64(time.Since(t0))
	p.t.ticks++
}

// countMutation is the node's mutation hook: it counts the tree writes
// the protocol accepts.
func (p *timedProc) countMutation(core.MutationKind, int, int) { p.t.mutations++ }

// sumTimes totals the per-node timers of procs.
func sumTimes(procs []*timedProc) handlerTimes {
	var h handlerTimes
	for _, p := range procs {
		h.add(&p.t)
	}
	return h
}
