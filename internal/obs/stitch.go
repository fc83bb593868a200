package obs

import (
	"sort"
	"strings"
)

// This file reassembles fleet-wide traces from per-process exports.
// Every hop of a distributed session (the router, each shard it
// touched) exports its own TraceSnapshot under the shared W3C trace ID;
// the cross-process link is TraceSnapshot.ParentSpan — the span ID of
// the caller's in-flight span, carried hop-to-hop in the traceparent
// header. StitchTraces groups snapshots by trace ID, grafts each
// snapshot's span tree onto its remote parent, rebases child timelines
// onto the root's clock, and walks the merged tree for the fleet-wide
// critical path — so a scatter-gathered query shows router queue →
// fan-out → per-shard ordering → merge as one tree.
//
// Clock caveat: child offsets rebase via wall-clock Start differences
// across machines, so cross-host skew shifts child spans by the skew
// amount. Durations are monotonic-clock measured and unaffected.

// StitchedPart is one hop of a stitched critical path with the time
// attributable to it alone (its duration minus the next hop's).
type StitchedPart struct {
	Name   string `json:"name"`
	SelfNS int64  `json:"self_ns"`
}

// StitchedTrace is one multi-process trace reassembled from the
// per-process snapshots sharing its trace ID.
type StitchedTrace struct {
	TraceID TraceID `json:"trace_id"`
	// Procs is how many process-local snapshots were stitched.
	Procs int `json:"procs"`
	// Name is the root snapshot's name (the first hop, e.g. the router).
	Name string `json:"name"`
	// Hops lists every stitched snapshot's name, root first.
	Hops []string `json:"hops,omitempty"`
	// Status is "error" when any hop errored.
	Status string `json:"status"`
	DurNS  int64  `json:"dur_ns"`
	Spans  int    `json:"spans"`
	// Orphans counts snapshots whose remote parent span was not found in
	// any sibling snapshot (their subtree hangs off the root unattached
	// and is excluded from the critical path).
	Orphans int `json:"orphans,omitempty"`
	// CriticalPath is the root-to-leaf chain through the merged
	// cross-process span tree, "a > b > c".
	CriticalPath string `json:"critical_path"`
	// CriticalNS is the leaf-most span's duration on that chain.
	CriticalNS int64 `json:"critical_ns"`
	// Breakdown attributes the root's wall time to the chain's hops:
	// each entry's SelfNS is its span duration minus the next chain
	// entry's, i.e. time spent at that level (router queueing, shard
	// execution, merging) rather than waiting on the level below.
	Breakdown []StitchedPart `json:"breakdown,omitempty"`
}

// StitchTraces reassembles multi-process traces: snapshots sharing a
// trace ID (in input order) become one StitchedTrace when there are at
// least two of them — a lone snapshot has nothing to stitch. The result
// is ordered by duration descending.
func StitchTraces(ts []TraceSnapshot) []StitchedTrace {
	groups := make(map[TraceID][]TraceSnapshot)
	var order []TraceID
	for _, t := range ts {
		if _, seen := groups[t.TraceID]; !seen {
			order = append(order, t.TraceID)
		}
		groups[t.TraceID] = append(groups[t.TraceID], t)
	}
	var out []StitchedTrace
	for _, id := range order {
		g := groups[id]
		if len(g) < 2 {
			continue
		}
		out = append(out, stitchGroup(id, g))
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].DurNS != out[j].DurNS {
			return out[i].DurNS > out[j].DurNS
		}
		return out[i].TraceID.String() < out[j].TraceID.String()
	})
	return out
}

// stitchGroup merges one trace ID's snapshots into a StitchedTrace.
func stitchGroup(id TraceID, g []TraceSnapshot) StitchedTrace {
	// Which snapshot owns each span ID (for root election and orphan
	// detection).
	owner := make(map[SpanID]int, 32)
	for i, snap := range g {
		for _, sp := range snap.Spans {
			owner[sp.ID] = i
		}
	}
	// The root hop is the snapshot whose remote parent is unknown to its
	// siblings: either it has none (a fresh trace) or the parent span
	// belongs to the client, outside the export. Ties (or a cyclic
	// parent mess) resolve to the earliest start.
	root := -1
	for i, snap := range g {
		_, known := owner[snap.ParentSpan]
		if !snap.ParentSpan.IsZero() && known && owner[snap.ParentSpan] != i {
			continue
		}
		if root < 0 || snap.Start.Before(g[root].Start) {
			root = i
		}
	}
	if root < 0 {
		root = 0
		for i, snap := range g {
			if snap.Start.Before(g[root].Start) {
				root = i
			}
		}
	}

	st := StitchedTrace{
		TraceID: id,
		Procs:   len(g),
		Name:    g[root].Name,
		Status:  "ok",
		DurNS:   g[root].DurNS,
	}
	// Merge: root first, then the other hops in start order, each
	// rebased onto the root's clock with its local root span reparented
	// onto the remote parent.
	hopOrder := make([]int, 0, len(g))
	hopOrder = append(hopOrder, root)
	rest := make([]int, 0, len(g)-1)
	for i := range g {
		if i != root {
			rest = append(rest, i)
		}
	}
	sort.SliceStable(rest, func(a, b int) bool { return g[rest[a]].Start.Before(g[rest[b]].Start) })
	hopOrder = append(hopOrder, rest...)

	var merged []SpanRecord
	for _, i := range hopOrder {
		snap := g[i]
		st.Hops = append(st.Hops, snap.Name)
		if snap.Status == "error" {
			st.Status = "error"
		}
		off := snap.Start.Sub(g[root].Start).Nanoseconds()
		if i == root {
			off = 0
		} else if _, known := owner[snap.ParentSpan]; !known || owner[snap.ParentSpan] == i {
			st.Orphans++
		}
		for _, sp := range snap.Spans {
			rec := sp
			rec.StartNS += off
			if i != root && sp.ID == snap.RootSpan {
				rec.Parent = snap.ParentSpan
			}
			merged = append(merged, rec)
		}
	}
	st.Spans = len(merged)

	chain := criticalChain(g[root].RootSpan, g[root].DurNS, g[root].Name, merged)
	st.CriticalPath, st.CriticalNS = chainPath(chain)
	st.Breakdown = make([]StitchedPart, len(chain))
	for i, sp := range chain {
		self := sp.DurNS
		if i+1 < len(chain) {
			self -= chain[i+1].DurNS
		}
		if self < 0 {
			self = 0
		}
		st.Breakdown[i] = StitchedPart{Name: sp.Name, SelfNS: self}
	}
	return st
}

// chainPath renders a critical chain as "a > b > c", leaving out the
// root (it duplicates the trace name), and returns the leaf's duration.
func chainPath(chain []SpanRecord) (string, int64) {
	names := make([]string, 0, len(chain)-1)
	for _, sp := range chain[1:] {
		names = append(names, sp.Name)
	}
	return strings.Join(names, " > "), chain[len(chain)-1].DurNS
}

// criticalChain walks the merged span tree from the root span,
// descending into the longest child at each level (ties: earliest
// start), and returns the chain of span records including the root.
func criticalChain(rootID SpanID, rootDur int64, rootName string, spans []SpanRecord) []SpanRecord {
	children := make(map[SpanID][]SpanRecord, len(spans))
	for _, s := range spans {
		if s.ID == rootID {
			continue
		}
		children[s.Parent] = append(children[s.Parent], s)
	}
	chain := []SpanRecord{{ID: rootID, Name: rootName, DurNS: rootDur}}
	cur := rootID
	seen := map[SpanID]bool{rootID: true} // cycle guard: malformed links must not loop
	for {
		kids := children[cur]
		if len(kids) == 0 {
			return chain
		}
		best := kids[0]
		for _, k := range kids[1:] {
			if k.DurNS > best.DurNS || (k.DurNS == best.DurNS && k.StartNS < best.StartNS) {
				best = k
			}
		}
		if seen[best.ID] {
			return chain
		}
		seen[best.ID] = true
		chain = append(chain, best)
		cur = best.ID
	}
}
