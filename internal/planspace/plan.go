// Package planspace represents query plans and plan spaces.
//
// A plan space is the Cartesian product of a set of buckets (Section 2).
// A plan assigns one abstraction node to each bucket position: if all
// nodes are leaves the plan is concrete, otherwise it is an abstract plan
// representing the Cartesian product of its nodes' members (Section 5.1).
package planspace

import (
	"cmp"
	"strconv"
	"strings"
	"sync/atomic"

	"qporder/internal/abstraction"
	"qporder/internal/lav"
)

// Plan is a (possibly abstract) query plan: one node per query subgoal.
// Plans are immutable; Nodes must not be modified after construction.
// Key is safe to call from concurrent goroutines (the parallel ordering
// paths share plans across workers).
type Plan struct {
	Nodes []*abstraction.Node
	key   atomic.Pointer[string] // lazily built canonical key
}

// New returns a plan over the given nodes.
func New(nodes ...*abstraction.Node) *Plan {
	if len(nodes) == 0 {
		panic("planspace: empty plan")
	}
	return &Plan{Nodes: nodes}
}

// Len returns the number of positions (the query length).
func (p *Plan) Len() int { return len(p.Nodes) }

// Concrete reports whether every position is a single source.
func (p *Plan) Concrete() bool {
	for _, n := range p.Nodes {
		if !n.IsLeaf() {
			return false
		}
	}
	return true
}

// NumConcrete returns the number of concrete plans this plan represents.
func (p *Plan) NumConcrete() int64 {
	n := int64(1)
	for _, nd := range p.Nodes {
		n *= int64(nd.Size())
	}
	return n
}

// Sources returns the source at each position; it panics if the plan is
// abstract.
func (p *Plan) Sources() []lav.SourceID {
	out := make([]lav.SourceID, len(p.Nodes))
	for i, n := range p.Nodes {
		out[i] = n.Source()
	}
	return out
}

// Key returns a canonical string identity for the plan. Concrete plans of
// the same sources share a key even when built from distinct node objects.
// Racing callers may build the key twice; both build the same string, so
// the duplicated work is benign and the published value is stable.
func (p *Plan) Key() string {
	if k := p.key.Load(); k != nil {
		return *k
	}
	var b strings.Builder
	for i, n := range p.Nodes {
		if i > 0 {
			b.WriteByte('|')
		}
		if n.IsLeaf() {
			b.WriteString(strconv.Itoa(int(n.Sources[0])))
			continue
		}
		b.WriteByte('{')
		for j, s := range n.Sources {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(int(s)))
		}
		b.WriteByte('}')
	}
	k := b.String()
	p.key.Store(&k)
	return k
}

// CompareKey orders two plans exactly as strings.Compare(a.Key(),
// b.Key()) does, without building either key: it walks the bytes the
// keys would hold ("|" between positions, a leaf as its source ID, a
// group as "{id,id,...}") node by node and decides at the first byte
// that differs. Ordering paths (tie-breaks among equal utilities) call
// it on many plans whose keys are never otherwise needed. Source IDs
// are non-negative catalog indexes, as everywhere in this package.
func CompareKey(a, b *Plan) int {
	if a == b {
		return 0
	}
	if ka, kb := a.key.Load(), b.key.Load(); ka != nil && kb != nil {
		return strings.Compare(*ka, *kb)
	}
	na, nb := a.Nodes, b.Nodes
	for i := 0; i < len(na) && i < len(nb); i++ {
		if na[i] != nb[i] {
			if c := compareNode(na[i], nb[i], follower(i+1 < len(na)), follower(i+1 < len(nb))); c != 0 {
				return c
			}
		}
	}
	// Every shared position renders equally, so the shorter key is a
	// prefix of the longer one.
	return cmp.Compare(len(na), len(nb))
}

// endOfKey stands for the end of a key in byte comparisons: it sorts
// before every byte.
const endOfKey = -1

// follower returns the byte after position i's rendering: '|' when more
// positions follow, endOfKey otherwise.
func follower(more bool) int {
	if more {
		return '|'
	}
	return endOfKey
}

// compareNode compares the key renderings of two nodes, each followed by
// the given byte (fx, fy), and returns 0 when the renderings are equal
// so the caller can compare what follows.
func compareNode(x, y *abstraction.Node, fx, fy int) int {
	xl, yl := x.IsLeaf(), y.IsLeaf()
	switch {
	case xl && yl:
		return compareDecimal(uint64(x.Sources[0]), uint64(y.Sources[0]), fx, fy)
	case xl:
		return -1 // a digit sorts before '{'
	case yl:
		return 1
	}
	xs, ys := x.Sources, y.Sources
	for j := 0; ; j++ {
		gx, gy := int('}'), int('}')
		if j+1 < len(xs) {
			gx = ','
		}
		if j+1 < len(ys) {
			gy = ','
		}
		if c := compareDecimal(uint64(xs[j]), uint64(ys[j]), gx, gy); c != 0 {
			return c
		}
		if gx != gy || gx == '}' {
			return cmp.Compare(gx, gy)
		}
	}
}

// compareDecimal compares the decimal renderings of u and v, followed by
// the bytes fu and fv, up to the end of the longer rendering. It returns
// 0 when the renderings are equal.
func compareDecimal(u, v uint64, fu, fv int) int {
	if u == v {
		return 0
	}
	du, dv := decimalDigits(u), decimalDigits(v)
	pu, pv := u, v
	for d := du; d > dv; d-- {
		pu /= 10
	}
	for d := dv; d > du; d-- {
		pv /= 10
	}
	if pu != pv {
		return cmp.Compare(pu, pv)
	}
	// One rendering is a proper prefix of the other: the shorter one's
	// follower meets a digit of the longer one.
	if du < dv {
		return beforeDigit(fu)
	}
	return -beforeDigit(fv)
}

// beforeDigit compares a follower byte against any digit: -1 when it
// sorts before the digits (end of key, ','), 1 otherwise ('|', '}').
func beforeDigit(f int) int {
	if f < '0' {
		return -1
	}
	return 1
}

func decimalDigits(u uint64) int {
	n := 1
	for u >= 10 {
		u /= 10
		n++
	}
	return n
}

// Refine replaces the largest abstract node (earliest position on ties)
// with each of its children, returning the resulting lower-level plans.
// It panics on concrete plans.
func (p *Plan) Refine() []*Plan {
	pos := -1
	size := 1
	for i, n := range p.Nodes {
		if n.Size() > size {
			pos, size = i, n.Size()
		}
	}
	if pos < 0 {
		panic("planspace: Refine on concrete plan " + p.Key())
	}
	node := p.Nodes[pos]
	// One plan slab and one node slab for the whole sibling set (the
	// refinement loops churn through frontiers of these), not two
	// allocations per child.
	q := len(p.Nodes)
	n := len(node.Children)
	out := make([]*Plan, n)
	plans := make([]Plan, n)
	slab := make([]*abstraction.Node, n*q)
	for ci, ch := range node.Children {
		nodes := slab[ci*q : (ci+1)*q : (ci+1)*q]
		copy(nodes, p.Nodes)
		nodes[pos] = ch
		plans[ci].Nodes = nodes
		out[ci] = &plans[ci]
	}
	return out
}

// String renders "V1 V5" or "{V1 V2} V5" style, using catalog names when
// cat is non-nil.
func (p *Plan) String() string {
	parts := make([]string, len(p.Nodes))
	for i, n := range p.Nodes {
		parts[i] = n.String()
	}
	return strings.Join(parts, " ")
}

// Format renders the plan with catalog source names, e.g. "V1 V5".
func (p *Plan) Format(cat *lav.Catalog) string {
	parts := make([]string, len(p.Nodes))
	for i, n := range p.Nodes {
		if n.IsLeaf() {
			parts[i] = cat.Source(n.Source()).Name
			continue
		}
		names := make([]string, len(n.Sources))
		for j, s := range n.Sources {
			names[j] = cat.Source(s).Name
		}
		parts[i] = "{" + strings.Join(names, " ") + "}"
	}
	return strings.Join(parts, " ")
}

// SameSources reports whether two concrete plans access the same source at
// every position.
func SameSources(a, b *Plan) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := range a.Nodes {
		if !a.Nodes[i].IsLeaf() || !b.Nodes[i].IsLeaf() {
			return false
		}
		if a.Nodes[i].Source() != b.Nodes[i].Source() {
			return false
		}
	}
	return true
}
