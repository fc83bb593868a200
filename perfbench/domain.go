package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"sort"

	"qporder/internal/domfile"
	"qporder/internal/execsim"
	"qporder/internal/lav"
	"qporder/internal/schema"
)

// chainDomainText renders the synthetic chain domain qpgen's chain
// preset emits: qlen relations rel0..rel{qlen-1}, each with `sources`
// single-relation sources of randomized statistics.
func chainDomainText(qlen, sources int, seed int64) ([]byte, error) {
	rng := rand.New(rand.NewSource(seed))
	cat := lav.NewCatalog()
	for b := 0; b < qlen; b++ {
		for j := 0; j < sources; j++ {
			name := fmt.Sprintf("V%d_%d", b, j)
			def := &schema.Query{
				Name: name,
				Head: []schema.Term{schema.Var("A"), schema.Var("B")},
				Body: []schema.Atom{schema.NewAtom(fmt.Sprintf("rel%d", b), schema.Var("A"), schema.Var("B"))},
			}
			stats := lav.Stats{
				Tuples:       float64(10 + rng.Intn(5000)),
				TransmitCost: 0.5 + 1.5*rng.Float64(),
				Overhead:     5 + 15*rng.Float64(),
				FailureProb:  0.3 * rng.Float64(),
				AccessFee:    1 + 99*rng.Float64(),
				TupleFee:     0.01 + 0.09*rng.Float64(),
			}
			if _, err := cat.Add(name, def, stats); err != nil {
				return nil, err
			}
		}
	}
	var buf bytes.Buffer
	if err := domfile.Write(&buf, &domfile.Domain{Catalog: cat, Query: chainQuery(qlen)}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// chainQuery is Q(X0, Xn) :- rel0(X0, X1), ..., rel{n-1}(X{n-1}, Xn).
func chainQuery(n int) *schema.Query {
	body := make([]schema.Atom, n)
	for i := range body {
		body[i] = schema.NewAtom(fmt.Sprintf("rel%d", i),
			schema.Var(fmt.Sprintf("X%d", i)), schema.Var(fmt.Sprintf("X%d", i+1)))
	}
	return &schema.Query{Name: "Q",
		Head: []schema.Term{schema.Var("X0"), schema.Var(fmt.Sprintf("X%d", n))}, Body: body}
}

// writeDomain writes the domain file and parses it back, so the
// benchmark's reference sees exactly the catalog the daemons load.
func writeDomain(path string, text []byte) (*lav.Catalog, error) {
	if err := os.WriteFile(path, text, 0o644); err != nil {
		return nil, err
	}
	d, err := domfile.Parse(bytes.NewReader(text))
	if err != nil {
		return nil, err
	}
	return d.Catalog, nil
}

// worldDB builds the simulated source contents exactly as qpserved does
// for a daemon started with -seed seed: a world over every relation the
// sources mention, then sources 80% complete.
func worldDB(cat *lav.Catalog, seed int64) execsim.DB {
	arity := make(map[string]int)
	for _, src := range cat.Sources() {
		if src.Def == nil {
			continue
		}
		for _, a := range src.Def.Body {
			arity[a.Pred] = a.Arity()
		}
	}
	rels := make([]execsim.RelationSpec, 0, len(arity))
	for name, ar := range arity {
		rels = append(rels, execsim.RelationSpec{Name: name, Arity: ar})
	}
	sort.Slice(rels, func(i, j int) bool { return rels[i].Name < rels[j].Name })
	world := execsim.GenerateWorld(execsim.WorldConfig{
		Relations:         rels,
		TuplesPerRelation: 100,
		DomainSize:        15,
		Seed:              seed,
	})
	return execsim.PopulateSources(cat, world, 0.8, seed+1)
}

// shuffledVariant rewrites q with its body atoms in the given order and
// every variable renamed with suffix: the same canonical query in a
// different surface form.
func shuffledVariant(q *schema.Query, order []int, suffix string) string {
	r := q.Rename(suffix)
	body := make([]schema.Atom, len(order))
	for i, j := range order {
		body[i] = r.Body[j]
	}
	r.Body = body
	return r.String()
}

// permutations lists every ordering of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for i := 0; i <= len(p); i++ {
			q := append(append(append([]int{}, p[:i]...), n-1), p[i:]...)
			out = append(out, q)
		}
	}
	return out
}

// subChainQueries lists the fleet-mix query family over a chain of qlen
// relations and the world's constants c0..c{consts-1}: every 1-atom
// query with and without a constant, and every 2-atom sub-chain with no
// constant, a constant at one end, or constants at both ends.
func subChainQueries(qlen, consts int) []string {
	c := func(i int) string { return fmt.Sprintf("c%d", i) }
	var out []string
	for r := 0; r < qlen; r++ {
		out = append(out, fmt.Sprintf("Q(X, Y) :- rel%d(X, Y)", r))
		for i := 0; i < consts; i++ {
			out = append(out,
				fmt.Sprintf("Q(Y) :- rel%d(%s, Y)", r, c(i)),
				fmt.Sprintf("Q(X) :- rel%d(X, %s)", r, c(i)))
		}
	}
	for r := 0; r+1 < qlen; r++ {
		a, b := fmt.Sprintf("rel%d", r), fmt.Sprintf("rel%d", r+1)
		out = append(out, fmt.Sprintf("Q(X, Z) :- %s(X, Y), %s(Y, Z)", a, b))
		for i := 0; i < consts; i++ {
			out = append(out,
				fmt.Sprintf("Q(Z) :- %s(%s, Y), %s(Y, Z)", a, c(i), b),
				fmt.Sprintf("Q(X) :- %s(X, Y), %s(Y, %s)", a, b, c(i)))
			for j := 0; j < consts; j++ {
				out = append(out, fmt.Sprintf("Q(Y) :- %s(%s, Y), %s(Y, %s)", a, c(i), b, c(j)))
			}
		}
	}
	return out
}
