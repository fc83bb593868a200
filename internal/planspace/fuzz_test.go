package planspace

import (
	"math/rand"
	"strings"
	"testing"

	"qporder/internal/abstraction"
	"qporder/internal/lav"
)

// fuzzID draws a source ID in 0..999 that mixes 1-, 2- and 3-digit IDs
// and often extends a previously drawn ID by a digit, so decimal
// renderings that are proper prefixes of one another ("4", "42", "421")
// are common.
func fuzzID(rng *rand.Rand, prev []lav.SourceID) lav.SourceID {
	if len(prev) > 0 && rng.Intn(3) == 0 {
		p := int(prev[rng.Intn(len(prev))])
		if p < 100 {
			return lav.SourceID(p*10 + rng.Intn(10))
		}
		return lav.SourceID(p / 10)
	}
	switch rng.Intn(3) {
	case 0:
		return lav.SourceID(rng.Intn(10))
	case 1:
		return lav.SourceID(10 + rng.Intn(90))
	}
	return lav.SourceID(100 + rng.Intn(900))
}

// fuzzPlans builds a random space of qlen buckets, abstracts it under
// two heuristics (distinct node objects, different groupings) and walks
// random Refine paths down from both roots, returning every plan met.
func fuzzPlans(rng *rand.Rand, qlen int) []*Plan {
	var seen []lav.SourceID
	buckets := make([][]lav.SourceID, qlen)
	for i := range buckets {
		in := make(map[lav.SourceID]bool)
		for w := 1 + rng.Intn(6); len(buckets[i]) < w; {
			id := fuzzID(rng, seen)
			if in[id] {
				continue
			}
			in[id] = true
			buckets[i] = append(buckets[i], id)
			seen = append(seen, id)
		}
	}
	s := NewSpace(buckets)
	perm := rng.Perm(1000)
	heurs := []abstraction.Heuristic{
		abstraction.ByID(),
		abstraction.ByKey("perm", func(_ int, id lav.SourceID) float64 { return float64(perm[id]) }),
	}
	var out []*Plan
	for _, h := range heurs {
		for walk := 0; walk < 3; walk++ {
			p := s.Root(h)
			out = append(out, p)
			for !p.Concrete() && rng.Intn(4) != 0 {
				kids := p.Refine()
				p = kids[rng.Intn(len(kids))]
				out = append(out, p)
			}
		}
	}
	return append(out, s.Enumerate()...)
}

// FuzzCompareKey checks that CompareKey orders plans exactly as
// strings.Compare on their keys, both before any key is built (the
// byte walk) and after (the cached-key path), including plans of
// different lengths.
func FuzzCompareKey(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42, 1234} {
		f.Add(seed, uint8(2), uint8(3))
	}
	f.Fuzz(func(t *testing.T, seed int64, qa, qb uint8) {
		rng := rand.New(rand.NewSource(seed))
		plans := append(fuzzPlans(rng, 1+int(qa%3)), fuzzPlans(rng, 1+int(qb%3))...)
		if len(plans) > 60 {
			plans = plans[:60]
		}
		got := make([][]int, len(plans))
		for i, a := range plans {
			got[i] = make([]int, len(plans))
			for j, b := range plans {
				got[i][j] = CompareKey(a, b)
			}
		}
		for i, a := range plans {
			for j, b := range plans {
				want := strings.Compare(a.Key(), b.Key())
				if got[i][j] != want {
					t.Fatalf("CompareKey(%q, %q) = %d before keys were built, want %d",
						a.Key(), b.Key(), got[i][j], want)
				}
				if c := CompareKey(a, b); c != want {
					t.Fatalf("CompareKey(%q, %q) = %d on cached keys, want %d", a.Key(), b.Key(), c, want)
				}
			}
		}
	})
}
