package main

import (
	"strings"
	"testing"

	"qporder/internal/core"
	"qporder/internal/experiment"
	"qporder/internal/planspace"
	"qporder/internal/workload"
)

func TestCheckExactRejectsSwappedPlans(t *testing.T) {
	want := stream{Keys: []string{"a", "b", "c"}, Utils: []float64{3, 2, 1}, Answers: 7}
	if err := checkExact(want, want); err != nil {
		t.Fatalf("identical streams rejected: %v", err)
	}
	swapped := stream{Keys: []string{"a", "c", "b"}, Utils: []float64{3, 1, 2}, Answers: 7}
	if err := checkExact(swapped, want); err == nil {
		t.Fatal("a stream with two plans swapped was accepted")
	}
	short := stream{Keys: want.Keys, Utils: want.Utils, Answers: 6}
	if err := checkExact(short, want); err == nil {
		t.Fatal("a stream with a wrong answer total was accepted")
	}
}

func TestCheckRankedRejectsSwappedPlans(t *testing.T) {
	d := workload.Generate(workload.Config{QueryLen: 2, BucketSize: 6, Seed: 3})
	for _, mk := range []experiment.MeasureKey{experiment.MeasureCoverage, experiment.MeasureMonetary} {
		o, err := experiment.BuildOrderer(d, mk, experiment.AlgoStreamer)
		if err != nil {
			t.Fatal(err)
		}
		plans, utils := core.Take(o, 5)
		if err := checkRanked(d, mk, plans, utils); err != nil {
			t.Fatalf("%s: Streamer's own order rejected: %v", mk, err)
		}
		// Swap the first two plans of different utility.
		i := 0
		for i+1 < len(utils) && utilEqual(utils[i], utils[i+1]) {
			i++
		}
		if i+1 == len(utils) {
			t.Fatalf("%s: no two plans of different utility", mk)
		}
		sp := append([]*planspace.Plan(nil), plans...)
		su := append([]float64(nil), utils...)
		sp[i], sp[i+1] = sp[i+1], sp[i]
		su[i], su[i+1] = su[i+1], su[i]
		err = checkRanked(d, mk, sp, su)
		if err == nil || !strings.Contains(err.Error(), "best remaining plan") {
			t.Fatalf("%s: swapped plans %d and %d: got %v, want a rejection", mk, i+1, i+2, err)
		}
	}
}
