package main

import (
	"reflect"
	"testing"
	"time"
)

// TestSeedDeterminesInputs checks that the seed alone fixes every generated
// input, and that it changes the seeds and order but not the composition.
func TestSeedDeterminesInputs(t *testing.T) {
	in1, order1 := runInputs(5)
	in2, order2 := runInputs(5)
	if !reflect.DeepEqual(in1, in2) || !reflect.DeepEqual(order1, order2) {
		t.Fatal("run inputs differ for the same seed")
	}
	in3, order3 := runInputs(6)
	if reflect.DeepEqual(order1, order3) {
		t.Error("seeds 5 and 6 give the same rotation order")
	}
	for i := range in1 {
		if in1[i].spec.Name != in3[i].spec.Name {
			t.Errorf("input %d runs %s at seed 5 but %s at seed 6", i, in1[i].spec.Name, in3[i].spec.Name)
		}
		if in1[i].cfg.Seed == in3[i].cfg.Seed {
			t.Errorf("input %d has PLL seed %d at both seeds", i, in1[i].cfg.Seed)
		}
	}

	if !reflect.DeepEqual(warmSet(5, 1000), warmSet(5, 1000)) {
		t.Error("warm set differs for the same seed")
	}
	if reflect.DeepEqual(warmSet(5, 1000), warmSet(6, 1000)) {
		t.Error("seeds 5 and 6 give the same warm set")
	}
	warmSeed := warmSet(5, 1000)[0].Seed
	seen := map[int64]bool{}
	for k := int64(0); k < 100; k++ {
		c := coldRequest(5, 1000, k)
		if c != coldRequest(5, 1000, k) {
			t.Fatal("cold request differs for the same seed")
		}
		if seen[c.Seed] || c.Seed <= warmSeed {
			t.Fatalf("cold request %d reuses seed %d", k, c.Seed)
		}
		seen[c.Seed] = true
	}
	if coldRequest(5, 1000, 0) == coldRequest(6, 1000, 0) {
		t.Error("seeds 5 and 6 give the same cold requests")
	}

	p := newParams(5, time.Second, t.TempDir(), smokeSizes)
	s1, _ := newSweepBench(p, p.sweepStride)
	defer s1.close()
	s2, _ := newSweepBench(p, p.sweepStride)
	defer s2.close()
	if s1.opts.Seed != s2.opts.Seed || !reflect.DeepEqual(s1.cfgs, s2.cfgs) {
		t.Error("sweep inputs differ for the same seed")
	}
}
