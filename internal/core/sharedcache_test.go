package core

import (
	"sync"
	"testing"

	"repro/internal/disambig"
	"repro/internal/wordnet"
)

// TestFrameworkSharedAcrossGoroutines drives one Framework from many
// goroutines processing distinct documents concurrently — the batch-server
// usage pattern — and checks results match a sequential run on the same
// corpus. Under -race this pins down the concurrency safety of the shared
// similarity/vector cache the workers all memoize into.
func TestFrameworkSharedAcrossGoroutines(t *testing.T) {
	fw, err := New(wordnet.Default(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	seq := corpusTrees(t, 10)
	conc := corpusTrees(t, 10)

	ref, err := New(wordnet.Default(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range seq {
		if _, err := ref.ProcessTree(tr); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, len(conc))
	for i := range conc {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = fw.ProcessTree(conc[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
	}
	for i := range seq {
		for j := 0; j < seq[i].Len(); j++ {
			if seq[i].Node(j).Sense != conc[i].Node(j).Sense {
				t.Fatalf("doc %d node %d: sequential %q, concurrent %q",
					i, j, seq[i].Node(j).Sense, conc[i].Node(j).Sense)
			}
		}
	}
}

// TestCacheStatsWarmReprocessing checks the framework-level observability
// hook: reprocessing identical documents must be served from the shared
// memos, and the counters must say so. Warm concept scoring ends in the
// max memo, so the warm pass adds max-memo hits and no miss at any layer
// (similarity, vector, max). Combined scoring exercises all three.
func TestCacheStatsWarmReprocessing(t *testing.T) {
	opts := DefaultOptions()
	opts.Disambiguation.Method = disambig.Combined
	fw, err := New(wordnet.Default(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.ProcessTrees(corpusTrees(t, 6), 3); err != nil {
		t.Fatal(err)
	}
	cold := fw.CacheStats()
	if cold.SimMisses == 0 || cold.VectorMisses == 0 || cold.MaxMisses == 0 {
		t.Fatalf("first pass should miss every memo: %+v", cold)
	}
	if _, err := fw.ProcessTrees(corpusTrees(t, 6), 3); err != nil {
		t.Fatal(err)
	}
	warm := fw.CacheStats()
	if warm.MaxHits <= cold.MaxHits {
		t.Error("reprocessing identical vocabulary should add max-memo hits")
	}
	if warm.SimMisses != cold.SimMisses || warm.VectorMisses != cold.VectorMisses ||
		warm.MaxMisses != cold.MaxMisses {
		t.Errorf("reprocessing identical documents should add no misses: cold %+v, warm %+v", cold, warm)
	}
	t.Logf("cold %+v warm %+v", cold, warm)
}
