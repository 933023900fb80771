package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"hjdes/internal/circuit"
)

// TestRegistryConcurrentAccess hammers the engine registry from many
// goroutines; run under -race this pins down the RWMutex guarantees of
// RegisterEngine / NewEngine / EngineNames. Every writer registers a
// distinct name: duplicate registration is a panic, not a replacement.
func TestRegistryConcurrentAccess(t *testing.T) {
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(3)
		go func(writer int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				RegisterEngine(fmt.Sprintf("scratch-%d-%d", writer, j), NewSequential)
			}
		}(i)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if _, err := NewEngine("seq", Options{}); err != nil {
					t.Errorf("NewEngine(seq): %v", err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if names := EngineNames(); len(names) == 0 {
					t.Error("EngineNames returned nothing")
					return
				}
			}
		}()
	}
	wg.Wait()

	// Registered names stay registered (the registry has no Unregister on
	// purpose) and must resolve.
	if _, err := NewEngine("scratch-0-0", Options{}); err != nil {
		t.Fatalf("registered scratch engine did not resolve: %v", err)
	}
	if _, err := NewEngine("no-such-engine", Options{}); err == nil {
		t.Fatal("unknown engine name resolved")
	}
}

// TestRegisterEngineDuplicatePanics is the shadowing regression: a
// second registration under an existing name — including any of the
// init-time built-ins — must panic instead of silently replacing the
// real engine. Pre-fix, the typo'd factory won and every later
// NewEngine("hj") quietly built the impostor.
func TestRegisterEngineDuplicatePanics(t *testing.T) {
	mustPanic := func(name string, f EngineFactory, wantSub string) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("RegisterEngine(%q) did not panic", name)
			}
			if msg := fmt.Sprint(r); !strings.Contains(msg, wantSub) {
				t.Fatalf("RegisterEngine(%q) panic %q, want it to mention %q", name, msg, wantSub)
			}
		}()
		RegisterEngine(name, f)
	}

	RegisterEngine("registry-dup-probe", NewSequential)
	mustPanic("registry-dup-probe", NewSequentialPQ, "already registered")
	// The built-in table is protected the same way.
	mustPanic("hj", NewSequential, "already registered")
	mustPanic("", NewSequential, "empty name")
	mustPanic("registry-nil-probe", nil, "nil factory")

	// The original registration survives the rejected duplicate.
	eng, err := NewEngine("registry-dup-probe", Options{})
	if err != nil {
		t.Fatalf("original registration lost: %v", err)
	}
	if eng.Name() != NewSequential(Options{}).Name() {
		t.Fatalf("duplicate registration replaced the original: got %q", eng.Name())
	}
}

// TestEngineNamesSorted is the regression test for the -engine help
// text shared by dessim and paperbench: the listing must be sorted,
// stable across calls, include every engine family the binaries
// document, and hand out a fresh copy each time (a caller mutating the
// returned slice must not corrupt the registry's view).
func TestEngineNamesSorted(t *testing.T) {
	names := EngineNames()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("EngineNames not sorted: %v", names)
	}
	for _, want := range []string{"seq", "hj", "lp", "lp-hj", "galois", "timewarp", "tw-hj"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("EngineNames missing %q: %v", want, names)
		}
	}
	names[0] = "zzz-mutated"
	again := EngineNames()
	if !sort.StringsAreSorted(again) {
		t.Fatalf("EngineNames affected by caller mutation: %v", again)
	}
	for _, n := range again {
		if n == "zzz-mutated" {
			t.Fatalf("EngineNames returned a shared slice: %v", again)
		}
	}
}

// TestLPAliasRunsLPHJ: the registry name "lp" builds the lp-hj engine,
// which names itself "lp-hj" (so VCD headers, Result.Engine and metrics
// name the code that ran) and matches the sequential oracle.
func TestLPAliasRunsLPHJ(t *testing.T) {
	c := circuit.KoggeStone(16)
	stim := circuit.RandomStimulus(c, 4, c.SettleTime()+10, 5)
	ref, err := NewSequential(Options{}).Run(c, stim)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine("lp", Options{Workers: 2, Partitions: 4, Paranoid: true})
	if err != nil {
		t.Fatal(err)
	}
	if e.Name() != "lp-hj" {
		t.Fatalf(`NewEngine("lp").Name() = %q, want "lp-hj"`, e.Name())
	}
	res, err := e.Run(c, stim)
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != "lp-hj" || res.LP.Partitions != 4 {
		t.Fatalf("Result.Engine = %q, partitions = %d; want lp-hj with 4", res.Engine, res.LP.Partitions)
	}
	if ok, diff := SameOutputs(ref, res); !ok {
		t.Fatalf("lp alias disagrees with seq: %s", diff)
	}
}
