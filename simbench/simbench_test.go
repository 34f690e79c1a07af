package main

import (
	"bytes"
	"math"
	"os"
	"reflect"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"

	"gemsim/internal/core"
)

func TestAttributeInnermostModule(t *testing.T) {
	cases := []struct {
		name  string
		stack []string // leaf first
		want  string
	}{
		{
			name: "runtime frame under a module frame",
			stack: []string{
				"runtime.memmove", "runtime.growslice",
				"gemsim/internal/gem.(*MetaTable).Of",
				"gemsim/internal/node.(*Node).gemEntryOp.func1",
				"gemsim/internal/sim.(*Env).drain",
				"gemsim/internal/core.Run", "main.main", "runtime.main",
			},
			want: "gem",
		},
		{
			name: "GC assist under a module frame",
			stack: []string{
				"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc",
				"runtime.mallocgc", "gemsim/internal/storage.(*Group).Read", "runtime.goexit",
			},
			want: "storage",
		},
		{
			name:  "generic module function",
			stack: []string{"gemsim/internal/sim.(*ring[go.shape.int]).push", "runtime.goexit"},
			want:  "sim",
		},
		{
			name: "GC worker",
			stack: []string{
				"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2",
				"runtime.systemstack", "runtime.gcBgMarkWorker", "runtime.goexit",
			},
			want: layerGC,
		},
		{
			name:  "sweeper",
			stack: []string{"runtime.(*sweepLocked).sweep", "runtime.sweepone", "runtime.bgsweep", "runtime.goexit"},
			want:  layerGC,
		},
		{
			name: "scheduler only",
			stack: []string{
				"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm",
				"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall",
			},
			want: layerSched,
		},
		{name: "empty stack", stack: nil, want: layerSched},
	}
	for _, tc := range cases {
		if got := attribute(tc.stack); got != tc.want {
			t.Errorf("%s: attribute = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestModulesMatchInternal keeps the per-module metric list in step
// with the simulator's packages.
func TestModulesMatchInternal(t *testing.T) {
	entries, err := os.ReadDir("../internal")
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, e.Name())
		}
	}
	if !slices.Equal(dirs, modules) {
		t.Fatalf("internal packages %v, modules list %v", dirs, modules)
	}
}

func TestDecodeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	prof, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range prof.samples {
		if len(s.values) == 0 || s.values[0] <= 0 {
			t.Fatalf("sample without a positive count: %v", s.values)
		}
		for _, fn := range prof.stack(s) {
			found = found || strings.HasSuffix(fn, ".TestDecodeProfile")
		}
	}
	if !found {
		t.Fatalf("no goroutine stack holds TestDecodeProfile among %d samples", len(prof.samples))
	}
	if _, err := decodeProfile([]byte("not a profile")); err == nil {
		t.Fatal("decoding garbage succeeded")
	}
}

func TestSharesSumTo100(t *testing.T) {
	got := shares(map[string]float64{"sim": 3, "node": 1})
	if got["sim"] != 75 || got["node"] != 25 {
		t.Fatalf("shares = %v", got)
	}
	if len(shares(nil)) != 0 {
		t.Fatal("shares of nothing should be empty")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.95, 4.8}, {1, 5}} {
		if got := percentile(xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing should be NaN")
	}
}

// TestSimDigest checks that the digest ignores map iteration order
// and run order but sees every metric.
func TestSimDigest(t *testing.T) {
	mk := func(key string, commits int64, hits map[string]float64) cell {
		rep := &core.Report{}
		rep.Metrics.Commits = commits
		rep.Metrics.BufferHitRatio = hits
		return cell{key: key, rep: rep}
	}
	a := []cell{mk("x", 1, map[string]float64{"A": 0.5, "B": 0.25}), mk("y", 2, nil)}
	b := []cell{mk("y", 2, nil), mk("x", 1, map[string]float64{"B": 0.25, "A": 0.5})}
	if simDigest(a) != simDigest(b) {
		t.Fatal("digest depends on run or map order")
	}
	c := []cell{mk("x", 1, map[string]float64{"A": 0.5, "B": 0.26}), mk("y", 2, nil)}
	if simDigest(a) == simDigest(c) {
		t.Fatal("digest missed a changed map value")
	}
	var buf1, buf2 bytes.Buffer
	encodeValue(&buf1, reflect.ValueOf(a[0].rep.Metrics))
	encodeValue(&buf2, reflect.ValueOf(b[1].rep.Metrics))
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatal("encoding of equal Metrics differs")
	}
}
