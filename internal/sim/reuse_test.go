package sim

import (
	"runtime"
	"testing"
	"time"
)

// A finished process's handle stays finished after its worker goroutine
// runs another process: Done stays true, and Unpark through the stale
// handle neither wakes the new process nor moves its clock.
func TestReusedWorkerKeepsStaleHandleInert(t *testing.T) {
	env := NewEnv()
	defer env.Stop()
	a := env.Spawn("a", func(p *Proc) { p.Wait(time.Millisecond) })
	var b *Proc
	var woke, slept Time
	env.After(2*time.Millisecond, func() {
		b = env.Spawn("b", func(p *Proc) {
			p.Park()
			woke = env.Now()
			p.Wait(10 * time.Millisecond)
			slept = env.Now()
		})
	})
	env.After(3*time.Millisecond, func() { a.Unpark() }) // b is parked
	env.After(4*time.Millisecond, func() { b.Unpark() })
	env.After(6*time.Millisecond, func() { a.Unpark() }) // b is waiting
	if err := env.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if b.w != a.w {
		t.Fatal("b did not reuse a's idle worker")
	}
	if got := env.KernelStats(); got.Spawns != 2 || got.Goroutines != 1 {
		t.Fatalf("stats %+v, want 2 spawns on 1 goroutine", got)
	}
	if !a.Done() || !b.Done() {
		t.Fatalf("done: a %v, b %v", a.Done(), b.Done())
	}
	if woke != 4*time.Millisecond {
		t.Fatalf("b woke at %v, want 4ms", woke)
	}
	if slept != 14*time.Millisecond {
		t.Fatalf("b's wait ended at %v, want 14ms", slept)
	}
}

// A steady-state spawn→wait→finish cycle reuses one worker goroutine
// and allocates only the Proc.
func TestSpawnCycleReusesWorker(t *testing.T) {
	env := NewEnv()
	defer env.Stop()
	body := func(p *Proc) { p.Wait(time.Microsecond) }
	cycle := func() {
		env.Spawn("w", body)
		if err := env.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // start the worker and warm the pools
	if n := testing.AllocsPerRun(200, cycle); n > 1 {
		t.Fatalf("spawn cycle allocates %.1f/op, want at most 1", n)
	}

	before := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		cycle()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines grew from %d to %d over 1000 spawn cycles", before, after)
	}
	if got := env.KernelStats().Goroutines; got != 1 {
		t.Fatalf("%d worker goroutines started, want 1", got)
	}
}
