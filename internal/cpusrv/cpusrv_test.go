package cpusrv

import (
	"testing"
	"time"

	"gemsim/internal/sim"
)

func TestExecTiming(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	c := New(env, "cpu", 1, 10) // 10 MIPS
	var done sim.Time
	env.Spawn("u", func(p *sim.Proc) {
		c.Exec(p, 5000) // 5000 instructions at 10 MIPS = 500 µs
		done = env.Now()
	})
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if done != 500*time.Microsecond {
		t.Fatalf("exec finished at %v, want 500µs", done)
	}
	if c.Instructions() != 5000 {
		t.Fatalf("instructions %v", c.Instructions())
	}
}

func TestExecZeroIsFree(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	c := New(env, "cpu", 1, 10)
	env.Spawn("u", func(p *sim.Proc) {
		c.Exec(p, 0)
		c.Exec(p, -5)
	})
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if env.Now() != 0 {
		t.Fatalf("clock advanced to %v", env.Now())
	}
}

func TestMultiprocessorParallelism(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	c := New(env, "cpu", 4, 10)
	var last sim.Time
	for i := 0; i < 4; i++ {
		env.Spawn("u", func(p *sim.Proc) {
			c.Exec(p, 10000)
			last = env.Now()
		})
	}
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if last != time.Millisecond {
		t.Fatalf("4 parallel 1ms bursts finished at %v, want 1ms", last)
	}
}

func TestAcquireHoldKeepsCPUBusy(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	c := New(env, "cpu", 1, 10)
	var blockedUntil sim.Time
	env.Spawn("holder", func(p *sim.Proc) {
		cont := p.Continuation()
		c.AcquireFn(func() {
			c.HoldFn(1000, func() { // 100 µs
				cont.ResumeAfter(900*time.Microsecond, c.Release)
			})
		})
		p.Park()
	})
	env.Spawn("second", func(p *sim.Proc) {
		c.Exec(p, 1000)
		blockedUntil = env.Now()
	})
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	// Second must wait for the holder's full 1 ms occupancy then run
	// its own 100 µs.
	if blockedUntil != 1100*time.Microsecond {
		t.Fatalf("second finished at %v, want 1.1ms", blockedUntil)
	}
	if u := c.Utilization(); u < 0.99 {
		t.Fatalf("utilization %v, want ~1 (synchronous hold counts as busy)", u)
	}
}

func TestServiceTime(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	c := New(env, "cpu", 1, 10)
	if got := c.ServiceTime(250000); got != 25*time.Millisecond {
		t.Fatalf("250k instructions at 10 MIPS = %v, want 25ms", got)
	}
}

func TestResetStats(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	c := New(env, "cpu", 1, 10)
	env.Spawn("u", func(p *sim.Proc) {
		c.Exec(p, 10000)
		c.ResetStats()
		p.Wait(time.Millisecond)
	})
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if c.Instructions() != 0 || c.Utilization() != 0 {
		t.Fatal("reset failed")
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(env, "cpu", 0, 10)
}
