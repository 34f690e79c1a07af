package gem

import (
	"testing"
	"time"

	"gemsim/internal/sim"
)

// accessPage runs one page access for p and parks until it completes.
func accessPage(g *GEM, p *sim.Proc) {
	g.AccessPageFn(p.Continuation(), nil)
	p.Park()
}

func TestAccessTimes(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	g := New(env, DefaultParams())
	var pageAt, entryAt sim.Time
	env.Spawn("u", func(p *sim.Proc) {
		accessPage(g, p)
		pageAt = env.Now()
		g.AccessEntryFn(p.Continuation(), nil)
		p.Park()
		entryAt = env.Now()
	})
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if pageAt != 50*time.Microsecond {
		t.Fatalf("page access finished at %v, want 50µs", pageAt)
	}
	if entryAt != 52*time.Microsecond {
		t.Fatalf("entry access finished at %v, want 52µs", entryAt)
	}
	if g.PageAccesses() != 1 || g.EntryAccesses() != 1 {
		t.Fatalf("access counts %d/%d", g.PageAccesses(), g.EntryAccesses())
	}
}

func TestSingleServerQueueing(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	g := New(env, DefaultParams())
	var ends []sim.Time
	for i := 0; i < 3; i++ {
		env.Spawn("u", func(p *sim.Proc) {
			accessPage(g, p)
			ends = append(ends, env.Now())
		})
	}
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	want := []sim.Time{50 * time.Microsecond, 100 * time.Microsecond, 150 * time.Microsecond}
	for i, w := range want {
		if ends[i] != w {
			t.Fatalf("ends %v, want %v", ends, want)
		}
	}
}

func TestAccessEntriesCount(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	g := New(env, DefaultParams())
	var finAt, resumedAt sim.Time
	env.Spawn("u", func(p *sim.Proc) {
		g.AccessEntriesFn(p.Continuation(), 4, func() { finAt = env.Now() })
		p.Park()
		resumedAt = env.Now()
	})
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if g.EntryAccesses() != 4 {
		t.Fatalf("entry accesses %d, want 4", g.EntryAccesses())
	}
	if finAt != 8*time.Microsecond || resumedAt != 8*time.Microsecond {
		t.Fatalf("fin at %v, resumed at %v, want 8µs", finAt, resumedAt)
	}
}

func TestCallbackOnlyAccess(t *testing.T) {
	// A zero Continuation runs the access with no process to resume:
	// fin still fires once the server is released.
	env := sim.NewEnv()
	defer env.Stop()
	g := New(env, DefaultParams())
	var pageAt, entryAt sim.Time
	g.AccessPageFn(sim.Continuation{}, func() { pageAt = env.Now() })
	g.AccessEntryFn(sim.Continuation{}, func() { entryAt = env.Now() })
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if pageAt != 50*time.Microsecond || entryAt != 52*time.Microsecond {
		t.Fatalf("page done at %v, entry at %v, want 50µs and 52µs", pageAt, entryAt)
	}
}

func TestResetStats(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	g := New(env, DefaultParams())
	env.Spawn("u", func(p *sim.Proc) {
		accessPage(g, p)
		g.ResetStats()
		p.Wait(time.Millisecond)
	})
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if g.PageAccesses() != 0 {
		t.Fatalf("page accesses after reset %d", g.PageAccesses())
	}
	if u := g.Utilization(); u != 0 {
		t.Fatalf("utilization after reset %v", u)
	}
}

func TestDefaultServerFallback(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	g := New(env, Params{PageAccess: time.Microsecond, EntryAccess: time.Microsecond})
	env.Spawn("u", func(p *sim.Proc) { accessPage(g, p) })
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
}
