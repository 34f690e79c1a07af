package netsim

import (
	"testing"
	"time"

	"gemsim/internal/cpusrv"
	"gemsim/internal/gem"
	"gemsim/internal/rng"
	"gemsim/internal/sim"
)

// harness wires two single-CPU nodes with recording handlers.
func harness(t *testing.T, params Params) (*sim.Env, *Network, []*cpusrv.CPU, *[]string) {
	t.Helper()
	env := sim.NewEnv()
	n := New(env, params, 2)
	cpus := []*cpusrv.CPU{
		cpusrv.New(env, "cpu0", 1, 10),
		cpusrv.New(env, "cpu1", 1, 10),
	}
	var delivered []string
	for i := 0; i < 2; i++ {
		i := i
		n.Register(i, cpus[i], func(p *sim.Proc, from int, msg any) {
			s, _ := msg.(string)
			delivered = append(delivered, s)
			_ = from
			_ = i
		})
	}
	return env, n, cpus, &delivered
}

func TestShortMessageTiming(t *testing.T) {
	env, n, _, delivered := harness(t, DefaultParams())
	defer env.Stop()
	var done sim.Time
	env.Spawn("sender", func(p *sim.Proc) {
		n.Send(p, 0, 1, Short, "hello")
	})
	env.After(10*time.Second, func() {}) // keep calendar alive
	if err := env.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(*delivered) != 1 || (*delivered)[0] != "hello" {
		t.Fatalf("delivered %v", *delivered)
	}
	// Timing: send CPU 5000 instr @10 MIPS = 500 µs; transit 100 B /
	// 10 MB/s = 10 µs; recv CPU 500 µs; handler runs at 1010 µs + recv.
	done = env.Now()
	_ = done
	if n.ShortSent() != 1 || n.LongSent() != 0 {
		t.Fatalf("counts %d/%d", n.ShortSent(), n.LongSent())
	}
}

func TestMessageDeliveryDelay(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	n := New(env, DefaultParams(), 2)
	cpu0 := cpusrv.New(env, "cpu0", 1, 10)
	cpu1 := cpusrv.New(env, "cpu1", 1, 10)
	var handlerAt sim.Time
	n.Register(0, cpu0, func(p *sim.Proc, from int, msg any) {})
	n.Register(1, cpu1, func(p *sim.Proc, from int, msg any) { handlerAt = env.Now() })
	env.Spawn("sender", func(p *sim.Proc) { n.Send(p, 0, 1, Short, 1) })
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	// 500 µs send + 10 µs transit + 500 µs receive = 1010 µs.
	want := 1010 * time.Microsecond
	if handlerAt != want {
		t.Fatalf("handler at %v, want %v", handlerAt, want)
	}
}

func TestLongMessageDelay(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	n := New(env, DefaultParams(), 2)
	cpu0 := cpusrv.New(env, "cpu0", 1, 10)
	cpu1 := cpusrv.New(env, "cpu1", 1, 10)
	var handlerAt sim.Time
	n.Register(0, cpu0, func(p *sim.Proc, from int, msg any) {})
	n.Register(1, cpu1, func(p *sim.Proc, from int, msg any) { handlerAt = env.Now() })
	env.Spawn("sender", func(p *sim.Proc) { n.Send(p, 0, 1, Long, 1) })
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	// 800 µs send + 409.6 µs transit + 800 µs receive = 2009.6 µs.
	want := 800*time.Microsecond + time.Duration(4096.0/10e6*1e9) + 800*time.Microsecond
	if diff := handlerAt - want; diff < -time.Microsecond || diff > time.Microsecond {
		t.Fatalf("handler at %v, want ~%v", handlerAt, want)
	}
	if n.LongSent() != 1 {
		t.Fatalf("long count %d", n.LongSent())
	}
}

func TestSenderChargedInline(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	n := New(env, DefaultParams(), 2)
	cpu0 := cpusrv.New(env, "cpu0", 1, 10)
	cpu1 := cpusrv.New(env, "cpu1", 1, 10)
	n.Register(0, cpu0, func(p *sim.Proc, from int, msg any) {})
	n.Register(1, cpu1, func(p *sim.Proc, from int, msg any) {})
	var sendDone sim.Time
	env.Spawn("sender", func(p *sim.Proc) {
		n.Send(p, 0, 1, Short, 1)
		sendDone = env.Now()
	})
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if sendDone != 500*time.Microsecond {
		t.Fatalf("send returned at %v, want 500µs (send overhead only)", sendDone)
	}
}

func TestWireLatencyAdds(t *testing.T) {
	params := DefaultParams()
	params.WireLatency = 3 * time.Millisecond
	env := sim.NewEnv()
	defer env.Stop()
	n := New(env, params, 2)
	cpu0 := cpusrv.New(env, "cpu0", 1, 10)
	cpu1 := cpusrv.New(env, "cpu1", 1, 10)
	var handlerAt sim.Time
	n.Register(0, cpu0, func(p *sim.Proc, from int, msg any) {})
	n.Register(1, cpu1, func(p *sim.Proc, from int, msg any) { handlerAt = env.Now() })
	env.Spawn("sender", func(p *sim.Proc) { n.Send(p, 0, 1, Short, 1) })
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if handlerAt != 4010*time.Microsecond {
		t.Fatalf("handler at %v, want 4010µs with wire latency", handlerAt)
	}
}

func TestResetStats(t *testing.T) {
	env, n, _, _ := harness(t, DefaultParams())
	defer env.Stop()
	env.Spawn("sender", func(p *sim.Proc) {
		n.Send(p, 0, 1, Short, "x")
		n.Send(p, 0, 1, Long, "y")
	})
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	n.ResetStats()
	if n.ShortSent() != 0 || n.LongSent() != 0 {
		t.Fatal("reset failed")
	}
}

func TestClassString(t *testing.T) {
	if Short.String() != "short" || Long.String() != "long" {
		t.Fatal("class strings")
	}
}

func TestMessageLossDropsUnreliableOnly(t *testing.T) {
	params := DefaultParams()
	params.LossProb = 1 // Float64() < 1 always: every unreliable message is lost
	env, n, _, delivered := harness(t, params)
	defer env.Stop()
	n.SetLossSource(rng.New(1).Split("loss"))
	env.Spawn("sender", func(p *sim.Proc) {
		n.Send(p, 0, 1, Short, "lost")
		n.SendReliable(p, 0, 1, Short, "kept")
	})
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(*delivered) != 1 || (*delivered)[0] != "kept" {
		t.Fatalf("delivered %v, want only the reliable message", *delivered)
	}
	if n.Dropped() != 1 {
		t.Fatalf("dropped %d, want 1", n.Dropped())
	}
}

func TestLossProbNeedsSource(t *testing.T) {
	// Without a loss source the probability is ignored: fault-free runs
	// never pay for (or depend on) the loss draw.
	params := DefaultParams()
	params.LossProb = 1
	env, n, _, delivered := harness(t, params)
	defer env.Stop()
	env.Spawn("sender", func(p *sim.Proc) { n.Send(p, 0, 1, Short, "x") })
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(*delivered) != 1 {
		t.Fatalf("delivered %v, want 1 message", *delivered)
	}
}

func TestDownReceiverDropsAtDelivery(t *testing.T) {
	env, n, _, delivered := harness(t, DefaultParams())
	defer env.Stop()
	down := map[int]bool{1: true}
	n.SetDownCheck(func(node int) bool { return down[node] })
	env.Spawn("sender", func(p *sim.Proc) {
		n.Send(p, 0, 1, Short, "to-down")
		n.Send(p, 1, 0, Short, "from-down-ok")
	})
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	// Only the receiver is checked: a message TO the down node vanishes,
	// a message FROM it (sent before the crash took effect) arrives.
	if len(*delivered) != 1 || (*delivered)[0] != "from-down-ok" {
		t.Fatalf("delivered %v, want only from-down-ok", *delivered)
	}
	if n.Dropped() != 1 {
		t.Fatalf("dropped %d, want 1", n.Dropped())
	}
}

// storeNet wires two single-CPU nodes that exchange messages through
// a GEM device (1000/1500 instructions per short/long store operation,
// i.e. 100/150 µs at 10 MIPS; 2 µs entry and 50 µs page accesses).
// Node 0 ignores messages; node 1 runs h.
func storeNet(env *sim.Env, h Handler) (*Network, *gem.GEM, []*cpusrv.CPU) {
	n := New(env, DefaultParams(), 2)
	g := gem.New(env, gem.DefaultParams())
	n.UseStore(&StoreTransport{Store: g, ShortInstr: 1000, LongInstr: 1500})
	cpus := []*cpusrv.CPU{
		cpusrv.New(env, "cpu0", 1, 10),
		cpusrv.New(env, "cpu1", 1, 10),
	}
	n.Register(0, cpus[0], func(p *sim.Proc, from int, msg any) {})
	n.Register(1, cpus[1], h)
	return n, g, cpus
}

func TestStoreTransportShort(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	var handlerAt sim.Time
	n, g, _ := storeNet(env, func(p *sim.Proc, from int, msg any) { handlerAt = env.Now() })
	env.Spawn("sender", func(p *sim.Proc) { n.Send(p, 0, 1, Short, 1) })
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	// Sender: 100 µs CPU + 2 µs entry; receiver the same; no wire
	// delay.
	want := 2 * (100 + 2) * time.Microsecond
	if handlerAt != want {
		t.Fatalf("handler at %v, want %v", handlerAt, want)
	}
	if g.EntryAccesses() != 2 {
		t.Fatalf("entry accesses %d, want 2", g.EntryAccesses())
	}
	if n.ShortSent() != 1 {
		t.Fatalf("short count %d", n.ShortSent())
	}
}

func TestStoreTransportLongUsesPageAccess(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	n, g, _ := storeNet(env, func(p *sim.Proc, from int, msg any) {})
	env.Spawn("sender", func(p *sim.Proc) { n.Send(p, 0, 1, Long, 1) })
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if g.PageAccesses() != 2 {
		t.Fatalf("page accesses %d, want 2", g.PageAccesses())
	}
}

func TestStoreTransportFasterThanNetwork(t *testing.T) {
	run := func(useStore bool) sim.Time {
		env := sim.NewEnv()
		defer env.Stop()
		var at sim.Time
		n, _, _ := storeNet(env, func(p *sim.Proc, from int, msg any) { at = env.Now() })
		if !useStore {
			n.UseStore(nil) // back to message passing
		}
		env.Spawn("sender", func(p *sim.Proc) { n.Send(p, 0, 1, Short, 1) })
		if err := env.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
		return at
	}
	net, store := run(false), run(true)
	if store >= net {
		t.Fatalf("store transport (%v) must beat the network (%v)", store, net)
	}
}

// TestStoreTransportReceiverQueues pins the queued hand-off on the
// receive path: a message that arrives while the receiver's only CPU
// is busy waits for it, then holds it for the pickup burst and the
// store access.
func TestStoreTransportReceiverQueues(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	var handlerAt sim.Time
	var handlerProc *sim.Proc
	n, g, cpus := storeNet(env, func(p *sim.Proc, from int, msg any) {
		handlerAt, handlerProc = env.Now(), p
	})
	// Node 1 is busy for 500 µs from time zero; the message is
	// deposited at 102 µs.
	env.Spawn("busy", func(p *sim.Proc) { cpus[1].Exec(p, 5000) })
	env.Spawn("sender", func(p *sim.Proc) { n.Send(p, 0, 1, Short, 1) })
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if handlerProc == nil {
		t.Fatal("non-inline message must be handled in a process")
	}
	// Pickup starts when the CPU frees at 500 µs: 100 µs burst, 2 µs
	// entry.
	if want := 602 * time.Microsecond; handlerAt != want {
		t.Fatalf("handler at %v, want %v", handlerAt, want)
	}
	if w := cpus[1].MeanWait(); w != (500-102)*time.Microsecond/2 {
		t.Fatalf("receiver mean CPU wait %v, want 199µs (one 398µs wait over two requests)", w)
	}
	if g.EntryAccesses() != 2 {
		t.Fatalf("entry accesses %d, want 2", g.EntryAccesses())
	}
}

// TestStoreTransportInlinePickup checks the callback-tier pickup: an
// inline message is read out of the store and handled with no process,
// on the same timeline as a process pickup.
func TestStoreTransportInlinePickup(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	calls := 0
	var handlerAt sim.Time
	n, g, _ := storeNet(env, func(p *sim.Proc, from int, msg any) {
		if p != nil {
			t.Error("inline handler must run without a process")
		}
		calls++
		handlerAt = env.Now()
	})
	n.RegisterInline(1, func(msg any) bool { return true })
	env.Spawn("sender", func(p *sim.Proc) { n.Send(p, 0, 1, Long, 1) })
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("handler ran %d times, want 1", calls)
	}
	// Sender and receiver: 150 µs CPU + 50 µs page access each.
	if want := 2 * (150 + 50) * time.Microsecond; handlerAt != want {
		t.Fatalf("handler at %v, want %v", handlerAt, want)
	}
	if g.PageAccesses() != 2 {
		t.Fatalf("page accesses %d, want 2", g.PageAccesses())
	}
}
