// Package sim implements a discrete event simulation kernel in the
// style of DeNet [Li89], the simulation language used by the original
// study, with a two-tier execution model.
//
// Tier 1 — callback events — runs in kernel context: a scheduled
// function fires at its calendar slot and must not block. Memoryless
// work (service completions, queue hand-offs, message deliveries) lives
// here; it costs one pooled calendar entry and a function call. The
// entry points are Env.After/Env.At, Timer, and Resource, whose
// service stations run on this tier only (AcquireFn, Request,
// RequestResume; Use is RequestResume plus a park).
//
// Tier 2 — processes — are goroutines for model code that genuinely
// blocks with state (transaction logic, recovery sequences). Exactly one
// goroutine holds control at any instant, so model code needs no
// locking and runs deterministically. The event loop itself runs on
// whichever goroutine holds control: a parking process pops events
// until one resumes a process, then passes control straight to that
// process's goroutine over one unbuffered channel (or keeps it, if the
// resumed process is itself). Processes run on a pool of reused worker
// goroutines, so a spawn starts a goroutine only when no worker is idle.
//
// Both tiers share one event calendar ordered by (at, seq) with ties
// broken by insertion order, so mixing them preserves determinism. A
// single event may carry both a callback and a process resume: the
// callback runs first, then the process resumes — within the same
// calendar slot. Service chains use this to do their completion
// bookkeeping and unpark the waiting transaction process exactly once,
// instead of bouncing through helper processes.
//
// The process-tier primitives are Spawn to create a process, Proc.Wait
// to let simulated time pass, Semaphore for counted admission control,
// and Park/Unpark for building condition-style waits (lock tables,
// page transfers). A process that needs a queueing station hands the
// station a Continuation and parks once for the whole service chain.
package sim

import (
	"fmt"
	"runtime/debug"
	"sort"
	"time"
)

// Time is a point in simulated time, measured from the start of the run.
type Time = time.Duration

// event kinds. Hot Tier-1 paths (service completions, queue hand-offs,
// timer fires) are encoded as kinds on the pooled event record instead
// of per-call closures, so a steady-state service cycle allocates
// nothing: the record carries the target Resource or Timer directly
// and dispatch switches on the kind.
const (
	evFn       uint8 = iota // run fn, then resume proc (the general event)
	evComplete              // service completion: res.Release(), then fn, then proc
	evHandoff               // server hand-off: serve the head of res.handq
	evTimer                 // timer fire: run timer.fn if still armed at gen
)

// event is a scheduled occurrence: run a kernel-context callback (which
// must not block), resume a parked process, or both — the callback
// first, then the resume, within one calendar slot.
type event struct {
	at    Time
	seq   int64
	proc  *Proc
	gen   int64 // proc generation (or timer generation for evTimer)
	fn    func()
	res   *Resource // evComplete / evHandoff target
	timer *Timer    // evTimer target
	kind  uint8
}

// Env is a simulation environment: an event calendar, a clock and the
// set of live processes. Its state is touched only by the goroutine
// that holds control — the Run caller or the running process — and
// control passes between goroutines by channel operations, so an Env
// needs no locking. Model code runs inside processes spawned on it.
type Env struct {
	now        Time
	seq        int64
	events     calendar
	free       []*event // recycled event records
	dispatched int64
	live       map[*Proc]struct{}
	idle       []*worker     // workers whose process finished, LIFO
	ret        chan struct{} // control back to the Run or Stop caller
	until      Time          // horizon of the current Run
	bounded    bool          // false under RunUntilIdle
	stopping   bool
	panicked   any
	stats      KernelStats
}

// KernelStats counts the kernel's own work on the process tier. Like
// Dispatched, the counts are deterministic: identical runs count
// identical work.
type KernelStats struct {
	Spawns     int64 // processes created
	Goroutines int64 // worker goroutines started; the other spawns reused an idle worker
	Resumes    int64 // process resumes, each process's start included
	Switches   int64 // hand-offs of control from one goroutine to another
}

// Sub returns the counts accumulated since an earlier snapshot b.
func (s KernelStats) Sub(b KernelStats) KernelStats {
	return KernelStats{
		Spawns:     s.Spawns - b.Spawns,
		Goroutines: s.Goroutines - b.Goroutines,
		Resumes:    s.Resumes - b.Resumes,
		Switches:   s.Switches - b.Switches,
	}
}

// NewEnv returns an empty simulation environment at time zero.
func NewEnv() *Env {
	return &Env{
		live: make(map[*Proc]struct{}),
		ret:  make(chan struct{}),
	}
}

// Now returns the current simulated time.
func (e *Env) Now() Time { return e.now }

// Pending reports the number of scheduled events.
func (e *Env) Pending() int { return e.events.total() }

// Dispatched reports the total number of events dispatched since the
// environment was created. It is a deterministic kernel-work measure:
// identical runs dispatch identical event counts.
func (e *Env) Dispatched() int64 { return e.dispatched }

// KernelStats reports the process-tier work counted since the
// environment was created.
func (e *Env) KernelStats() KernelStats { return e.stats }

// LiveCount reports the number of live (spawned, not yet finished)
// processes.
func (e *Env) LiveCount() int { return len(e.live) }

// Stalled reports whether the simulation can make no further progress
// while processes are still alive: the event calendar is empty but live
// processes remain, all of them parked with nothing scheduled to wake
// them (e.g. waiters on a lock that is never released).
func (e *Env) Stalled() bool {
	return e.events.total() == 0 && len(e.live) > 0
}

// LiveNames returns the names of live processes, deduplicated with
// counts ("txn x12") and sorted, for stall diagnostics. At most max
// distinct names are returned (0 means all).
func (e *Env) LiveNames(max int) []string {
	counts := make(map[string]int)
	for p := range e.live {
		counts[p.name]++
	}
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	if max > 0 && len(names) > max {
		names = names[:max]
	}
	for i, n := range names {
		if c := counts[n]; c > 1 {
			names[i] = fmt.Sprintf("%s x%d", n, c)
		}
	}
	return names
}

// schedule enqueues an event at absolute time at (>= now).
func (e *Env) schedule(at Time, p *Proc, fn func()) *event {
	if at < e.now {
		at = e.now
	}
	e.seq++
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.at, ev.seq, ev.proc, ev.gen, ev.fn = at, e.seq, p, 0, fn
	} else {
		ev = &event{at: at, seq: e.seq, proc: p, fn: fn}
	}
	if p != nil {
		ev.gen = p.gen
	}
	e.events.insert(ev)
	return ev
}

// freeEventSlack bounds the event pool above the pending-event count:
// the pool may hold one spare record per pending event plus this much
// slack, so steady state never allocates while a one-off burst does
// not pin its peak in memory forever.
const freeEventSlack = 4096

// recycle returns a dispatched event record to the free list.
func (e *Env) recycle(ev *event) {
	if len(e.free) >= e.events.total()+freeEventSlack {
		return
	}
	ev.proc = nil
	ev.fn = nil
	ev.res = nil
	ev.timer = nil
	ev.kind = evFn
	e.free = append(e.free, ev)
}

// After schedules fn to run in kernel context after delay d. fn must not
// call blocking process primitives.
func (e *Env) After(d Time, fn func()) {
	e.schedule(e.now+d, nil, fn)
}

// At schedules fn to run in kernel context at absolute time at (clamped
// to now when in the past). fn must not call blocking process
// primitives.
func (e *Env) At(at Time, fn func()) {
	e.schedule(at, nil, fn)
}

// stopSignal is panicked inside a process to unwind it during Stop.
type stopSignal struct{}

// Proc is a simulation process. All blocking primitives must be called
// by the process itself (from the function passed to Spawn). Every
// spawn creates a fresh Proc even when its worker goroutine is reused,
// so a handle to a finished process stays Done and ignores Unpark.
type Proc struct {
	env     *Env
	name    string
	w       *worker // the goroutine running this process
	gen     int64   // incremented at every resume; stale wake events are dropped
	done    bool
	traceID int64 // transaction id for the trace layer; 0 outside transactions
}

// worker is a goroutine that runs processes one after another. Between
// processes it sits in Env.idle.
type worker struct {
	wake chan bool   // control hand-off; true asks the worker to unwind
	proc *Proc       // the process the worker runs next
	fn   func(*Proc) // its body
}

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Done reports whether the process function has returned.
func (p *Proc) Done() bool { return p.done }

// SetTraceID tags the process with the transaction id it is currently
// executing, so device models can attribute trace spans to it. Zero
// means no transaction context.
func (p *Proc) SetTraceID(id int64) { p.traceID = id }

// TraceID returns the transaction id set by SetTraceID, or zero.
func (p *Proc) TraceID() int64 { return p.traceID }

// Spawn creates a new process executing fn and schedules it to start at
// the current simulated time.
func (e *Env) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.SpawnAfter(0, name, fn)
}

// SpawnAfter creates a new process executing fn, starting after delay
// d. The process runs on an idle worker goroutine if there is one.
func (e *Env) SpawnAfter(d Time, name string, fn func(p *Proc)) *Proc {
	var w *worker
	if n := len(e.idle); n > 0 {
		w = e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
	} else {
		w = &worker{wake: make(chan bool)}
		e.stats.Goroutines++
		go e.work(w)
	}
	p := &Proc{env: e, name: name, w: w}
	w.proc, w.fn = p, fn
	e.stats.Spawns++
	e.live[p] = struct{}{}
	e.schedule(e.now+d, p, nil)
	return p
}

// work is the body of a worker goroutine. Each wake starts the
// worker's assigned process. When that process returns, the worker
// joins the idle list and runs the event loop itself: it continues in
// place if the loop starts the process a spawn just gave it, and
// otherwise hands control on and waits for its next wake.
func (e *Env) work(w *worker) {
	for !<-w.wake {
		for {
			w.proc.run(w.fn)
			w.proc, w.fn = nil, nil
			if e.stopping {
				e.ret <- struct{}{}
				return
			}
			e.idle = append(e.idle, w)
			next := e.loop()
			if next == nil || next.w != w {
				e.handOff(next)
				break
			}
		}
	}
	e.ret <- struct{}{} // acknowledge Stop
}

// run executes the process body, turning a panic into the Env's error.
func (p *Proc) run(fn func(p *Proc)) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(stopSignal); !ok {
				p.env.panicked = fmt.Sprintf("process %q: %v", p.name, r)
			}
		}
		p.done = true
		delete(p.env.live, p)
	}()
	fn(p)
}

// park blocks the calling process until the kernel resumes it. The
// process runs the event loop itself; if the loop resumes the process
// it returns without a goroutine switch.
func (p *Proc) park() {
	e := p.env
	next := e.loop()
	if next == p {
		return
	}
	e.handOff(next)
	if <-p.w.wake {
		panic(stopSignal{})
	}
}

// handOff passes control to p's worker, or back to the Run caller when
// p is nil. The caller must not touch Env state afterwards until
// control comes back to it.
func (e *Env) handOff(p *Proc) {
	e.stats.Switches++
	if p == nil {
		e.ret <- struct{}{}
		return
	}
	p.w.wake <- false
}

// Park blocks the calling process until another process or a kernel
// callback calls Unpark on it. It is the building block for condition
// waits (lock queues, page-transfer waits).
func (p *Proc) Park() { p.park() }

// Unpark schedules p to resume at the current simulated time. It must
// only be called for a process that is parked (or about to park within
// the same instant); the kernel delivers the resume after the caller
// yields, so "unpark then park" races cannot occur within one instant
// as long as the parking process parks before yielding control.
func (p *Proc) Unpark() {
	p.env.schedule(p.env.now, p, nil)
}

// UnparkAfter schedules p to resume after delay d.
func (p *Proc) UnparkAfter(d Time) {
	p.env.schedule(p.env.now+d, p, nil)
}

// Wait suspends the calling process for duration d of simulated time.
func (p *Proc) Wait(d Time) {
	p.env.schedule(p.env.now+d, p, nil)
	p.park()
}

// Continuation is a handle for resuming a parked process from a
// callback-tier service chain acting on its behalf. It pins the
// process's generation at creation time: if the process is killed and
// moves on while the chain is still in flight, the chain's final
// resume is dropped as stale instead of waking the process in whatever
// it is doing now — but the chain's bookkeeping callbacks still run,
// so stations are released exactly once.
type Continuation struct {
	p   *Proc
	gen int64
}

// Continuation captures the calling process's current generation. Take
// it before parking, then hand it to the service chain.
func (p *Proc) Continuation() Continuation {
	return Continuation{p: p, gen: p.gen}
}

// Proc returns the process the continuation belongs to.
func (c Continuation) Proc() *Proc { return c.p }

// TraceID returns the pinned process's current transaction id, or
// zero for a zero Continuation (a chain with no process to resume).
func (c Continuation) TraceID() int64 {
	if c.p == nil {
		return 0
	}
	return c.p.traceID
}

// ResumeAfter schedules a combined event after delay d: fn runs in
// kernel context and then the process resumes — both within the same
// calendar slot, exactly where a plain Wait(d) resume would have
// fired. It is the terminator of callback-tier service chains: the
// final completion does its bookkeeping in fn and hands control back
// to the parked process without an extra calendar hop.
func (c Continuation) ResumeAfter(d Time, fn func()) {
	env := c.p.env
	ev := env.schedule(env.now+d, c.p, fn)
	ev.gen = c.gen
}

// Run advances the simulation until the event calendar is empty or the
// clock would pass until. Events scheduled exactly at until still run.
// It returns an error if a process or a kernel callback panicked.
func (e *Env) Run(until Time) error {
	if err := e.drain(until, true); err != nil {
		return err
	}
	if e.now < until {
		e.now = until
	}
	return nil
}

// RunUntilIdle advances the simulation until no events remain.
func (e *Env) RunUntilIdle() error {
	return e.drain(0, false)
}

// drain runs the event loop from the Run caller. If the loop resumes a
// process, control travels from goroutine to goroutine until some loop
// stops and hands it back. When bounded, events past until stay queued.
func (e *Env) drain(until Time, bounded bool) error {
	e.until, e.bounded = until, bounded
	if next := e.loop(); next != nil {
		e.handOff(next)
		<-e.ret
	}
	if e.panicked != nil {
		return fmt.Errorf("sim: %v", e.panicked)
	}
	return nil
}

// loop is the single event-extraction site. It runs on whichever
// goroutine holds control: pop the minimum (at, seq) event, advance the
// clock, dispatch, recycle — until an event resumes a process, which it
// returns. It returns nil when the calendar empties, the next event
// lies past the horizon, or a panic was recorded. A panicking callback
// is recovered here, whichever goroutine runs the loop, and becomes
// Run's error.
func (e *Env) loop() (next *Proc) {
	defer func() {
		if r := recover(); r != nil {
			e.panicked = fmt.Sprintf("kernel callback at %v: %v\n%s", e.now, r, debug.Stack())
			next = nil
		}
	}()
	for e.panicked == nil {
		ev := e.events.pop(e.until, e.bounded)
		if ev == nil {
			return nil
		}
		e.now = ev.at
		e.dispatched++
		next = e.dispatch(ev)
		e.recycle(ev)
		if next != nil {
			next.gen++
			e.stats.Resumes++
			return next
		}
	}
	return nil
}

// dispatch fires one event: the kernel callback runs first (if any),
// then it returns the process to resume (if any and still at the
// scheduled generation). Running both halves in one slot lets a
// service chain's final completion release its station and resume the
// waiting process without an extra calendar hop.
func (e *Env) dispatch(ev *event) *Proc {
	switch ev.kind {
	case evComplete:
		// Service completion: release before the user callback, the
		// order the old completion closures used.
		ev.res.Release()
	case evHandoff:
		ev.res.handoff()
		return nil
	case evTimer:
		t := ev.timer
		if t.armed && t.gen == ev.gen {
			t.armed = false
			t.fn()
		}
		return nil
	}
	if ev.fn != nil {
		ev.fn()
	}
	if p := ev.proc; p != nil && !p.done && ev.gen == p.gen {
		return p
	}
	return nil // no process, or a stale wake: the process moved on
}

// Stop terminates all live processes by unwinding them, then ends every
// idle worker, so that no goroutine outlives the environment. The
// environment must not be used again.
func (e *Env) Stop() {
	e.stopping = true
	for len(e.live) > 0 {
		var p *Proc
		for q := range e.live {
			p = q
			break
		}
		delete(e.live, p)
		p.w.wake <- true
		<-e.ret
		p.done = true
	}
	for _, w := range e.idle {
		w.wake <- true
		<-e.ret
	}
	e.idle = nil
	e.events = calendar{}
}
