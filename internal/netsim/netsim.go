// Package netsim models the communication subsystem of the loosely /
// closely coupled complex: asynchronous message passing over an
// interconnection network with a simple bandwidth delay model, and CPU
// overhead for the send and receive protocol processing on both nodes
// (5000 instructions per send or receive of a short control message,
// 8000 for a long message carrying a 4 KB page, per Table 4.1).
package netsim

import (
	"strconv"
	"time"

	"gemsim/internal/cpusrv"
	"gemsim/internal/rng"
	"gemsim/internal/sim"
	"gemsim/internal/trace"
)

// Class distinguishes short control messages from long page-carrying
// messages.
type Class int

const (
	// Short is a control message (lock request/grant/release, ~100 B).
	Short Class = iota + 1
	// Long is a page transfer message (~4 KB).
	Long
)

// String returns "short" or "long".
func (c Class) String() string {
	if c == Short {
		return "short"
	}
	return "long"
}

// Params configures the network.
type Params struct {
	// ShortInstr is the CPU overhead in instructions for one send or
	// one receive of a short message.
	ShortInstr float64
	// LongInstr is the CPU overhead for one send or receive of a long
	// message.
	LongInstr float64
	// ShortBytes and LongBytes are the message sizes used by the
	// bandwidth delay model.
	ShortBytes int
	LongBytes  int
	// BandwidthBytesPerSec is the network transmission bandwidth.
	BandwidthBytesPerSec float64
	// WireLatency is an additional fixed propagation delay.
	WireLatency time.Duration
	// LossProb is the probability that an unreliable message is lost in
	// transit (fault injection). The sender still pays the send
	// overhead; the receiver never sees the message. Requires a loss
	// source via SetLossSource.
	LossProb float64
}

// DefaultParams returns the Table 4.1 communication settings.
func DefaultParams() Params {
	return Params{
		ShortInstr:           5000,
		LongInstr:            8000,
		ShortBytes:           100,
		LongBytes:            4096,
		BandwidthBytesPerSec: 10 * 1000 * 1000,
	}
}

// Handler processes a delivered message at the receiving node, after
// the receive CPU overhead was charged. For messages the receiver
// classified as inline (RegisterInline) it runs in kernel context with
// p == nil and must not block; for all other messages it runs in a
// dedicated process.
type Handler func(p *sim.Proc, from int, msg any)

// Store is a synchronously accessible shared store (GEM) through which
// messages can be exchanged instead of the interconnection network
// ("all messages are exchanged across the GEM", section 2 of the
// paper). The CPU stays busy for the store access. Accesses run on the
// kernel's callback tier: when one completes, fin runs and the
// continuation's process (none for a zero Continuation) resumes, in
// the same calendar slot.
type Store interface {
	AccessEntryFn(c sim.Continuation, fin func())
	AccessPageFn(c sim.Continuation, fin func())
}

// StoreTransport configures storage-based message exchange.
type StoreTransport struct {
	// Store is the shared memory the messages travel through.
	Store Store
	// ShortInstr and LongInstr are the CPU overheads per send or
	// receive operation; storage-based communication avoids the
	// network protocol stack, so they are far below the 5000/8000
	// instructions of message passing.
	ShortInstr float64
	LongInstr  float64
}

type endpoint struct {
	cpu     *cpusrv.CPU
	handler Handler
	// inline classifies messages whose handler runs on the callback
	// tier (nil: every message gets a handler process).
	inline func(msg any) bool
}

// Network connects the nodes.
type Network struct {
	env       *sim.Env
	params    Params
	endpoints []endpoint
	transport *StoreTransport

	lossSrc   *rng.Source
	downCheck func(node int) bool
	tracer    *trace.Tracer

	shortSent int64
	longSent  int64
	dropped   int64
}

// New creates a network for the given number of nodes. Each node must
// Register before messages are sent to it.
func New(env *sim.Env, params Params, nodes int) *Network {
	return &Network{env: env, params: params, endpoints: make([]endpoint, nodes)}
}

// Register attaches a node's CPU and message handler.
func (n *Network) Register(node int, cpu *cpusrv.CPU, h Handler) {
	n.endpoints[node] = endpoint{cpu: cpu, handler: h}
}

// RegisterInline installs a classifier for messages whose handler does
// not block: those are delivered on the callback tier (the handler
// receives p == nil) instead of spawning a receive process per
// message.
func (n *Network) RegisterInline(node int, classify func(msg any) bool) {
	n.endpoints[node].inline = classify
}

// UseStore switches the network to storage-based message exchange
// through the given shared store.
func (n *Network) UseStore(t *StoreTransport) { n.transport = t }

// SetLossSource installs the random source used to draw message-loss
// decisions when Params.LossProb > 0.
func (n *Network) SetLossSource(src *rng.Source) { n.lossSrc = src }

// SetDownCheck installs a predicate consulted at delivery time: when it
// reports the receiver down, the message is dropped (the sender has
// already paid the send overhead).
func (n *Network) SetDownCheck(fn func(node int) bool) { n.downCheck = fn }

// SetTracer attaches a span tracer (nil disables tracing). Each
// network message becomes one transit span on the "net" track; lost or
// undeliverable messages become instants.
func (n *Network) SetTracer(t *trace.Tracer) { n.tracer = t }

// route formats "from>to" for trace event details.
func route(from, to int) string {
	return strconv.Itoa(from) + ">" + strconv.Itoa(to)
}

// transit returns the transmission delay for a message class.
func (n *Network) transit(c Class) time.Duration {
	bytes := n.params.ShortBytes
	if c == Long {
		bytes = n.params.LongBytes
	}
	if n.params.BandwidthBytesPerSec <= 0 {
		return n.params.WireLatency
	}
	d := time.Duration(float64(bytes) / n.params.BandwidthBytesPerSec * float64(time.Second))
	return d + n.params.WireLatency
}

// sendInstr returns the per-send (and per-receive) CPU overhead.
func (n *Network) sendInstr(c Class) float64 {
	if c == Long {
		return n.params.LongInstr
	}
	return n.params.ShortInstr
}

// Send transmits msg from node `from` to node `to`. The calling process
// is charged the send CPU overhead inline; delivery is asynchronous:
// after the transmission delay, a fresh process at the receiver is
// charged the receive overhead and then runs the receiver's handler.
//
// Send is subject to fault injection: the message is lost with
// Params.LossProb, and it is dropped when the receiver is down at
// delivery time. Callers must tolerate loss (timeout and retry).
func (n *Network) Send(p *sim.Proc, from, to int, c Class, msg any) {
	n.send(p, from, to, c, msg, false)
}

// SendReliable transmits a message that a real system would retransmit
// until acknowledged (lock releases, recovery traffic): it is exempt
// from random loss, but still dropped when the receiver is down.
func (n *Network) SendReliable(p *sim.Proc, from, to int, c Class, msg any) {
	n.send(p, from, to, c, msg, true)
}

func (n *Network) send(p *sim.Proc, from, to int, c Class, msg any, reliable bool) {
	if c == Long {
		n.longSent++
	} else {
		n.shortSent++
	}
	if n.transport != nil {
		// Store-based exchange rides on reliable shared memory: no
		// random loss, but a down receiver still never picks it up.
		n.sendViaStore(p, from, to, c, msg)
		return
	}
	lost := !reliable && n.lossSrc != nil && n.params.LossProb > 0 && n.lossSrc.Float64() < n.params.LossProb
	n.endpoints[from].cpu.Exec(p, n.sendInstr(c))
	if lost {
		n.dropped++
		if n.tracer.Enabled() {
			n.tracer.Instant("net", p.TraceID(), "net", "drop", n.env.Now(), route(from, to))
		}
		return
	}
	ep := n.endpoints[to]
	traced := n.tracer.Enabled()
	var sentAt sim.Time
	var tid int64
	if traced {
		sentAt = n.env.Now()
		tid = p.TraceID()
	}
	n.env.After(n.transit(c), func() {
		if traced {
			n.tracer.Span("net", tid, "net", c.String(), sentAt, n.env.Now(), route(from, to))
		}
		if n.downCheck != nil && n.downCheck(to) {
			n.dropped++
			if traced {
				n.tracer.Instant("net", tid, "net", "drop-down", n.env.Now(), route(from, to))
			}
			return
		}
		if ep.inline != nil && ep.inline(msg) {
			// Callback-tier delivery: the extra hop takes the calendar
			// slot the receive process used to start in, then the
			// receive overhead and the handler run without a process.
			n.env.After(0, func() {
				ep.cpu.RequestExec(n.sendInstr(c), func() {
					ep.handler(nil, from, msg)
				})
			})
			return
		}
		n.env.Spawn("recv", func(q *sim.Proc) {
			ep.cpu.Exec(q, n.sendInstr(c))
			ep.handler(q, from, msg)
		})
	})
}

// sendViaStore exchanges the message across the shared store: the
// sender deposits it (entry access for short messages, page access for
// long ones) with the CPU held, and the receiver reads it out the same
// way. There is no wire delay; the store's queueing is the only
// serialization.
func (n *Network) sendViaStore(p *sim.Proc, from, to int, c Class, msg any) {
	t := n.transport
	instr := t.ShortInstr
	if c == Long {
		instr = t.LongInstr
	}
	// The sender parks once for the whole deposit.
	n.storeChain(n.endpoints[from].cpu, c, instr, p.Continuation(), nil)
	p.Park()
	ep := n.endpoints[to]
	n.env.After(0, func() {
		if n.downCheck != nil && n.downCheck(to) {
			n.dropped++
			return
		}
		if ep.inline != nil && ep.inline(msg) {
			// Callback-tier pickup: the extra hop takes the slot the
			// receive process used to start in.
			n.env.After(0, func() {
				n.storeChain(ep.cpu, c, instr, sim.Continuation{}, func() {
					ep.handler(nil, from, msg)
				})
			})
			return
		}
		n.env.Spawn("recv", func(q *sim.Proc) {
			n.storeChain(ep.cpu, c, instr, q.Continuation(), nil)
			q.Park()
			ep.handler(q, from, msg)
		})
	})
}

// storeChain runs one side of a store exchange as a single callback
// chain: acquire a processor of cpu, hold it for instr, access the
// store (entry for short messages, page for long ones), then release
// the processor and run fin (if non-nil) before cont's process (if
// any) resumes, all in the access's completion slot.
func (n *Network) storeChain(cpu *cpusrv.CPU, c Class, instr float64, cont sim.Continuation, fin func()) {
	cpu.AcquireFn(func() {
		cpu.HoldFn(instr, func() {
			done := cpu.Release
			if fin != nil {
				done = func() {
					cpu.Release()
					fin()
				}
			}
			if c == Long {
				n.transport.Store.AccessPageFn(cont, done)
			} else {
				n.transport.Store.AccessEntryFn(cont, done)
			}
		})
	})
}

// ShortSent returns the number of short messages sent since ResetStats.
func (n *Network) ShortSent() int64 { return n.shortSent }

// LongSent returns the number of long messages sent since ResetStats.
func (n *Network) LongSent() int64 { return n.longSent }

// Dropped returns the number of messages lost in transit or dropped at
// a down receiver since ResetStats.
func (n *Network) Dropped() int64 { return n.dropped }

// ResetStats discards message counters.
func (n *Network) ResetStats() {
	n.shortSent = 0
	n.longSent = 0
	n.dropped = 0
}
