package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"sort"

	"gemsim/internal/attrib"
)

// Check bounds. A run that breaks one counts as failed.
const (
	// shareSumTol bounds |Σ attribution shares - 1|; the breakdown
	// credits every unattributed residual to "other", so the shares
	// sum to one up to float rounding.
	shareSumTol = 1e-9
	// openLoopTol bounds |X - nodes×rate| / (nodes×rate) for the open
	// Poisson sources of pcl-random and trace-gem: an unsaturated open
	// system commits what arrives, and their windows hold 10^4 or more
	// commits, so Poisson noise stays near 1%.
	openLoopTol = 0.05
	// closedLoopTol bounds |X - N/(Z+R)| / (N/(Z+R)), the interactive
	// response time law, for a closed terminal population; the same
	// bound the simulator's own pooled-source acceptance test uses.
	closedLoopTol = 0.10
	// allocRepeatTol bounds the relative difference of allocs_per_commit
	// between repetitions of one seed. The simulator's allocations are
	// deterministic but the runtime's own are not quite: repetitions
	// differ by about 0.01%, so exact equality would fail on noise.
	allocRepeatTol = 0.001
	// maxBypassMsgs is the most network messages per commit a
	// workload that bypasses netsim may send.
	maxBypassMsgs = 0.001
)

// cellCheck is one correctness check on a run; it returns a non-empty
// reason when the run breaks it.
type cellCheck func(c *cell) string

// baseChecks apply to every run of every workload.
var baseChecks = []cellCheck{attributionSums, restartsMatchAborts, closedLoopLaw}

// checkCell returns every check a run breaks; empty means it passed.
// Errors — stalls included, core.Run reports those — fail the run
// before any other check.
func checkCell(c *cell, checks []cellCheck) []string {
	if c.err != nil {
		return []string{"run error: " + c.err.Error()}
	}
	if c.rep == nil {
		return []string{"run returned no report"}
	}
	var fails []string
	if c.rep.Metrics.Commits <= 0 {
		fails = append(fails, "no committed transactions")
	}
	for _, check := range checks {
		if f := check(c); f != "" {
			fails = append(fails, f)
		}
	}
	return fails
}

func noLawWarnings(c *cell) string {
	if w := c.rep.Metrics.LawWarnings; len(w) > 0 {
		return fmt.Sprintf("operational-law warnings: %v", w)
	}
	return ""
}

func attributionSums(c *cell) string {
	if c.cfg.Attribution.Off {
		return ""
	}
	b := c.rep.Metrics.Attribution
	if b == nil {
		return "attribution missing"
	}
	if sum := shareSum(b); math.Abs(sum-1) > shareSumTol {
		return fmt.Sprintf("attribution shares sum to %.12f%%, want 100%%", 100*sum)
	}
	return ""
}

func restartsMatchAborts(c *cell) string {
	if m := &c.rep.Metrics; c.cfg.Faults == nil && m.Restarts != m.Aborts {
		return fmt.Sprintf("restarts %d != aborts %d with faults off", m.Restarts, m.Aborts)
	}
	return ""
}

// closedLoopLaw checks a closed terminal population against the
// interactive response time law X = N/(Z+R).
func closedLoopLaw(c *cell) string {
	cl := c.cfg.ClosedLoop
	if cl == nil {
		return ""
	}
	m := &c.rep.Metrics
	want := float64(c.cfg.Nodes*cl.TerminalsPerNode) / (cl.ThinkTime + m.MeanResponseTime).Seconds()
	if dev := math.Abs(m.Throughput-want) / want; dev > closedLoopTol {
		return fmt.Sprintf("closed loop: throughput %.1f is %.1f%% off N/(Z+R) = %.1f", m.Throughput, 100*dev, want)
	}
	return ""
}

// openLoopRate checks that an open source's throughput matches the
// offered nodes × rate.
func openLoopRate(c *cell) string {
	m := &c.rep.Metrics
	want := float64(c.cfg.Nodes) * c.cfg.ArrivalRatePerNode
	if dev := math.Abs(m.Throughput-want) / want; dev > openLoopTol {
		return fmt.Sprintf("open loop: throughput %.1f is %.1f%% off nodes x rate = %.1f", m.Throughput, 100*dev, want)
	}
	return ""
}

// noMessages predicts that the network carries no per-commit work.
// GEM locking still sends the odd short message — a wake-up when a
// global lock is granted to a waiter on another node, a page request
// when another node buffers a page's current version — which affinity
// routing makes rare but not impossible (2 in 95,783 commits at seed
// 1), so the prediction is a bound, maxBypassMsgs per commit, not 0.
func noMessages(c *cell) string {
	n := c.rep.Metrics.ShortMessages + c.rep.Metrics.LongMessages
	if perCommit := float64(n) / float64(c.rep.Metrics.Commits); perCommit > maxBypassMsgs {
		return fmt.Sprintf("bypass: %.4g network messages per commit, predicted at most %g", perCommit, maxBypassMsgs)
	}
	return ""
}

func noGEMEntries(c *cell) string {
	if n := c.rep.Metrics.GEMEntryAcc; n != 0 {
		return fmt.Sprintf("bypass: %d GEM entry accesses, predicted 0", n)
	}
	return ""
}

func noValidations(c *cell) string {
	if n := c.rep.Metrics.CCValidations; n != 0 {
		return fmt.Sprintf("bypass: %d cc validations, predicted 0", n)
	}
	return ""
}

func shareSum(b *attrib.Breakdown) float64 {
	var sum float64
	for r := attrib.Res(0); r < attrib.NumRes; r++ {
		sum += b.Share(r)
	}
	return sum
}

// simDigest hashes every field of every run's Metrics, runs in key
// order. Metrics holds only simulated quantities (wall-clock figures
// live on Report outside it), so repetitions of one seed must agree.
func simDigest(cells []cell) string {
	sorted := append([]cell(nil), cells...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].key < sorted[j].key })
	h := sha256.New()
	var buf bytes.Buffer
	for i := range sorted {
		c := &sorted[i]
		buf.Reset()
		buf.WriteString(c.key)
		if c.err != nil || c.rep == nil {
			buf.WriteString("\x00failed")
		} else {
			encodeValue(&buf, reflect.ValueOf(c.rep.Metrics))
		}
		h.Write(buf.Bytes())
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// encodeValue writes a canonical encoding of v: map entries sorted by
// their encoded key, pointers followed, floats by bit pattern.
func encodeValue(buf *bytes.Buffer, v reflect.Value) {
	var scratch [binary.MaxVarintLen64]byte
	putInt := func(x int64) { buf.Write(scratch[:binary.PutVarint(scratch[:], x)]) }
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			putInt(1)
		} else {
			putInt(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		putInt(v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		putInt(int64(v.Uint()))
	case reflect.Float32, reflect.Float64:
		putInt(int64(math.Float64bits(v.Float())))
	case reflect.String:
		putInt(int64(v.Len()))
		buf.WriteString(v.String())
	case reflect.Slice, reflect.Array:
		putInt(int64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			encodeValue(buf, v.Index(i))
		}
	case reflect.Map:
		type entry struct{ k, v []byte }
		entries := make([]entry, 0, v.Len())
		it := v.MapRange()
		for it.Next() {
			var kb, vb bytes.Buffer
			encodeValue(&kb, it.Key())
			encodeValue(&vb, it.Value())
			entries = append(entries, entry{kb.Bytes(), vb.Bytes()})
		}
		sort.Slice(entries, func(i, j int) bool { return bytes.Compare(entries[i].k, entries[j].k) < 0 })
		putInt(int64(len(entries)))
		for _, e := range entries {
			buf.Write(e.k)
			buf.Write(e.v)
		}
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			putInt(0)
			return
		}
		putInt(1)
		encodeValue(buf, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			encodeValue(buf, v.Field(i))
		}
	default:
		// Functions and channels carry no simulated state.
		buf.WriteString(v.Kind().String())
	}
}
