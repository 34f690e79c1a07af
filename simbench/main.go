// Command simbench is gemsim's end-to-end benchmark. It drives the
// simulator only through its public entry points (core.Run,
// core.PaperTrace, core.Experiments, the sweep engine and the core.Run*
// presets) on one workload per process, checks every simulation run,
// and prints the metrics of BENCHMARK.json.
//
//	simbench --workload hyperscale-gem --seed 1 --seconds 15 --trace 0
//	simbench --workload all --seed 2
//
// With --trace 0 it reports the end-to-end metrics of repeated,
// unprofiled runs; with --trace 1 it repeats them and then profiles one
// more execution of the same calls to report per-layer metrics. The
// last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// attempted counts simulation runs; a run that errors or breaks a check
// is failed. correct is false when a run's report breaks a check or
// repetitions of the seed disagree, not when a run errors.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"gemsim/internal/core"
)

const (
	// defaultSeed is the seed changes are developed against; claims
	// are re-checked on the held-out seed (simbench/record.json).
	defaultSeed = 1
	// minOps is the least number of repetitions of a workload's
	// simulating calls per process: every process checks that one seed
	// reproduces its digest, and sweep-quick, whose executions take
	// longer than a run's seconds, still reports a median of three.
	minOps = 3
	// Set-up is timed in samples of at least setupSample each (one
	// set-up, or as many as fit for a cheap one), until both minimums
	// are met; the median per-set-up time is reported.
	minSetups    = 5
	minSetupTime = 200 * time.Millisecond
	setupSample  = time.Millisecond
	// profileMemRate is the allocation sampling interval, in bytes,
	// of the profiled execution.
	profileMemRate = 64 << 10
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name, or all to run each workload in its own process")
	seed := fs.Int64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", 15, "host seconds to repeat the workload for")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from an extra profiled execution")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceMode != 0 && *traceMode != 1 {
		fmt.Fprintln(os.Stderr, "simbench: --trace must be 0 or 1")
		return 2
	}
	if *name == "all" {
		return runAll(*seed, *seconds, *traceMode)
	}
	wl, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		return 2
	}
	// A simulation run is single-threaded by design — one goroutine at
	// a time, the kernel handing off to transaction processes — so the
	// single-configuration workloads run on one P; on two, every
	// hand-off may wake the idle P, which made runs about 20% slower and
	// several times noisier on a 2-vCPU VM. sweep-quick runs min(2, nproc)
	// cells at once, one P each.
	procs := 1
	if wl.parallel {
		procs = min(2, runtime.NumCPU())
	}
	runtime.GOMAXPROCS(procs)
	fmt.Printf("simbench workload=%s seed=%d seconds=%g trace=%d gomaxprocs=%d go=%s\n",
		wl.name, *seed, *seconds, *traceMode, procs, runtime.Version())
	out, err := bench(wl, *seed, time.Duration(*seconds*float64(time.Second)), *traceMode == 1, procs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		return 1
	}
	for _, m := range out.metrics {
		fmt.Printf("metric %-34s %16.6f %s\n", m.name, m.Value, m.Unit)
	}
	line, err := out.json()
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		return 1
	}
	fmt.Println(line)
	return 0
}

// result is the benchmark's verdict on one process.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metric
}

type metric struct {
	name  string
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name: name, Value: value, Unit: unit})
}

func (r *result) json() (string, error) {
	ms := make(map[string]metric, len(r.metrics))
	for _, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return "", fmt.Errorf("metric %s is %v", m.name, m.Value)
		}
		ms[m.name] = m
	}
	b, err := json.Marshal(resultLine{r.correct, r.attempted, r.failed, ms})
	return string(b), err
}

// resultLine is the JSON object a process prints last.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opStats is one measured execution of a workload's simulating calls.
type opStats struct {
	cells   []cell
	pool    poolUse
	wall    time.Duration
	mallocs uint64
	bytes   uint64
	commits int64
	digest  string
}

// Per-commit figures divide by at least one commit, so that an
// execution that committed nothing still yields a printable (failed)
// result.
func (o *opStats) commitsPerSec() float64 { return float64(o.commits) / o.wall.Seconds() }
func (o *opStats) allocsPerCommit() float64 {
	return float64(o.mallocs) / float64(max(o.commits, 1))
}

// measure runs one execution from a freshly collected heap and takes
// the host wall time and the runtime.MemStats delta around it.
func measure(op operation) opStats {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	cells, pool := op()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	return summarize(cells, pool, wall, &before, &after)
}

func summarize(cells []cell, pool poolUse, wall time.Duration, before, after *runtime.MemStats) opStats {
	o := opStats{
		cells:   cells,
		pool:    pool,
		wall:    wall,
		mallocs: after.Mallocs - before.Mallocs,
		bytes:   after.TotalAlloc - before.TotalAlloc,
		digest:  simDigest(cells),
	}
	for i := range cells {
		if cells[i].err == nil && cells[i].rep != nil {
			o.commits += cells[i].rep.Metrics.Commits
		}
	}
	return o
}

// bench runs one workload in this process.
func bench(wl *workload, seed int64, seconds time.Duration, profiled bool, jobs int) (*result, error) {
	setups, op, err := timeSetup(wl, seed, jobs)
	if err != nil {
		return nil, err
	}

	var ops []opStats
	for start := time.Now(); len(ops) < minOps || time.Since(start) < seconds; {
		o := measure(op)
		fmt.Printf("op %d: %d runs, %d commits in %.3f s host: %.1f commits/s, %.3f allocs/commit, sim_digest=%s\n",
			len(ops)+1, len(o.cells), o.commits, o.wall.Seconds(), o.commitsPerSec(), o.allocsPerCommit(), o.digest)
		ops = append(ops, o)
	}

	var prof *profiledOp
	if profiled {
		var err error
		if prof, err = runProfiled(op); err != nil {
			return nil, err
		}
		fmt.Printf("profiled op: %d runs, %d commits in %.3f s host: %.1f commits/s, sim_digest=%s\n",
			len(prof.op.cells), prof.op.commits, prof.op.wall.Seconds(), prof.op.commitsPerSec(), prof.op.digest)
	}

	res := &result{correct: true}
	checked := ops
	if prof != nil {
		checked = append(append([]opStats(nil), ops...), prof.op)
	}
	for _, o := range checked {
		for i := range o.cells {
			c := &o.cells[i]
			res.attempted++
			fails := checkCell(c, wl.checks)
			if len(fails) == 0 {
				continue
			}
			res.failed++
			fmt.Printf("FAIL %s: %s\n", c.key, strings.Join(fails, "; "))
			// A run that errored is a failed operation with no output
			// to check; a report that breaks a check is a wrong output.
			if c.err == nil {
				res.correct = false
			}
		}
		if o.digest != ops[0].digest {
			res.correct = false
			fmt.Printf("FAIL sim_digest %s differs from the first repetition's %s\n", o.digest, ops[0].digest)
		}
		if o.commits == 0 {
			res.correct = false
			fmt.Println("FAIL an execution committed nothing")
		}
	}
	for _, o := range ops[1:] {
		a, b := ops[0].allocsPerCommit(), o.allocsPerCommit()
		if math.Abs(a-b) > allocRepeatTol*a {
			res.correct = false
			fmt.Printf("FAIL allocs_per_commit %.4f differs from the first repetition's %.4f by more than %.1f%%\n",
				b, a, 100*allocRepeatTol)
		}
	}
	fmt.Printf("checks: %d runs attempted, %d failed; sim_digest=%s\n", res.attempted, res.failed, ops[0].digest)

	if prof == nil {
		endToEnd(res, ops, setups)
	} else {
		perLayer(res, ops, prof, seed)
	}
	return res, nil
}

// timeSetup times a workload's set-up and returns the per-set-up
// time of every sample with the operation the last set-up built.
func timeSetup(wl *workload, seed int64, jobs int) ([]float64, operation, error) {
	var samples []float64
	var op operation
	for start := time.Now(); len(samples) < minSetups || time.Since(start) < minSetupTime; {
		n, t := 0, time.Now()
		for n == 0 || time.Since(t) < setupSample {
			o, err := wl.setup(seed, jobs)
			if err != nil {
				return nil, nil, fmt.Errorf("%s setup: %w", wl.name, err)
			}
			op = o
			n++
		}
		samples = append(samples, time.Since(t).Seconds()/float64(n))
	}
	return samples, op, nil
}

// endToEnd adds the metrics a user of the simulator sees.
func endToEnd(res *result, ops []opStats, setups []float64) {
	var cps, apc, bpc, cellMS []float64
	for i := range ops {
		o := &ops[i]
		cps = append(cps, o.commitsPerSec())
		apc = append(apc, o.allocsPerCommit())
		bpc = append(bpc, float64(o.bytes)/float64(max(o.commits, 1)))
		for j := range o.cells {
			if o.cells[j].err == nil {
				cellMS = append(cellMS, o.cells[j].wallMS)
			}
		}
	}
	res.add("commits_per_host_s", median(cps), "1/s")
	res.add("allocs_per_commit", median(apc), "count")
	res.add("bytes_per_commit", median(bpc), "B")
	res.add("peak_rss_mb", peakRSSMB(), "MB")
	res.add("setup_s", median(setups), "s")
	res.add("cell_ms_p50", percentile(cellMS, 0.50), "ms")
	res.add("cell_ms_p95", percentile(cellMS, 0.95), "ms")
}

// profiledOp is the extra execution run under the CPU profiler with
// allocation sampling raised.
type profiledOp struct {
	op       opStats
	cpuNS    map[string]float64
	allocs   map[string]float64
	gcCycles uint32
}

func runProfiled(op operation) (*profiledOp, error) {
	runtime.MemProfileRate = profileMemRate
	memBefore := memSnapshot()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var raw bytes.Buffer
	if err := pprof.StartCPUProfile(&raw); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	start := time.Now()
	cells, pool := op()
	wall := time.Since(start)
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&after)
	memAfter := memSnapshot()

	p := &profiledOp{
		op:       summarize(cells, pool, wall, &before, &after),
		allocs:   allocsByLayer(memBefore, memAfter, profileMemRate),
		gcCycles: after.NumGC - before.NumGC,
	}
	var err error
	if p.cpuNS, err = cpuByLayer(raw.Bytes()); err != nil {
		return nil, err
	}
	return p, nil
}

// perLayer adds the metrics of single layers: profile shares, work
// counts per commit from the public Report, and timings taken around
// calls into a layer.
func perLayer(res *result, ops []opStats, prof *profiledOp, seed int64) {
	cpuPct, allocPct := shares(prof.cpuNS), shares(prof.allocs)
	for _, layer := range layers() {
		res.add(layer+".cpu_pct", cpuPct[layer], "%")
		res.add(layer+".alloc_pct", allocPct[layer], "%")
	}
	res.add("runtime.gc.cycles", float64(prof.gcCycles), "count")
	warned := 0
	for _, c := range prof.op.cells {
		if c.rep != nil && len(c.rep.Metrics.LawWarnings) > 0 {
			warned++
		}
	}
	res.add("attrib.law_warning_runs", float64(warned), "count")

	var w struct {
		commits, events, gemEntry, gemPage, locks, lockWaits, msgs,
		ios, pageReqs, invals, validations, ccAborts int64
		// totalEvents estimates the events of whole runs, warm-up
		// included: the Report counts only the measured interval.
		totalEvents float64
	}
	for _, c := range prof.op.cells {
		if c.err != nil || c.rep == nil {
			continue
		}
		m := &c.rep.Metrics
		w.commits += m.Commits
		w.events += c.rep.KernelEvents
		w.totalEvents += float64(c.rep.KernelEvents) * float64(c.cfg.Warmup+c.cfg.Measure) / float64(c.cfg.Measure)
		w.gemEntry += m.GEMEntryAcc
		w.gemPage += m.GEMPageAcc
		w.locks += m.LockRequests
		w.lockWaits += m.LockWaits
		w.msgs += m.ShortMessages + m.LongMessages
		w.ios += m.StorageReads + m.StorageWrites + m.LogWrites
		w.pageReqs += m.PageRequests
		w.invals += m.Invalidations
		w.validations += m.CCValidations
		w.ccAborts += m.CCAborts
	}
	perCommit := func(name string, n int64) {
		res.add(name, float64(n)/float64(max(w.commits, 1)), "count")
	}
	perCommit("sim.events_per_commit", w.events)
	perCommit("gem.entry_acc_per_commit", w.gemEntry)
	perCommit("gem.page_acc_per_commit", w.gemPage)
	perCommit("lock.requests_per_commit", w.locks)
	perCommit("lock.waits_per_commit", w.lockWaits)
	perCommit("netsim.msgs_per_commit", w.msgs)
	perCommit("storage.ios_per_commit", w.ios)
	perCommit("node.page_requests_per_commit", w.pageReqs)
	perCommit("node.invalidations_per_commit", w.invals)
	perCommit("cc.validations_per_commit", w.validations)
	perCommit("cc.aborts_per_commit", w.ccAborts)

	res.add("sim.ns_per_event", prof.cpuNS["sim"]/math.Max(w.totalEvents, 1), "ns")
	var evRate, busy, cps []float64
	for i := range ops {
		o := &ops[i]
		var events int64
		var measured float64
		for _, c := range o.cells {
			if c.err == nil && c.rep != nil && c.rep.KernelEventsPerSec > 0 {
				events += c.rep.KernelEvents
				measured += float64(c.rep.KernelEvents) / c.rep.KernelEventsPerSec
			}
		}
		evRate = append(evRate, float64(events)/math.Max(measured, 1e-9))
		busy = append(busy, o.pool.busyMS/(float64(o.pool.jobs)*ms(o.pool.wall)))
		cps = append(cps, o.commitsPerSec())
	}
	res.add("sim.events_per_host_s", median(evRate), "1/s")

	start := time.Now()
	_, err := core.PaperTrace(seed)
	res.add("workload.tracegen_s", time.Since(start).Seconds(), "s")
	if err != nil {
		res.correct = false
		fmt.Println("FAIL core.PaperTrace:", err)
	}
	res.add("sweep.busy_frac", median(busy), "ratio")
	unprofiled := median(cps)
	res.add("profile.overhead_pct", 100*(unprofiled-prof.op.commitsPerSec())/unprofiled, "%")
}

// peakRSSMB is the process's peak resident set.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile interpolates linearly between the order statistics
// around rank q·(n-1).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// runAll runs every workload in a child process of its own, echoing
// their output, and ends with one JSON object whose metrics are keyed
// <workload>/<metric>.
func runAll(seed int64, seconds float64, traceMode int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		return 1
	}
	all := result{correct: true}
	for _, wl := range workloads {
		args := []string{"--workload", wl.name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(traceMode)}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			fmt.Fprintln(os.Stderr, "simbench:", err)
			return 1
		}
		if err := cmd.Start(); err != nil {
			fmt.Fprintln(os.Stderr, "simbench:", err)
			return 1
		}
		var last string
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			last = sc.Text()
			fmt.Println(last)
		}
		if err := cmd.Wait(); err != nil {
			fmt.Fprintf(os.Stderr, "simbench: workload %s: %v\n", wl.name, err)
			return 1
		}
		var sub resultLine
		if err := json.Unmarshal([]byte(last), &sub); err != nil {
			fmt.Fprintf(os.Stderr, "simbench: workload %s: bad result line: %v\n", wl.name, err)
			return 1
		}
		all.correct = all.correct && sub.Correct
		all.attempted += sub.Attempted
		all.failed += sub.Failed
		for n, m := range sub.Metrics {
			all.add(wl.name+"/"+n, m.Value, m.Unit)
		}
	}
	line, err := all.json()
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		return 1
	}
	fmt.Println(line)
	return 0
}
