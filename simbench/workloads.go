package main

import (
	"fmt"
	"time"

	"gemsim/internal/core"
	"gemsim/internal/node"
	"gemsim/internal/sweep"
)

// cell is one simulation run, the unit counted as attempted or failed.
type cell struct {
	key    string
	cfg    core.Config
	rep    *core.Report
	err    error
	wallMS float64
}

// poolUse describes the part of an operation that ran on a worker
// pool: the sweep engine on sweep-quick, the single run elsewhere.
type poolUse struct {
	jobs   int
	wall   time.Duration
	busyMS float64 // Σ cell wall time
}

// operation runs a workload's simulating calls once.
type operation func() ([]cell, poolUse)

// workload is one benchmark input. setup builds everything the
// simulating calls need from the seed — the trace, the catalogue and
// its run list, the configurations — and is timed as setup_s.
type workload struct {
	name   string
	checks []cellCheck
	setup  func(seed int64, jobs int) (operation, error)
	// parallel marks a workload that runs several simulations at once.
	parallel bool
}

// The three single-configuration workloads run in steady state, so
// every run must pass the simulator's operational-law self-check and
// the workload's bypass predictions. sweep-quick deliberately holds
// overloaded cells (the lock engine at 8-10 nodes, the static side of
// the adaptive preset) and 5 s windows, where open-source throughput
// falls short of the offered rate and the law self-check warns by
// design; there the warnings are counted (attrib.law_warning_runs),
// not failed.
var workloads = []workload{
	{name: "hyperscale-gem", setup: setupHyperscale,
		checks: append([]cellCheck{noLawWarnings, noMessages, noValidations}, baseChecks...)},
	{name: "pcl-random", setup: setupPCLRandom,
		checks: append([]cellCheck{noLawWarnings, openLoopRate, noGEMEntries, noValidations}, baseChecks...)},
	{name: "trace-gem", setup: setupTraceGEM,
		checks: append([]cellCheck{noLawWarnings, openLoopRate, noValidations}, baseChecks...)},
	{name: "sweep-quick", setup: setupSweepQuick, checks: baseChecks, parallel: true},
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
		names = append(names, workloads[i].name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v or all)", name, names)
}

// hyperscaleConfig is the pooled closed-loop run: 32 nodes with 1000
// terminals each at 10 s mean think time (3200 TPS offered), GEM
// locking, NOFORCE, affinity routing, buffer 200.
func hyperscaleConfig(seed int64) core.Config {
	cfg := core.DefaultDebitCreditConfig(32)
	cfg.ClosedLoop = &core.ClosedLoopConfig{TerminalsPerNode: 1000, ThinkTime: 10 * time.Second, Pooled: true}
	cfg.Warmup, cfg.Measure = 2*time.Second, 30*time.Second
	cfg.Seed = seed
	return cfg
}

func setupHyperscale(seed int64, _ int) (operation, error) {
	return single("hyperscale-gem", hyperscaleConfig(seed)), nil
}

// pclRandomConfig is the message-heavy open-loop run: 10 nodes with a
// Poisson source at 100 TPS per node, primary copy locking, random
// routing, NOFORCE, buffer 200.
func pclRandomConfig(seed int64) core.Config {
	cfg := core.DefaultDebitCreditConfig(10)
	cfg.Coupling = core.CouplingPCL
	cfg.Routing = core.RoutingRandom
	cfg.Warmup, cfg.Measure = 2*time.Second, 60*time.Second
	cfg.Seed = seed
	return cfg
}

func setupPCLRandom(seed int64, _ int) (operation, error) {
	return single("pcl-random", pclRandomConfig(seed)), nil
}

// setupTraceGEM generates the synthetic paper trace and runs it at the
// Fig. 4.7 configuration for 8 nodes: open source at 50 TPS per node,
// GEM locking, affinity routing, NOFORCE, buffer 1000.
func setupTraceGEM(seed int64, _ int) (operation, error) {
	tr, err := core.PaperTrace(seed)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultTraceConfig(8, tr)
	cfg.Warmup, cfg.Measure = 2*time.Second, 25*time.Second
	cfg.Seed = seed
	return single("trace-gem", cfg), nil
}

// single is the operation of a one-configuration workload.
func single(key string, cfg core.Config) operation {
	return func() ([]cell, poolUse) {
		start := time.Now()
		rep, err := core.Run(cfg)
		wall := time.Since(start)
		c := cell{key: key, cfg: cfg, rep: rep, err: err, wallMS: ms(wall)}
		return []cell{c}, poolUse{jobs: 1, wall: wall, busyMS: c.wallMS}
	}
}

// Quick windows, as `experiments -all -quick` uses them.
const (
	quickWarmup  = time.Second
	quickMeasure = 5 * time.Second
)

// setupSweepQuick expands the `experiments -all -quick` catalogue
// without Fig. 4.7 (trace-gem covers it) into one run list for the
// sweep engine, followed by the quick engines, failover, adaptive and
// availability presets.
func setupSweepQuick(seed int64, jobs int) (operation, error) {
	exps, err := core.Experiments(seed)
	if err != nil {
		return nil, err
	}
	opts := core.DefaultExperimentOptions()
	opts.Seed = seed
	opts.Warmup, opts.Measure = quickWarmup, quickMeasure
	var runs []sweep.Run
	for i := range exps {
		if exps[i].ID != "4.7" {
			runs = append(runs, sweep.ExperimentRuns(&exps[i], opts)...)
		}
	}
	// sweep.Result.WallMS reads 0 (runOne sets it in a deferred
	// closure after the result has been copied out), so cells are
	// timed here: from the Tune hook to the engine's Progress call.
	// core.Run calls Tune after it has validated the config and built
	// the workload generator, database and router, so that part of a
	// cell's set-up is not in its time.
	index := make(map[string]int, len(runs))
	starts := make([]time.Time, len(runs))
	ends := make([]time.Time, len(runs))
	for i := range runs {
		i, tune := i, runs[i].Config.Tune
		index[runs[i].Key] = i
		runs[i].Config.Tune = func(p *node.Params) {
			starts[i] = time.Now()
			if tune != nil {
				tune(p)
			}
		}
	}
	eng := sweep.Engine{Jobs: jobs, Progress: func(r *sweep.Run, _ sweep.Result, _, _ int) {
		ends[index[r.Key]] = time.Now()
	}}
	presets := quickPresets(seed)
	return func() ([]cell, poolUse) {
		start := time.Now()
		results, _, err := sweep.Execute(runs, eng)
		pool := poolUse{jobs: jobs, wall: time.Since(start)}
		cells := make([]cell, 0, len(runs)+32)
		for i := range runs {
			r := &runs[i]
			c := cell{key: r.Key, cfg: r.Config, err: err}
			if res, ok := results[r.Key]; ok {
				c.rep = res.Report
				if res.Err != "" {
					c.err = fmt.Errorf("%s", res.Err)
				} else {
					c.wallMS = ms(ends[i].Sub(starts[i]))
					pool.busyMS += c.wallMS
				}
			} else if c.err == nil {
				c.err = fmt.Errorf("run never started")
			}
			cells = append(cells, c)
		}
		for _, p := range presets {
			rec := &presetRecorder{prefix: p.name}
			if err := p.run(rec); err != nil {
				rec.cells = append(rec.cells, cell{key: p.name + "/error", err: err})
			}
			cells = append(cells, rec.cells...)
		}
		return cells, pool
	}, nil
}

// preset is one of the sequential core.Run* presets.
type preset struct {
	name string
	run  func(rec *presetRecorder) error
}

// quickPresets are the presets `experiments -all -quick` appends to
// the catalogue — failover, adaptive and availability — plus the
// engines comparison, at the windows its -quick mode uses. A preset
// that errors stops at the failing scenario; the error counts as one
// failed run.
func quickPresets(seed int64) []preset {
	return []preset{
		{name: "engines", run: func(rec *presetRecorder) error {
			_, _, err := core.RunEngines(core.EnginesOptions{Seed: seed, Warmup: 2 * time.Second,
				Measure: 8 * time.Second, Configure: rec.configure, Progress: rec.progress})
			return err
		}},
		{name: "failover", run: func(rec *presetRecorder) error {
			_, _, err := core.RunFailover(core.FailoverOptions{Seed: seed, Warmup: 2 * time.Second,
				Measure: 20 * time.Second, Configure: rec.configure, Progress: rec.progress})
			return err
		}},
		{name: "adaptive", run: func(rec *presetRecorder) error {
			_, _, err := core.RunAdaptive(core.AdaptiveOptions{Seed: seed, Warmup: 2 * time.Second,
				Measure: 10 * time.Second, Configure: rec.configure, Progress: rec.progress})
			return err
		}},
		{name: "availability", run: func(rec *presetRecorder) error {
			_, _, err := core.RunAvailability(core.AvailabilityOptions{Seed: seed, Warmup: 2 * time.Second,
				Measure: 16 * time.Second, Configure: rec.configure, Progress: rec.progress})
			return err
		}},
	}
}

// presetRecorder turns a preset's Configure/Progress hooks into cells:
// presets run their scenarios one after another, so the time between
// a scenario's Configure call and its Progress call is its run.
type presetRecorder struct {
	prefix string
	cells  []cell
	cfg    core.Config
	start  time.Time
}

func (r *presetRecorder) configure(label string, cfg *core.Config) {
	r.cfg = *cfg
	r.start = time.Now()
}

func (r *presetRecorder) progress(label string, rep *core.Report) {
	r.cells = append(r.cells, cell{key: r.prefix + "/" + label, cfg: r.cfg, rep: rep, wallMS: ms(time.Since(r.start))})
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
