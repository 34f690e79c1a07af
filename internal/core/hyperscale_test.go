package core

import (
	"testing"
	"time"
)

// pooledConfig is a small pooled closed-loop run: 2 nodes, 64
// terminals each, 500ms think.
func pooledConfig() Config {
	cfg := DefaultDebitCreditConfig(2)
	cfg.ClosedLoop = &ClosedLoopConfig{
		TerminalsPerNode: 64,
		ThinkTime:        500 * time.Millisecond,
		Pooled:           true,
	}
	cfg.Warmup = time.Second
	cfg.Measure = 4 * time.Second
	return cfg
}

// TestPooledClosedLoop checks the pooled terminal source against the
// closed-loop response time law: throughput must be close to
// terminals/(think+RT), the same stationary behavior StartClosed
// produces.
func TestPooledClosedLoop(t *testing.T) {
	rep, err := Run(pooledConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := &rep.Metrics
	if m.Commits == 0 {
		t.Fatal("pooled source committed nothing")
	}
	terminals := 2 * 64.0
	want := terminals / (500*time.Millisecond + m.MeanResponseTime).Seconds()
	if m.Throughput < 0.9*want || m.Throughput > 1.1*want {
		t.Fatalf("throughput %.1f violates the closed-loop law (want ~%.1f at RT %v)",
			m.Throughput, want, m.MeanResponseTime)
	}
	if rep.KernelEvents == 0 {
		t.Fatal("KernelEvents not accounted")
	}
	if k := rep.Kernel; k.Spawns == 0 || k.Resumes < k.Spawns || k.Switches == 0 {
		t.Fatalf("kernel stats not accounted: %+v", k)
	}
}

// TestPooledClosedLoopDeterministic checks that two pooled runs of the
// same configuration produce identical measurements.
func TestPooledClosedLoopDeterministic(t *testing.T) {
	a, err := Run(pooledConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(pooledConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics.Commits != b.Metrics.Commits ||
		a.Metrics.MeanResponseTime != b.Metrics.MeanResponseTime ||
		a.KernelEvents != b.KernelEvents || a.Kernel != b.Kernel {
		t.Fatalf("pooled runs diverged: %d/%v/%d/%+v vs %d/%v/%d/%+v",
			a.Metrics.Commits, a.Metrics.MeanResponseTime, a.KernelEvents, a.Kernel,
			b.Metrics.Commits, b.Metrics.MeanResponseTime, b.KernelEvents, b.Kernel)
	}
}

// TestHyperscaleExperimentShape pins the preset's catalog shape: both
// scales expose the same two series, quick mode shrinks the node axis,
// and every point config uses the pooled source at constant offered
// load (terminals/think = 100 TPS per node).
func TestHyperscaleExperimentShape(t *testing.T) {
	for _, quick := range []bool{false, true} {
		e := HyperscaleExperiment(quick)
		if e.ID != "hyperscale" || len(e.Series) != 2 || len(e.Nodes) < 2 {
			t.Fatalf("quick=%v: unexpected shape: id=%q series=%d nodes=%v",
				quick, e.ID, len(e.Series), e.Nodes)
		}
		for _, s := range e.Series {
			cfg := s.Make(e.Nodes[0])
			cl := cfg.ClosedLoop
			if cl == nil || !cl.Pooled {
				t.Fatalf("quick=%v series %q: not a pooled closed-loop config", quick, s.Label)
			}
			if got := float64(cl.TerminalsPerNode) / cl.ThinkTime.Seconds(); got != 100 {
				t.Fatalf("quick=%v series %q: offered load %.1f TPS per node, want 100",
					quick, s.Label, got)
			}
			if err := cfg.validate(); err != nil {
				t.Fatalf("quick=%v series %q: %v", quick, s.Label, err)
			}
		}
	}
}
