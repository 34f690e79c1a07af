package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"gemsim/internal/cc"
	"gemsim/internal/node"
)

// enginesMatrix runs the engine comparison once at reduced windows and
// indexes the reports by label. The margins asserted below were checked
// to hold across seeds 1-3 at these windows; the test runs the default
// seed only to keep it fast.
func enginesMatrix(t *testing.T) map[string]*Report {
	t.Helper()
	_, reps, err := RunEngines(EnginesOptions{
		Warmup:  2 * time.Second,
		Measure: 8 * time.Second,
	})
	if err != nil {
		t.Fatalf("RunEngines: %v", err)
	}
	return reps
}

// TestEnginesCrossover pins the headline result of the engine
// comparison: the protocol ranking inverts with contention, and the
// hybrid engine is never the wrong choice.
func TestEnginesCrossover(t *testing.T) {
	reps := enginesMatrix(t)
	tput := func(label string) float64 {
		rep, ok := reps[label]
		if !ok {
			t.Fatalf("missing report %q", label)
		}
		return rep.Metrics.Throughput
	}

	// Low contention: conflicts are rare, so the optimistic engines'
	// smaller metadata footprint (validate+publish vs three lock-service
	// bursts) buys throughput outright.
	if occ, tpl := tput("low/occ"), tput("low/2pl"); occ < 1.02*tpl {
		t.Errorf("low contention: OCC %.1f tps should beat 2PL %.1f tps by >2%%", occ, tpl)
	}
	if mvto, tpl := tput("low/mvto"), tput("low/2pl"); mvto < 1.02*tpl {
		t.Errorf("low contention: MV-TO %.1f tps should beat 2PL %.1f tps by >2%%", mvto, tpl)
	}

	// Concentrated hot spot: every transaction writes a hot branch page,
	// so optimistic engines redo a majority of their work while 2PL
	// merely queues on the short-held hot locks.
	if tpl, occ := tput("high/2pl"), tput("high/occ"); tpl < 1.2*occ {
		t.Errorf("high contention: 2PL %.1f tps should beat OCC %.1f tps by >20%%", tpl, occ)
	}
	if tpl, mvto := tput("high/2pl"), tput("high/mvto"); tpl < 1.2*mvto {
		t.Errorf("high contention: 2PL %.1f tps should beat MV-TO %.1f tps by >20%%", tpl, mvto)
	}

	// Heterogeneous Zipf pattern: the hybrid locks the hot set (no
	// restart storms) and validates the cold tail (no lock overhead), so
	// it beats both pure protocols.
	if had, tpl := tput("zipf/had"), tput("zipf/2pl"); had < 1.01*tpl {
		t.Errorf("zipf: HAD %.1f tps should beat 2PL %.1f tps by >1%%", had, tpl)
	}
	if had, occ := tput("zipf/had"), tput("zipf/occ"); had < 1.1*occ {
		t.Errorf("zipf: HAD %.1f tps should beat OCC %.1f tps by >10%%", had, occ)
	}
	if had, mvto := tput("zipf/had"), tput("zipf/mvto"); had < 1.1*mvto {
		t.Errorf("zipf: HAD %.1f tps should beat MV-TO %.1f tps by >10%%", had, mvto)
	}
}

// TestEnginesRestartAccounting checks that the abort/restart machinery
// is visible end-to-end in the comparison's metrics: optimistic engines
// restart under contention, the native 2PL rows never raise an engine
// abort, and the hybrid's hot-set routing keeps its restart share an
// order of magnitude below pure OCC's.
func TestEnginesRestartAccounting(t *testing.T) {
	reps := enginesMatrix(t)
	for label, rep := range reps {
		m := rep.Metrics
		// Attempts admitted before the warmup stats reset commit after
		// it, so commits may exceed admitted by at most the closed
		// loop's in-flight population (80 terminals across two nodes).
		if m.Admitted+80 < m.Commits {
			t.Errorf("%s: admitted %d < commits %d beyond in-flight slack", label, m.Admitted, m.Commits)
		}
		if m.CCAborts > m.Restarts {
			t.Errorf("%s: engine aborts %d exceed restarts %d", label, m.CCAborts, m.Restarts)
		}
	}
	for _, sc := range engineScenarios {
		m := reps[string(sc)+"/2pl"].Metrics
		if m.CCAborts != 0 || m.CCValidations != 0 {
			t.Errorf("%s/2pl: native 2PL reported engine work (aborts %d, validations %d)",
				sc, m.CCAborts, m.CCValidations)
		}
		if m.CCEngine != cc.KindDefault.String() {
			t.Errorf("%s/2pl: engine name %q, want %q", sc, m.CCEngine, cc.KindDefault.String())
		}
	}
	occ := reps["high/occ"].Metrics
	if occ.Restarts == 0 || occ.CCAborts == 0 || occ.CCValidationFails == 0 {
		t.Errorf("high/occ: expected restart work, got restarts=%d ccAborts=%d valFails=%d",
			occ.Restarts, occ.CCAborts, occ.CCValidationFails)
	}
	occShare := float64(occ.Restarts) / float64(occ.Admitted)
	had := reps["high/had"].Metrics
	hadShare := float64(had.Restarts) / float64(had.Admitted)
	if hadShare > occShare/10 {
		t.Errorf("high: HAD restart share %.3f should be <1/10 of OCC's %.3f", hadShare, occShare)
	}
}

// TestHADWithoutHotSetIsOCC pins the routing rule behind HAD: without
// a hot-spot set no page is hot and none is ever locked, so every access
// takes the optimistic path and HAD must reproduce OCC's metrics field
// for field (only the engine name differs) under both coupling modes
// and both update strategies.
func TestHADWithoutHotSetIsOCC(t *testing.T) {
	for _, coupling := range []Coupling{CouplingGEM, CouplingPCL} {
		for _, force := range []bool{true, false} {
			t.Run(fmt.Sprintf("%v/force=%v", coupling, force), func(t *testing.T) {
				run := func(kind cc.Kind) node.Metrics {
					cfg := DefaultDebitCreditConfig(2)
					cfg.Seed = 5
					cfg.Coupling = coupling
					cfg.Force = force
					cfg.CC = kind
					rep, err := Run(cfg)
					if err != nil {
						t.Fatalf("%v: %v", kind, err)
					}
					return rep.Metrics
				}
				occ, had := run(cc.KindOCC), run(cc.KindHAD)
				if occ.CCValidations == 0 {
					t.Fatal("OCC run validated nothing")
				}
				had.CCEngine = occ.CCEngine
				ov, hv := reflect.ValueOf(occ), reflect.ValueOf(had)
				for i := 0; i < ov.NumField(); i++ {
					if !reflect.DeepEqual(ov.Field(i).Interface(), hv.Field(i).Interface()) {
						t.Errorf("%s: OCC %v, HAD %v", ov.Type().Field(i).Name,
							ov.Field(i).Interface(), hv.Field(i).Interface())
					}
				}
			})
		}
	}
}

// TestEngineOffMatchesDefaults is the byte-identity guard for the
// engine seam: the default engine routes every access through the
// native 2PL call sequence, so a config that names it explicitly must
// reproduce the zero-value config's report byte for byte, report no
// engine-initiated work, and keep the engine suffix out of the legacy
// report line.
func TestEngineOffMatchesDefaults(t *testing.T) {
	cfg := DefaultDebitCreditConfig(2)
	cfg.Seed = 11
	cfg.Warmup = 500 * time.Millisecond
	cfg.Measure = 2 * time.Second
	implicit, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CC = cc.KindDefault
	explicit, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if implicit.String() != explicit.String() {
		t.Fatalf("report differs with the default engine named explicitly:\n%s\nvs\n%s",
			implicit.String(), explicit.String())
	}
	m := implicit.Metrics
	if m.CCAborts != 0 || m.CCValidations != 0 || m.CCValidationFails != 0 {
		t.Fatalf("default engine produced engine work: aborts %d, validations %d (failed %d)",
			m.CCAborts, m.CCValidations, m.CCValidationFails)
	}
	if strings.Contains(implicit.String(), "cc=") {
		t.Fatalf("legacy report line carries an engine suffix: %s", implicit.String())
	}
}
