package bench

import (
	"testing"

	"crest/internal/sim"
	"crest/internal/workload"
	"crest/internal/workload/smallbank"
	"crest/internal/workload/tpcc"
	"crest/internal/workload/ycsb"
)

func tinyYCSB() workload.Generator {
	cfg := ycsb.DefaultConfig()
	cfg.Records = 2000
	cfg.Theta = 0.99
	return ycsb.New(cfg)
}

func tinySmallBank() workload.Generator {
	return smallbank.New(smallbank.Config{Accounts: 2000, Theta: 0.99})
}

func tinyTPCC() workload.Generator {
	return tpcc.New(tpcc.Config{
		Warehouses:           4,
		Districts:            4,
		CustomersPerDistrict: 16,
		Items:                128,
		OrdersPerDistrict:    32,
		MaxOrderLines:        10,
		HistoryCap:           1 << 12,
	})
}

func shortCfg(system SystemKind, wl func() workload.Generator) Config {
	return Config{
		System:       system,
		Workload:     wl,
		Coordinators: 24,
		Replicas:     1,
		Duration:     6 * sim.Millisecond,
		Warmup:       1 * sim.Millisecond,
	}
}

func TestAllSystemsRunYCSB(t *testing.T) {
	for _, system := range []SystemKind{CREST, CRESTCell, CRESTBase, FORD, Motor} {
		system := system
		t.Run(string(system), func(t *testing.T) {
			res, err := Run(shortCfg(system, tinyYCSB))
			if err != nil {
				t.Fatal(err)
			}
			if res.Committed == 0 {
				t.Fatal("no transactions committed")
			}
			if res.ThroughputKOPS() <= 0 {
				t.Fatal("zero throughput")
			}
			if res.Lat.Avg() <= 0 {
				t.Fatal("zero latency")
			}
		})
	}
}

func TestAllSystemsSerializableOnAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("serializability sweep is slow")
	}
	workloads := map[string]func() workload.Generator{
		"ycsb":      tinyYCSB,
		"smallbank": tinySmallBank,
		"tpcc":      tinyTPCC,
	}
	for _, system := range []SystemKind{CREST, CRESTCell, CRESTBase, FORD, Motor} {
		for name, wl := range workloads {
			system, name, wl := system, name, wl
			t.Run(string(system)+"/"+name, func(t *testing.T) {
				cfg := shortCfg(system, wl)
				cfg.Coordinators = 18
				cfg.Duration = 4 * sim.Millisecond
				cfg.CheckHistory = true
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.HistoryErr != nil {
					t.Fatalf("not serializable: %v", res.HistoryErr)
				}
				if res.Committed == 0 {
					t.Fatal("no commits")
				}
			})
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() Result {
		res, err := Run(shortCfg(CREST, tinyYCSB))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Committed != b.Committed || a.Aborted != b.Aborted {
		t.Fatalf("same seed diverged: %d/%d vs %d/%d", a.Committed, a.Aborted, b.Committed, b.Aborted)
	}
	if a.Verbs != b.Verbs {
		t.Fatalf("verb counts diverged: %+v vs %+v", a.Verbs, b.Verbs)
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	cfg := shortCfg(CREST, tinyYCSB)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 99
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Committed == b.Committed && a.Verbs == b.Verbs {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}

func TestCRESTBeatsBaselinesUnderHighContention(t *testing.T) {
	// The headline result (Exp#1): under a skewed write-heavy YCSB,
	// CREST outperforms FORD and Motor.
	wl := func() workload.Generator {
		cfg := ycsb.DefaultConfig()
		cfg.Records = 2000
		cfg.Theta = 1.1
		cfg.WriteRatio = 0.9
		return ycsb.New(cfg)
	}
	tput := map[SystemKind]float64{}
	for _, system := range []SystemKind{CREST, FORD, Motor} {
		cfg := shortCfg(system, wl)
		cfg.Coordinators = 72
		cfg.Duration = 10 * sim.Millisecond
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tput[system] = res.ThroughputKOPS()
		t.Logf("%s: %s", system, res)
	}
	if tput[CREST] <= tput[FORD] {
		t.Errorf("CREST (%.1f) did not beat FORD (%.1f)", tput[CREST], tput[FORD])
	}
	if tput[CREST] <= tput[Motor] {
		t.Errorf("CREST (%.1f) did not beat Motor (%.1f)", tput[CREST], tput[Motor])
	}
}

func TestUnknownSystemRejected(t *testing.T) {
	cfg := shortCfg("nonsense", tinyYCSB)
	if _, err := Run(cfg); err == nil {
		t.Fatal("unknown system accepted")
	}
}
