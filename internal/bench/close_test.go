package bench

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"crest/internal/engine"
	"crest/internal/rdma"
	"crest/internal/sim"
	"crest/internal/workload"
)

// TestMain holds the package to "nothing leaks": once every test is
// done and the deployments nobody closed have been collected, no region
// byte is mapped. A run that forgets Close shows here (and, before, as a
// slow package: its pools stay until a collection).
func TestMain(m *testing.M) {
	code := m.Run()
	if left := settleMapped(); left != 0 && code == 0 {
		fmt.Fprintf(os.Stderr, "FAIL: %d region bytes still mapped after the package's tests\n", left)
		code = 1
	}
	os.Exit(code)
}

// settleMapped collects until the finalizers of unreachable fabrics
// have unmapped what they held, and returns what is left.
func settleMapped() int64 {
	for i := 0; i < 200 && rdma.MappedBytes() != 0; i++ {
		runtime.GC()
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	return rdma.MappedBytes()
}

// mappedProbe samples rdma.MappedBytes from inside the run: Next is
// called by every coordinator while the pool is up.
type mappedProbe struct {
	workload.Generator
	peak *int64
}

func (g mappedProbe) Next(rng *rand.Rand) *engine.Txn {
	*g.peak = max(*g.peak, rdma.MappedBytes())
	return g.Generator.Next(rng)
}

// TestRunGivesItsPoolBack: twenty tiny runs (and the one-transaction
// probe) each return with every region byte they mapped unmapped — by
// Close, at once, not by a collection some time later.
func TestRunGivesItsPoolBack(t *testing.T) {
	before := settleMapped()
	systems := []SystemKind{CREST, FORD, Motor, CRESTCell}
	for i := 0; i < 20; i++ {
		var peak int64
		cfg := shortCfg(systems[i%len(systems)], func() workload.Generator { return mappedProbe{tinySmallBank(), &peak} })
		cfg.Duration, cfg.Warmup = 300*sim.Microsecond, 100*sim.Microsecond
		cfg.Seed = int64(i + 1)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Committed == 0 {
			t.Fatalf("run %d committed nothing", i)
		}
		if peak == before {
			t.Skip("regions are not mapped outside the heap on this platform")
		}
		if need := int64(PoolBytes(tinySmallBank().Tables(), cfg.Coordinators)); peak-before < need {
			t.Fatalf("run %d: %d bytes mapped during the run, want at least one node's %d", i, peak-before, need)
		}
		if got := rdma.MappedBytes(); got != before {
			t.Fatalf("run %d returned with %d region bytes still mapped", i, got-before)
		}
	}
	if _, err := oneTxnVerbs(shortCfg(CREST, tinySmallBank)); err != nil {
		t.Fatal(err)
	}
	if got := rdma.MappedBytes(); got != before {
		t.Fatalf("the one-transaction probe returned with %d region bytes still mapped", got-before)
	}
}

// TestDeploymentCloseIsIdempotent: Close ends the pool of a started
// deployment, twice over.
func TestDeploymentCloseIsIdempotent(t *testing.T) {
	gen := tinySmallBank()
	d, err := Deploy(shortCfg(CREST, tinySmallBank).WithDefaults(), gen.Tables(), false)
	if err != nil {
		t.Fatal(err)
	}
	gen.Load(d.Sys.Load)
	if _, err := d.Start(); err != nil {
		t.Fatal(err)
	}
	d.Close()
	d.Close()
	for _, n := range d.Pool.Nodes() {
		if n.Region.Bytes() != nil {
			t.Errorf("node %d still exposes its region after Close", n.ID)
		}
	}
}
