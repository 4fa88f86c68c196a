// Package crest is a Go implementation of CREST, the disaggregated
// transaction system from "CREST: High-Performance Contention
// Resolution for Disaggregated Transactions" (ASPLOS 2026), together
// with the FORD and Motor baselines the paper evaluates against.
//
// The memory pool, compute nodes and RDMA fabric run inside a
// deterministic discrete-event simulation (the paper's testbed needs
// ConnectX-5 InfiniBand hardware; DESIGN.md explains the
// substitution), so a Cluster behaves like a five-machine deployment
// while running in a single process with reproducible, virtual-time
// results.
//
// Quick start:
//
//	cluster, _ := crest.NewCluster(crest.Config{})
//	cluster.CreateTable(crest.TableSpec{
//		ID: 1, Name: "accounts", CellSizes: []int{8, 8}, Capacity: 1024,
//	})
//	cluster.Load(1, 42, [][]byte{crest.U64(100, 8), crest.U64(0, 8)})
//	cluster.Finalize()
//
//	txn := crest.NewTxn("deposit")
//	txn.AddBlock(crest.Op{
//		Table: 1, Key: 42, ReadCells: []int{0}, WriteCells: []int{0},
//		Hook: func(_ any, read [][]byte) [][]byte {
//			return [][]byte{crest.PutU64(read[0], crest.GetU64(read[0])+10)}
//		},
//	})
//	res, _ := cluster.Execute(txn)
//
// Package-level benchmark and experiment runners regenerate every table
// and figure of the paper's evaluation; see RunMatrix and
// cmd/crestbench.
package crest

import (
	"fmt"
	"io"
	"time"

	"crest/internal/bench"
	"crest/internal/causality"
	"crest/internal/core"
	"crest/internal/engine"
	"crest/internal/flight"
	"crest/internal/layout"
	"crest/internal/memnode"
	"crest/internal/metrics"
	"crest/internal/placement"
	"crest/internal/rdma"
	"crest/internal/sim"
	"crest/internal/trace"
	"crest/internal/workload"
)

// TableID identifies a table.
type TableID = layout.TableID

// Key is a record's primary key.
type Key = layout.Key

// System selects the transaction system a cluster or a run uses.
type System = bench.SystemKind

// The five system configurations of the paper's evaluation.
const (
	SystemCREST     System = "crest"
	SystemCRESTCell System = "crest-cell" // factor analysis: +cell-level CC only
	SystemCRESTBase System = "crest-base" // factor analysis: record-level, strict
	SystemFORD      System = "ford"
	SystemMotor     System = "motor"
)

// Config describes a cluster: a deployment in RunSpec's fields, with
// their meanings, defaults and validation, plus the cluster's hotspot
// seed and observers. The zero value is DefaultRun's deployment running
// full CREST: two memory nodes, three compute nodes sharing 240
// coordinators (the paper's 3 × 80), the default 2µs-RTT 100Gbps
// fabric, and f = 1 — unlike a run's, a cluster's Replicas 0 means 1
// when there is more than one memory node.
type Config struct {
	System       System
	Coordinators int // total across the compute nodes
	MemNodes     int // per shard group
	CompNodes    int
	Replicas     int // f backup copies per record (0 ≤ f < MemNodes)
	Seed         int64
	Shards       int    // independent shard groups, at most 64
	Placement    string // see PlacementPolicies; "" is "hash"
	// PlacementHotKeys seeds the "hotspot" policy's override table
	// (ignored by other policies): each entry pins one record to a
	// shard group, typically derived from a causality hotspot ranking
	// via PlacementSeedFromWhy.
	PlacementHotKeys []PlacementHotKey
	// ObserverOptions selects the observers recording the cluster.
	ObserverOptions
}

// TableSpec declares a table: one size per cell (column), and the
// maximum number of records.
type TableSpec struct {
	ID        TableID
	Name      string
	CellSizes []int
	Capacity  int
}

// Cluster is a simulated disaggregated deployment: a memory pool, the
// chosen transaction system, and compute nodes with coordinators. It is
// the bench harness's deployment under the public names; what is its
// own is Execute, the row operations and recovery.
type Cluster struct {
	cfg    bench.Config // the resolved deployment, which Deploy takes literally
	tables []workload.TableDef
	dep    *bench.Deployment // nil until the first Load or Finalize
	coords []bench.Seat      // empty until Finalize: a valid Config has a coordinator
	next   int
	obs    engine.Observers // each recorder nil unless its Config flag is set
}

// NewCluster builds a cluster. Tables must be created and loaded
// before Finalize; transactions run after.
func NewCluster(cfg Config) (*Cluster, error) {
	spec, err := bench.RunSpec{
		System: cfg.System, Coordinators: cfg.Coordinators,
		MemNodes: cfg.MemNodes, CompNodes: cfg.CompNodes, Replicas: cfg.Replicas,
		Seed: cfg.Seed, Shards: cfg.Shards, Placement: cfg.Placement,
	}.ResolveDeployment()
	if err != nil {
		return nil, fmt.Errorf("crest: %w", err)
	}
	if err := cfg.ObserverOptions.validate(); err != nil {
		return nil, err
	}
	// Deviation 7's other side: a run is unreplicated by default, a
	// cluster is not.
	if spec.Replicas == 0 && spec.MemNodes > 1 {
		spec.Replicas = 1
	}
	obs := cfg.recorders()
	// No bench.Config.WithDefaults: its 2 ms warmup would cut the head
	// off the cluster's records.
	return &Cluster{obs: obs, cfg: spec.Deployment(bench.Config{
		HotKeys: cfg.PlacementHotKeys,
		Params:  rdma.DefaultParams(),
		Trace:   obs.Trace, Metrics: obs.Metrics, Why: obs.Why, Flight: obs.Flight,
	})}, nil
}

// CreateTable declares a table. All tables must be created before the
// first Load.
func (c *Cluster) CreateTable(spec TableSpec) error {
	if c.dep != nil {
		return fmt.Errorf("crest: CreateTable after loading began")
	}
	s := layout.Schema{ID: spec.ID, Name: spec.Name, CellSizes: spec.CellSizes}
	if err := s.Normalize().Validate(); err != nil {
		return err
	}
	if spec.Capacity <= 0 {
		return fmt.Errorf("crest: table %q needs a positive capacity", spec.Name)
	}
	c.tables = append(c.tables, workload.TableDef{Schema: s, Capacity: spec.Capacity})
	return nil
}

// ensureSystem deploys the pool and system once tables are known.
func (c *Cluster) ensureSystem() error {
	if c.dep != nil {
		return nil
	}
	if len(c.tables) == 0 {
		return fmt.Errorf("crest: no tables created")
	}
	dep, err := bench.Deploy(c.cfg, c.tables, false)
	c.dep = dep
	return err
}

// Load writes a record's initial cell values (the pre-measurement bulk
// load). Must precede Finalize.
func (c *Cluster) Load(table TableID, key Key, cells [][]byte) error {
	if len(c.coords) > 0 {
		return fmt.Errorf("crest: Load after Finalize")
	}
	if err := c.ensureSystem(); err != nil {
		return err
	}
	c.dep.Sys.Load(table, key, cells)
	return nil
}

// Finalize publishes the indexes and starts the compute nodes. No
// loads are accepted afterwards.
func (c *Cluster) Finalize() error {
	if len(c.coords) > 0 {
		return fmt.Errorf("crest: already finalized")
	}
	if err := c.ensureSystem(); err != nil {
		return err
	}
	coords, err := c.dep.Start()
	if err != nil {
		return err
	}
	c.coords = coords
	return nil
}

// Result reports one transaction's outcome. Committed is false when
// the transaction kept aborting for maxAttempts tries — for example
// when it touches a logically deleted row.
type Result struct {
	Committed bool
	Attempts  int
	// Latency is the virtual time from first attempt to commit.
	Latency time.Duration
}

// maxAttempts bounds the public Execute retry loop.
const maxAttempts = 256

// Execute runs one transaction to commit on the next coordinator
// (round-robin), retrying aborted attempts with backoff. It drives the
// simulation until the transaction completes.
func (c *Cluster) Execute(txn *Txn) (Result, error) {
	results, err := c.ExecuteAll(txn)
	if err != nil {
		return Result{}, err
	}
	return results[0], nil
}

// ExecuteAll runs the given transactions concurrently, one per
// coordinator (round-robin), and waits for all of them.
func (c *Cluster) ExecuteAll(txns ...*Txn) ([]Result, error) {
	if len(c.coords) == 0 {
		return nil, fmt.Errorf("crest: Finalize before executing transactions")
	}
	results := make([]Result, len(txns))
	retry := engine.DefaultRetryPolicy()
	for i, txn := range txns {
		i, txn := i, txn
		coord := c.coords[c.next]
		c.next = (c.next + 1) % len(c.coords)
		c.dep.Env.Spawn(fmt.Sprintf("txn-%s-%d", txn.label, i), func(p *sim.Proc) {
			start := p.Now()
			etxn := txn.build()
			for attempt := 1; attempt <= maxAttempts; attempt++ {
				a := coord.Execute(p, etxn)
				results[i].Attempts = attempt
				if a.Committed {
					results[i].Committed = true
					results[i].Latency = time.Duration(p.Now().Sub(start))
					return
				}
				p.Sleep(retry.Backoff(attempt, p.Rand()))
			}
		})
	}
	if err := c.dep.Env.Run(); err != nil {
		return nil, err
	}
	return results, nil
}

// ReadRow reads the given cells of one record in a read-only
// transaction and returns their values.
func (c *Cluster) ReadRow(table TableID, key Key, cells ...int) ([][]byte, error) {
	var out [][]byte
	txn := NewTxn("read-row")
	txn.AddBlock(Op{
		Table: table, Key: key, ReadCells: cells,
		Hook: func(_ any, read [][]byte) [][]byte {
			out = append([][]byte(nil), read...)
			return nil
		},
	})
	res, err := c.Execute(txn)
	if err != nil {
		return nil, err
	}
	if !res.Committed {
		return nil, fmt.Errorf("crest: read-row did not commit")
	}
	return out, nil
}

// InsertRow inserts a whole new row at runtime (§4.4 of the paper:
// all cell locks are claimed with one masked-CAS while the row is
// written and published in the index). CREST-variant clusters only.
func (c *Cluster) InsertRow(table TableID, key Key, cells [][]byte) error {
	return c.rowOp("insert-row", func(p *sim.Proc, coord *core.Coordinator) error {
		return coord.InsertRow(p, table, key, cells)
	})
}

// DeleteRow logically deletes a row: the spare delete bit in the lock
// word goes up and the index entry is tombstoned; later readers abort
// instead of observing the ghost. CREST-variant clusters only.
func (c *Cluster) DeleteRow(table TableID, key Key) error {
	return c.rowOp("delete-row", func(p *sim.Proc, coord *core.Coordinator) error {
		return coord.DeleteRow(p, table, key)
	})
}

func (c *Cluster) rowOp(name string, fn func(*sim.Proc, *core.Coordinator) error) error {
	if len(c.coords) == 0 {
		return fmt.Errorf("crest: Finalize before row operations")
	}
	coord, ok := c.coords[c.next].Coordinator.(*core.Coordinator)
	if !ok {
		return fmt.Errorf("crest: row operations require a CREST-variant cluster, not %q", c.cfg.System)
	}
	c.next = (c.next + 1) % len(c.coords)
	var opErr error
	c.dep.Env.Spawn(name, func(p *sim.Proc) { opErr = fn(p, coord) })
	if err := c.dep.Env.Run(); err != nil {
		return err
	}
	return opErr
}

// RecoveryReport mirrors the core recovery summary.
type RecoveryReport = core.RecoveryReport

// Recover runs crash recovery (§6 of the paper: dependency-tracking
// redo logs are scanned, the committed closure is rolled forward, and
// stale locks are cleared). Only CREST-variant clusters support it.
func (c *Cluster) Recover() (RecoveryReport, error) {
	sys, err := c.crestSystem("recovery")
	if err != nil {
		return RecoveryReport{}, err
	}
	return sys.Recover()
}

// ResyncMemoryNode rebuilds a restored memory node's records and
// indexes from the surviving replicas (run after RestoreMemoryNode
// and Recover). CREST-variant clusters only.
func (c *Cluster) ResyncMemoryNode(id int) (records int, err error) {
	sys, err := c.crestSystem("resync")
	if err != nil {
		return 0, err
	}
	return sys.Resync(id)
}

// crestSystem unwraps the concrete CREST engine behind the cluster.
func (c *Cluster) crestSystem(what string) (*core.System, error) {
	if c.dep != nil {
		if sys, ok := bench.CRESTSystem(c.dep.Sys); ok {
			return sys, nil
		}
	}
	return nil, fmt.Errorf("crest: %s requires a CREST-variant cluster, not %q", what, c.cfg.System)
}

// FailMemoryNode marks a memory node crashed: verbs against it fail
// until RestoreMemoryNode. For fault-tolerance demonstrations.
func (c *Cluster) FailMemoryNode(id int) error {
	node, err := c.memoryNode(id)
	if err != nil {
		return err
	}
	node.Region.Fail()
	return nil
}

// RestoreMemoryNode clears a crash mark.
func (c *Cluster) RestoreMemoryNode(id int) error {
	node, err := c.memoryNode(id)
	if err != nil {
		return err
	}
	node.Region.Recover()
	return nil
}

func (c *Cluster) memoryNode(id int) (*memnode.Node, error) {
	if c.dep == nil || id < 0 || id >= c.dep.Pool.NumNodes() {
		return nil, fmt.Errorf("crest: no memory node %d", id)
	}
	return c.dep.Pool.Nodes()[id], nil
}

// TraceSnapshot is a cluster's recorded event stream as of one
// instant. It stays so while the cluster
// runs on; its contents must not be modified.
type TraceSnapshot = trace.Snapshot

// TraceSnapshot returns the trace recorded so far (empty unless the
// cluster was built with Config.Trace). Write it out with Export.
func (c *Cluster) TraceSnapshot() *TraceSnapshot { return c.obs.Trace.Snapshot() }

// MetricsSnapshot is an immutable copy of a cluster's instruments and
// windowed time-series.
type MetricsSnapshot = metrics.Snapshot

// MetricsSnapshot copies the metrics recorded so far (empty unless the
// cluster was built with Config.Metrics). Write it out with Export, or
// render it with WriteMetricsSparklines.
func (c *Cluster) MetricsSnapshot() *MetricsSnapshot { return c.obs.Metrics.Snapshot() }

// WriteMetricsSparklines renders a terminal-friendly per-series
// sparkline summary of the windowed time-series.
func WriteMetricsSparklines(w io.Writer, s *MetricsSnapshot) error {
	return metrics.WriteSparklines(w, s)
}

// WhySnapshot is a cluster's recorded wait-for and conflict edges,
// with transaction nodes, per-abort causes and the hotspot ranking of
// the whole run so far, as of one instant. It
// stays so while the cluster runs on; its contents must not be
// modified.
type WhySnapshot = causality.Snapshot

// WhySnapshot returns the causality record so far (empty unless the
// cluster was built with Config.Why). Explain a single abort with
// WriteWhyBlame, render the aggregate contention graph with
// WriteWhyDOT, or write it out with Export.
func (c *Cluster) WhySnapshot() *WhySnapshot { return c.obs.Why.Snapshot() }

// WriteWhyBlame renders the blame chain for one transaction: the
// abort cause, the transaction it lost to, and who that transaction
// in turn waited on, with per-hop virtual wait durations.
func WriteWhyBlame(w io.Writer, s *WhySnapshot, txn uint64) error {
	return causality.WriteBlame(w, s, txn)
}

// WriteWhyDOT renders the aggregated contention dependency graph as
// Graphviz DOT, with hotspot and wait-cycle annotations.
func WriteWhyDOT(w io.Writer, s *WhySnapshot) error { return causality.WriteDOT(w, s) }

// ReadWhyJSON parses a crest-why/v1 document written by Export.
func ReadWhyJSON(r io.Reader) (*WhySnapshot, error) { return causality.ReadJSON(r) }

// FlightSnapshot is a cluster's per-transaction latency budgets and
// captured tail-outlier exemplars as of one instant. It stays so while
// the cluster runs on; its contents must not be modified.
type FlightSnapshot = flight.Snapshot

// FlightSnapshot returns the flight record so far (empty unless the
// cluster was built with Config.Flight). Render the aggregate tail
// decomposition with WriteFlightTail, one transaction's critical path
// with WriteFlightCritPath, or write it out with Export.
func (c *Cluster) FlightSnapshot() *FlightSnapshot { return c.obs.Flight.Snapshot() }

// WriteFlightTail renders the aggregate latency budget report: p50,
// p99 and p99.9 cohort decompositions per component, the tail-vs-
// median delta attribution, and the topN slowest exemplars' critical
// paths (topN >= 1).
func WriteFlightTail(w io.Writer, s *FlightSnapshot, topN int) error {
	return flight.WriteTail(w, s, topN)
}

// WriteFlightCritPath renders one transaction's full flight record:
// its budget decomposition, per-attempt timeline, and critical path.
func WriteFlightCritPath(w io.Writer, s *FlightSnapshot, txn uint64) error {
	return flight.WriteCritPath(w, s, txn)
}

// ReadFlightJSON parses a crest-flight/v1 document written by Export.
func ReadFlightJSON(r io.Reader) (*FlightSnapshot, error) { return flight.ReadJSON(r) }

// PlacementHotKey pins one record to a shard group; a slice of them
// seeds the "hotspot" placement policy (Config.PlacementHotKeys).
type PlacementHotKey = placement.HotKey

// PlacementPolicies lists the placement policy names, in
// sorted order, for Config.Placement.
func PlacementPolicies() []string { return placement.Names() }

// PlacementSeedFromWhy converts a causality snapshot's hotspot ranking
// (a live WhySnapshot or a prior run's -why JSON export read back with
// ReadWhyJSON) into a seed for the "hotspot" placement policy: the
// limit most-contended records, one entry each, are pinned to shard
// group 0, colocating the hot set so transactions over it stay
// single-shard. A limit ≤ 0 keeps every ranked record. It is the
// conversion a hotspot run with no seed applies to its own probe.
func PlacementSeedFromWhy(s *WhySnapshot, limit int) []PlacementHotKey {
	return bench.HotKeysFrom(s, limit)
}

// Coordinators reports the number of coordinators available.
func (c *Cluster) Coordinators() int { return len(c.coords) }

// Now returns the cluster's current virtual time.
func (c *Cluster) Now() time.Duration {
	if c.dep == nil { // not deployed yet: nothing has run
		return 0
	}
	return time.Duration(c.dep.Env.Now())
}

// Cell value helpers re-exported for building workloads.

// U64 encodes v into the first 8 bytes of an n-byte cell.
func U64(v uint64, n int) []byte { return workload.U64(v, n) }

// GetU64 decodes a cell's leading integer.
func GetU64(b []byte) uint64 { return workload.GetU64(b) }

// PutU64 returns a copy of the cell with its leading integer replaced.
func PutU64(b []byte, v uint64) []byte { return workload.PutU64(b, v) }
