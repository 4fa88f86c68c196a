package bench

import (
	"fmt"

	"crest/internal/causality"
	"crest/internal/engine"
	"crest/internal/memnode"
	"crest/internal/metrics"
	"crest/internal/placement"
	"crest/internal/rdma"
	"crest/internal/sim"
	"crest/internal/workload"
)

// Deployment is an assembled cluster: a scheduler, the fabric, the
// memory pool and one transaction system over them. Deploy and Start
// are the only place a cluster is built — Run, the one-transaction
// probe and crest.Cluster each keep just what they do with it — so a
// deployment step (a fault hook, a core pool, a new engine) lands once
// and every caller runs the same experiment.
type Deployment struct {
	cfg Config
	// Env is the scheduler of a sequential run and partition 0 of a
	// partitioned one; world is nil unless the run is partitioned.
	Env    *sim.Env
	world  *sim.World
	sched  scheduler
	fabric *rdma.Fabric
	Pool   *memnode.Pool
	db     *engine.DB
	Sys    System
	// views holds each partition's view of db once Start has run; a
	// sequential run is the one-partition case on db itself.
	views []*engine.DB
}

// scheduler is what drives a deployment: its *sim.Env, or the
// *sim.World of a partitioned run.
type scheduler interface {
	RunUntil(sim.Time) error
	Run() error
	Dispatched() uint64
}

// Deploy builds scheduler → fabric → pool → database → system → tables
// for cfg, which it takes literally (Run applies WithDefaults first;
// crest.Cluster must not, its observers record from time zero). Each
// memory node holds what the tables and logs need (PoolBytes).
// partitioned selects the parallel scheduler, one partition per shard
// group (see Config.Partitioned). The caller loads the tables through
// Sys.Load and then calls Start.
func Deploy(cfg Config, tables []workload.TableDef, partitioned bool) (*Deployment, error) {
	pol, err := placement.New(cfg.Placement)
	if err != nil {
		return nil, err
	}
	if hs, ok := pol.(*placement.Hotspot); ok {
		keys := cfg.HotKeys
		// A deployment with a workload seeds itself from a probe of it;
		// one without (crest.Cluster) keeps the keys it was given.
		if len(keys) == 0 && cfg.Workload != nil {
			if keys, err = probeHotKeys(cfg); err != nil {
				return nil, err
			}
		}
		hs.Seed(keys)
	}
	d := &Deployment{cfg: cfg}
	// A partitioned run builds one scheduler partition per shard group
	// (conservative lookahead = the fabric's one-way minimum); any
	// other run uses the classic sequential scheduler, byte-for-byte.
	if partitioned {
		d.world = sim.NewWorld(cfg.Seed, cfg.Shards, cfg.Params.Lookahead())
		d.world.SetWorkers(cfg.Workers)
		d.Env, d.sched = d.world.Env(0), d.world
	} else {
		d.Env = sim.NewEnv(cfg.Seed)
		d.sched = d.Env
	}
	d.fabric = rdma.NewFabric(d.Env, cfg.Params)
	d.Pool, err = memnode.NewShardedPool(d.fabric, cfg.Shards, cfg.MemNodes, PoolBytes(tables, cfg.Coordinators), cfg.Replicas, pol)
	if err != nil {
		return nil, err
	}
	d.db = engine.NewDB(d.Pool)
	d.db.Attach(cfg.observers(), d.Env, cfg.Warmup)
	if cfg.Metrics != nil && d.world != nil {
		registerWorldProbes(cfg.Metrics, d.world, d.fabric)
	}
	if d.Sys, err = NewSystem(cfg.System, d.db); err != nil {
		d.Close()
		return nil, err
	}
	for _, def := range tables {
		d.Sys.CreateTable(def.Schema, def.Capacity)
	}
	return d, nil
}

// Close ends the deployment once its run is over: the memory pool's
// regions go back to the system and any verb still posted fails. The
// callers that know when a run ends (Run, the one-transaction probe)
// call it; a deployment nobody closes (crest.Cluster) gives its
// regions back when the collector finds it unreachable. Closing twice
// is harmless.
func (d *Deployment) Close() { d.Pool.Close() }

// Seat is one coordinator of a started deployment and where it runs.
type Seat struct {
	engine.Coordinator
	Env  *sim.Env // the scheduler partition its compute node lives in
	Node int      // compute node
	Slot int      // index among that node's coordinators
	Part int      // index of Env's partition; 0 on a sequential run
}

// Start ends the load and brings up the compute side: FinishLoad →
// partition views → compute nodes (address caches warmed) →
// coordinators, in the order queue-pair ids and log segments are pinned
// to. Seats come back in creation order.
func (d *Deployment) Start() ([]Seat, error) {
	if err := d.Sys.FinishLoad(); err != nil {
		return nil, err
	}
	// Partition views are created after the load so their timestamp
	// oracles floor above every load-time draw. A sequential run keeps
	// the root database and its dense oracle: a one-partition world
	// would not be byte-equal to it.
	envs, views := []*sim.Env{d.Env}, []*engine.DB{d.db}
	if d.world != nil {
		envs, views = make([]*sim.Env, d.world.Parts()), make([]*engine.DB, d.world.Parts())
		for i := range views {
			envs[i] = d.world.Env(i)
			views[i] = d.db.PartitionView(envs[i], i)
		}
	}
	d.views = views
	seats := make([]Seat, 0, d.cfg.Coordinators)
	seq := make([]int, len(views))
	for cn := 0; cn < d.cfg.CompNodes; cn++ {
		// Every coordinator of one compute node lives in one partition,
		// so compute-node state (record caches, address caches) stays
		// single-threaded.
		part := cn % len(views)
		node := d.Sys.NewPartitionComputeNode(cn, views[part])
		node.WarmCache()
		for i := 0; i < d.cfg.coordsOnNode(cn); i++ {
			// Strided coordinator ids keep each coordinator's log in its
			// own partition's shard group (the log home group is id mod
			// shards), so commits stay partition-local. With one
			// partition they are the plain creation counter.
			id := part + len(views)*seq[part]
			seq[part]++
			seats = append(seats, Seat{Coordinator: node.NewCoordinator(id), Env: envs[part], Node: cn, Slot: i, Part: part})
		}
	}
	return seats, nil
}

// registerWorldProbes exports the window executor's schedule-derived
// introspection through the metrics registry of a partitioned metered
// run: per-partition dispatch/injection counters, mailbox high-water
// marks and cross-partition verb counts on each partition's shard
// registry, plus the world-wide window counters on partition 0's. Only
// schedule-derived values are registered — wall-clock timings (barrier
// waits, busy time) surface exclusively through Result.Runtime, so the
// metrics export stays byte-identical at any worker count.
func registerWorldProbes(reg *metrics.Registry, world *sim.World, fabric *rdma.Fabric) {
	parts := world.Parts()
	for i := 0; i < parts; i++ {
		part := i
		shard := reg.Shard(part, parts)
		label := fmt.Sprintf(`partition="%d"`, part)
		penv := world.Env(part)
		shard.CounterFunc("crest_sim_part_dispatches_total", label,
			"Events dispatched, by partition.",
			func() uint64 { return penv.Dispatched() })
		shard.CounterFunc("crest_sim_part_injected_total", label,
			"Cross-partition messages injected at barriers, by target partition.",
			func() uint64 { return world.PartInjected(part) })
		shard.GaugeFunc("crest_sim_part_mailbox_hwm", label,
			"Largest single-barrier incoming message batch, by partition.",
			func() int64 { return int64(world.PartMailboxHWM(part)) })
		shard.CounterFunc("crest_rdma_cross_part_verbs_total", label,
			"Verbs posted whose target region lives in another partition, by issuing partition.",
			func() uint64 { return fabric.CrossLaneStats(part).Total() })
	}
	shard0 := reg.Shard(0, parts)
	shard0.CounterFunc("crest_sim_windows_total", "",
		"Conservative time windows executed.", world.Windows)
	shard0.GaugeFunc("crest_sim_window_width_avg", "",
		"Mean window width in virtual time units (lookahead efficiency).",
		func() int64 { return int64(world.WindowWidthAvg()) })
}

// probeHotKeys derives a hotspot-placement seed when the caller gave
// none: it runs a short deterministic slice of the same workload under
// modulo placement with a causality recorder and pins the recorder's
// hottest keys (at most memnode.MaxShards of them) to shard group 0,
// colocating the hot set. The probe is a separate simulation with its
// own virtual clock, so it adds no events and no randomness to the
// measured run.
func probeHotKeys(cfg Config) ([]placement.HotKey, error) {
	probe := cfg
	probe.Placement = "modulo"
	probe.HotKeys = nil
	probe.Why = causality.NewRecorder(causality.Options{})
	probe.Trace = nil
	probe.Metrics = nil
	probe.Flight = nil
	probe.CheckHistory = false
	probe.Duration = 4 * sim.Millisecond
	probe.Warmup = sim.Millisecond
	if _, err := Run(probe); err != nil {
		return nil, fmt.Errorf("bench: hotspot placement probe: %w", err)
	}
	return HotKeysFrom(probe.Why.Snapshot(), memnode.MaxShards), nil
}

// HotKeysFrom converts a causality snapshot's hotspot ranking into a
// seed for the "hotspot" placement policy: the limit most-contended
// records are pinned to shard group 0, colocating the hot set so
// transactions over it stay single-shard. The ranking is per cell, so
// a record keeps the place of its first-ranked cell and its other cells
// are skipped. A limit ≤ 0 keeps every ranked record.
func HotKeysFrom(s *causality.Snapshot, limit int) []placement.HotKey {
	var keys []placement.HotKey
	seen := map[placement.HotKey]bool{}
	for _, h := range s.Graph().Hotspots {
		if limit > 0 && len(keys) == limit {
			break
		}
		k := placement.HotKey{Table: h.Table, Key: h.Key, Shard: 0}
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}
