package engine

import (
	"strconv"

	"crest/internal/metrics"
	"crest/internal/rdma"
	"crest/internal/sim"
)

// instruments is the engine-level instrument bundle of an Observers
// value. It is a value struct of nil-safe instrument handles: without a
// metrics registry every field is nil and every call through it is a
// no-op. All three engines share the bundle because they share the
// attempt timer, the hook vocabulary and the abort-reason vocabulary.
type instruments struct {
	// Active tracks transaction attempts currently executing (between
	// BeginAttempt and Done).
	Active *metrics.Gauge
	// LockWaiters tracks coordinators blocked waiting for a local lock
	// (the lock-wait depth: how deep the convoy behind held locks is).
	LockWaiters *metrics.Gauge

	// Attempts counts attempts started; Commits counts attempts that
	// committed; Retries counts failed attempts (each failed attempt is
	// retried by the harness, so the two totals coincide).
	Attempts *metrics.Counter
	Commits  *metrics.Counter
	Retries  *metrics.Counter
	// Aborts breaks failed attempts down by AbortReason (indexed by the
	// reason value); FalseAborts counts the subset whose conflicting
	// transaction touched disjoint cells of the same record.
	Aborts      [AbortWait + 1]*metrics.Counter
	FalseAborts *metrics.Counter

	// LockAcquires counts locks granted (local or remote CAS wins);
	// LockConflicts counts lock attempts that lost to another holder;
	// Piggybacks counts lock grants carried on CREST piggyback messages
	// instead of dedicated round-trips.
	LockAcquires  *metrics.Counter
	LockConflicts *metrics.Counter
	Piggybacks    *metrics.Counter

	// LatencyUs is the committed-attempt latency distribution in virtual
	// microseconds.
	LatencyUs *metrics.Histogram

	// CrossShardTxns counts write attempts whose records span shard
	// groups (they pay the cross-shard prepare round at commit);
	// CrossShardAborts counts the subset that aborted.
	CrossShardTxns   *metrics.Counter
	CrossShardAborts *metrics.Counter
	// ShardActive and ShardCommits break attempts down by home shard
	// group, one labeled series per group. Registered only on sharded
	// topologies so single-group runs export exactly the historical
	// series set.
	ShardActive  []*metrics.Gauge
	ShardCommits []*metrics.Counter
}

// newInstruments registers the engine instruments in r for a pool of
// the given shard-group count. A nil registry yields the disabled
// (zero) bundle; registering twice is idempotent.
func newInstruments(r *metrics.Registry, shards int) instruments {
	if r == nil {
		return instruments{}
	}
	m := instruments{
		Active: r.Gauge("crest_txn_active", "",
			"Transaction attempts currently executing."),
		LockWaiters: r.Gauge("crest_txn_lock_waiters", "",
			"Coordinators blocked waiting for a local record lock."),
		Attempts: r.Counter("crest_txn_attempts_total", "",
			"Transaction attempts started."),
		Commits: r.Counter("crest_txn_commits_total", "",
			"Transaction attempts committed."),
		Retries: r.Counter("crest_txn_retries_total", "",
			"Transaction attempts aborted and retried."),
		FalseAborts: r.Counter("crest_txn_false_aborts_total", "",
			"Aborts whose conflicting transaction touched disjoint cells."),
		LockAcquires: r.Counter("crest_lock_acquires_total", "",
			"Record locks granted."),
		LockConflicts: r.Counter("crest_lock_conflicts_total", "",
			"Record lock attempts that lost to another holder."),
		Piggybacks: r.Counter("crest_lock_piggybacks_total", "",
			"Lock grants piggybacked on existing messages (CREST)."),
		LatencyUs: r.Histogram("crest_txn_latency_us", "",
			"Committed-attempt latency in virtual microseconds.", nil),
	}
	for reason := AbortLockFail; reason <= AbortWait; reason++ {
		m.Aborts[reason] = r.Counter("crest_txn_aborts_total",
			`reason="`+reason.String()+`"`,
			"Transaction attempts aborted, by reason.")
	}
	m.CrossShardTxns = r.Counter("crest_txn_cross_shard_total", "",
		"Write attempts whose records span shard groups.")
	m.CrossShardAborts = r.Counter("crest_txn_cross_shard_aborts_total", "",
		"Cross-shard write attempts that aborted.")
	if shards > 1 {
		for g := 0; g < shards; g++ {
			label := `shard="` + strconv.Itoa(g) + `"`
			m.ShardActive = append(m.ShardActive, r.Gauge(
				"crest_shard_txn_active", label,
				"Attempts currently executing, by home shard group."))
			m.ShardCommits = append(m.ShardCommits, r.Counter(
				"crest_shard_commits_total", label,
				"Committed attempts, by home shard group."))
		}
	}
	return m
}

// beginAttempt records an attempt starting on home shard group.
func (m *instruments) beginAttempt(shard int) {
	m.Active.Inc()
	m.Attempts.Inc()
	if shard >= 0 && shard < len(m.ShardActive) {
		m.ShardActive[shard].Inc()
	}
}

// crossShard records an attempt discovering it spans shard groups.
func (m *instruments) crossShard() {
	m.CrossShardTxns.Inc()
}

// fail records an attempt aborting for reason.
func (m *instruments) fail(reason AbortReason, falseConflict, crossShard bool) {
	m.Retries.Inc()
	if reason >= AbortNone && int(reason) < len(m.Aborts) {
		m.Aborts[reason].Inc()
	}
	if falseConflict {
		m.FalseAborts.Inc()
	}
	if crossShard {
		m.CrossShardAborts.Inc()
	}
}

// done records an attempt finishing; committed attempts contribute
// their latency and their home shard group's commit counter.
func (m *instruments) done(committed bool, latency sim.Duration, shard int) {
	m.Active.Dec()
	if shard >= 0 && shard < len(m.ShardActive) {
		m.ShardActive[shard].Dec()
	}
	if committed {
		m.Commits.Inc()
		m.LatencyUs.Observe(int64(latency) / int64(sim.Microsecond))
		if shard >= 0 && shard < len(m.ShardCommits) {
			m.ShardCommits[shard].Inc()
		}
	}
}

// fabricInstruments is one fabric lane's instrument bundle: in-flight
// verbs, per-verb and per-node counters, and doorbell batch shape
// histograms. All counting happens at post time (requested sizes),
// mirroring the Stats counters a successful batch accrues.
type fabricInstruments struct {
	inflight   *metrics.Gauge
	rtts       *metrics.Counter
	verbs      [rdma.OpMaskedCAS + 1]*metrics.Counter // indexed by OpKind
	bytesRead  *metrics.Counter
	bytesWrite *metrics.Counter
	batchOps   *metrics.Histogram
	batchBytes *metrics.Histogram
	nodeVerbs  []*metrics.Counter // indexed by region id
	nodeBytes  []*metrics.Counter
}

// newFabricInstruments registers the fabric bundle on r, with per-node
// counters for regions; a nil registry yields nil.
func newFabricInstruments(r *metrics.Registry, regions []*rdma.Region) *fabricInstruments {
	if r == nil {
		return nil
	}
	fm := &fabricInstruments{
		inflight: r.Gauge("crest_rdma_inflight_verbs", "",
			"One-sided verbs posted and not yet completed."),
		rtts: r.Counter("crest_rdma_rtts_total", "",
			"Doorbell-batch round trips issued."),
	}
	for k := rdma.OpRead; k <= rdma.OpMaskedCAS; k++ {
		fm.verbs[k] = r.Counter("crest_rdma_verbs_total",
			`verb="`+k.String()+`"`, "One-sided verbs posted, by verb.")
	}
	fm.bytesRead = r.Counter("crest_rdma_read_bytes_total", "",
		"Payload bytes requested by READ verbs.")
	fm.bytesWrite = r.Counter("crest_rdma_write_bytes_total", "",
		"Payload bytes carried by WRITE verbs.")
	fm.batchOps = r.Histogram("crest_rdma_batch_ops", "",
		"Verbs per doorbell batch.", metrics.LogLinearBounds(1, 64, 2))
	fm.batchBytes = r.Histogram("crest_rdma_batch_bytes", "",
		"Payload bytes per doorbell batch.", metrics.LogLinearBounds(8, 1<<16, 2))
	for _, reg := range regions {
		label := `node="` + reg.Name() + `",id="` + strconv.Itoa(reg.ID()) + `"`
		fm.nodeVerbs = append(fm.nodeVerbs, r.Counter(
			"crest_rdma_node_verbs_total", label, "One-sided verbs posted, by target node."))
		fm.nodeBytes = append(fm.nodeBytes, r.Counter(
			"crest_rdma_node_bytes_total", label, "Payload bytes posted, by target node."))
	}
	return fm
}

// post counts one doorbell batch at issue time.
func (fm *fabricInstruments) post(b rdma.Batch) {
	fm.inflight.Add(int64(len(b.Ops)))
	fm.rtts.Inc()
	fm.batchOps.Observe(int64(len(b.Ops)))
	fm.batchBytes.Observe(int64(b.Payload()))
	node := b.QP.Region().ID()
	for i := range b.Ops {
		op := &b.Ops[i]
		fm.verbs[op.Kind].Inc()
		n := uint64(op.Bytes())
		switch op.Kind {
		case rdma.OpRead:
			fm.bytesRead.Add(n)
		case rdma.OpWrite:
			fm.bytesWrite.Add(n)
		}
		fm.nodeVerbs[node].Inc()
		fm.nodeBytes[node].Add(n)
	}
}

// complete retires a batch's verbs from the in-flight gauge at the
// completion instant.
func (fm *fabricInstruments) complete(b rdma.Batch) {
	fm.inflight.Add(-int64(len(b.Ops)))
}
