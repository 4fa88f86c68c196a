package bench

import (
	"fmt"
	"testing"

	"crest/internal/layout"
)

// TestLocksFreeAtQuiescence: a run that has drained holds no lock.
// Every lock word of every record reads zero on every replica — for
// full CREST and its ablations every cell-lock bit, for FORD and Motor
// the record's owner — on each engine, sequential and sharded, at
// three seeds of skewed SmallBank. The pool is read before Run gives it
// back.
func TestLocksFreeAtQuiescence(t *testing.T) {
	lockOff := map[SystemKind]uint64{CREST: layout.OffLock, CRESTCell: layout.OffLock, CRESTBase: layout.OffLock,
		FORD: layout.BOffLock, Motor: layout.BOffLock}
	for _, system := range []SystemKind{CREST, CRESTCell, CRESTBase, FORD, Motor} {
		for _, shards := range []int{1, 4} {
			for _, seed := range []int64{1, 2, 3} {
				t.Run(fmt.Sprintf("%s/smallbank/shards%d/seed%d", system, shards, seed), func(t *testing.T) {
					cfg := shardedCfg(system, shards, "modulo")
					cfg.Seed = seed
					records, locked := 0, 0
					quiesced = func(d *Deployment) {
						for _, def := range cfg.Workload().Tables() {
							d.db.Table(def.Schema.ID).Keys(func(key layout.Key, _ uint64) {
								records++
								if w := lockWord(d.db, def.Schema.ID, key, lockOff[system]); w != 0 && locked < 5 {
									locked++
									t.Errorf("table %d key %d: lock word %#x at quiescence", def.Schema.ID, key, w)
								}
							})
						}
					}
					defer func() { quiesced = nil }()
					res, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if res.Committed == 0 || res.Aborted == 0 || records == 0 {
						t.Fatalf("%d commits, %d aborts, %d records read: the run tests nothing", res.Committed, res.Aborted, records)
					}
				})
			}
		}
	}
}
