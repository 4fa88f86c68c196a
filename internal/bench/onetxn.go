package bench

import (
	"fmt"

	"crest/internal/rdma"
	"crest/internal/sim"
)

// oneTxnVerbs loads the configured workload, executes exactly one
// transaction on one coordinator with no contention, and returns the
// verbs that attempt issued — the measurement behind Table 2.
func oneTxnVerbs(cfg Config) (rdma.Stats, error) {
	cfg = cfg.WithDefaults()
	cfg.CompNodes, cfg.Coordinators = 1, 1
	gen := cfg.Workload()
	d, err := Deploy(cfg, gen.Tables(), false)
	if err != nil {
		return rdma.Stats{}, err
	}
	defer d.Close()
	d.load(gen)
	seats, err := d.Start()
	if err != nil {
		return rdma.Stats{}, err
	}
	var verbs rdma.Stats
	var attemptErr error
	d.Env.Spawn("one-txn", func(p *sim.Proc) {
		verbs0 := d.fabric.Stats()
		a := seats[0].Execute(p, gen.Next(p.Rand()))
		if !a.Committed {
			attemptErr = fmt.Errorf("bench: uncontended txn aborted: %v", a.Reason)
		}
		verbs = d.fabric.Stats().Sub(verbs0)
	})
	if err := d.Env.Run(); err != nil {
		return rdma.Stats{}, err
	}
	return verbs, attemptErr
}
