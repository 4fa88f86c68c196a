package core

import (
	"strings"
	"testing"

	"crest/internal/layout"
	"crest/internal/sim"
)

// TestWaitLabels pins the three wait labels the core hands the
// simulator lazily — admission queue, dependency wait, object mutex —
// to the strings the eager Sprintfs used to store on every wait: the
// deadlock report reads exactly these.
func TestWaitLabels(t *testing.T) {
	lay := layout.NewRecord(layout.Schema{ID: 3, Name: "t", CellSizes: []int{8, 8}})
	o := newObject(3, 17, 0, lay, nil)
	o.admitting, o.remoteLocks, o.writers, o.readers = true, 0b101, 1, 2
	dep := newTxnState(5, 0, 0)
	dep.tsExec = 9
	if !o.mu.TryLock() {
		t.Fatal("fresh object mutex is held")
	}

	env := sim.NewEnv(1)
	env.Spawn("admit", func(p *sim.Proc) { o.stateQ.Wait(p) })
	env.Spawn("await", func(p *sim.Proc) { dep.await(p) })
	env.Spawn("lock", func(p *sim.Proc) { o.mu.Lock(p) })
	err := env.Run()

	want := []string{
		"admit @ obj 3/17 admitting=true flushing=false locks=101 w=1 r=2",
		"await @ await txn5(tsExec=9,status=0)",
		"lock @ mutex obj 3/17",
	}
	report := "sim: deadlock at 0: 3 process(es) parked forever: [" + strings.Join(want, " ") + "]"
	if err == nil || err.Error() != report {
		t.Errorf("deadlock report:\n%v\nwant:\n%s", err, report)
	}
}
