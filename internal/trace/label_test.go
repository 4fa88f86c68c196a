package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"crest/internal/sim"
)

// countingLabel is a lazy wait-queue label that counts how often it is
// asked for its text.
type countingLabel struct{ calls int }

func (l *countingLabel) String() string {
	l.calls++
	return fmt.Sprintf("lazy label #%d", l.calls)
}

// blockedRun parks a process on a lazily labelled queue three times
// with r attached as the environment's observer, and returns the label
// and the "queue" arg of every proc-block event r exports.
func blockedRun(t *testing.T, r *Recorder) (*countingLabel, []string) {
	t.Helper()
	lbl := &countingLabel{}
	q := sim.NewWaitQueue("replaced")
	q.SetLabel(lbl)
	env := sim.NewEnv(1)
	env.SetObserver(r)
	const waits = 3
	env.Spawn("waiter", func(p *sim.Proc) {
		for i := 0; i < waits; i++ {
			q.Wait(p)
		}
	})
	env.Spawn("waker", func(p *sim.Proc) {
		for i := 0; i < waits; i++ {
			p.Sleep(sim.Microsecond)
			q.Wake(1)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Args struct{ Proc, Queue string }
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var queues []string
	for _, e := range doc.TraceEvents {
		if e.Name == "proc-block" {
			if e.Args.Proc != "waiter" {
				t.Errorf("proc-block of %q, want waiter", e.Args.Proc)
			}
			queues = append(queues, e.Args.Queue)
		}
	}
	return lbl, queues
}

// TestProcBlockLabelIsLazy pins WaitQueue.SetLabel's contract at the
// recorder: a label costs nothing on the Wait path unless the event it
// would describe is kept. With ProcEvents off the labeler is never
// asked; with it on every proc-block event carries the label as it read
// at that Wait.
func TestProcBlockLabelIsLazy(t *testing.T) {
	lbl, queues := blockedRun(t, NewRecorder(0))
	if lbl.calls != 0 || len(queues) != 0 {
		t.Errorf("ProcEvents off: labeler asked %d times, %d proc-block events; want 0 and 0", lbl.calls, len(queues))
	}

	r := NewRecorder(0)
	r.ProcEvents = true
	lbl, queues = blockedRun(t, r)
	if lbl.calls != 3 || len(queues) != 3 {
		t.Fatalf("ProcEvents on: labeler asked %d times, %d proc-block events; want 3 and 3", lbl.calls, len(queues))
	}
	for i, q := range queues {
		if want := fmt.Sprintf("lazy label #%d", i+1); q != want {
			t.Errorf("proc-block %d has queue %q, want %q", i, q, want)
		}
	}
}
