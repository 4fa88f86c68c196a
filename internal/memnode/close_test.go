package memnode

import (
	"testing"

	"crest/internal/rdma"
	"crest/internal/sim"
)

// TestPoolCloseClosesEveryNode: after Close a verb against any node of
// any group fails (as against a crashed node; it does not fault), the
// regions show no bytes, and a second Close — or one after a node was
// failed and recovered — changes nothing.
func TestPoolCloseClosesEveryNode(t *testing.T) {
	env := sim.NewEnv(1)
	fabric := rdma.NewFabric(env, rdma.DefaultParams())
	pool, err := NewShardedPool(fabric, 2, 2, 1<<20, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	off := pool.Alloc(64)
	pool.Nodes()[1].Region.Fail()
	pool.Nodes()[1].Region.Recover()
	env.Spawn("verbs", func(p *sim.Proc) {
		qps := make([]*rdma.QP, pool.NumNodes())
		for i, n := range pool.Nodes() {
			qps[i] = fabric.Connect(n.Region)
			if err := qps[i].Write(p, off, []byte{byte(i + 1)}); err != nil {
				t.Errorf("node %d before Close: %v", i, err)
			}
		}
		pool.Close()
		pool.Close()
		for i, n := range pool.Nodes() {
			if n.Region.Bytes() != nil {
				t.Errorf("node %d still exposes %d bytes after Close", i, len(n.Region.Bytes()))
			}
			if _, err := qps[i].Read(p, off, 1); err == nil {
				t.Errorf("node %d: read after Close succeeded", i)
			}
			n.Region.Recover()
			if err := qps[i].Write(p, off, []byte{9}); err == nil {
				t.Errorf("node %d: write after Close and Recover succeeded", i)
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}
