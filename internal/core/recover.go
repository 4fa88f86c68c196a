package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"

	"crest/internal/layout"
	"crest/internal/memnode"
)

// recoveryLog locates one coordinator's redo-log segment and the nodes
// holding its replicas.
type recoveryLog struct {
	seg   *memnode.LogSegment
	nodes []*memnode.Node
}

// RecoveryReport summarizes a crash-recovery pass (§6: dependency-
// tracking redo-logging).
type RecoveryReport struct {
	Entries       int // log entries scanned
	Committed     int // transactions rolled forward (or already applied)
	Orphaned      int // logged transactions missing a dependency's log
	CellsRepaired int // cell values whose write-back had not landed
	LocksCleared  int // records whose lock word held stale bits
}

// Recover restores the memory pool to a consistent committed snapshot
// after compute nodes crash: it scans every coordinator's redo-log
// segment, keeps exactly the transactions whose dependency closure is
// fully logged, rolls their updates forward in commit-timestamp order,
// and clears stale lock bits. It is idempotent — a second pass repairs
// nothing.
//
// Recovery runs offline against the surviving memory nodes' regions
// (the recovery coordinator reads logs and writes records; verb
// accounting is irrelevant to the paper's experiments here).
func (s *System) Recover() (RecoveryReport, error) {
	var rep RecoveryReport
	type entry struct {
		ts   uint64
		deps []uint64
		recs []logRecord
	}
	logged := map[uint64]*entry{}

	for _, rl := range s.logs {
		var buf []byte
		for _, n := range rl.nodes {
			if !n.Region.Failed() {
				buf = n.Region.Bytes()[rl.seg.Base : rl.seg.Base+uint64(rl.seg.Size)]
				break
			}
		}
		if buf == nil {
			return rep, fmt.Errorf("core: all replicas of a log segment are down")
		}
		for off := 0; off < len(buf); {
			txnID, ts, deps, recs, n, err := decodeLogEntry(buf[off:])
			if err != nil || n == 0 {
				break // end of the valid prefix
			}
			rep.Entries++
			if prev, dup := logged[txnID]; dup && prev.ts >= ts {
				off += n
				continue
			}
			logged[txnID] = &entry{ts: ts, deps: deps, recs: recs}
			off += n
		}
	}

	// A transaction is committed iff its whole dependency closure is
	// logged (fixpoint over the dependency edges).
	committed := map[uint64]bool{}
	for changed := true; changed; {
		changed = false
		for id, e := range logged {
			if committed[id] {
				continue
			}
			ok := true
			for _, d := range e.deps {
				if _, loggedDep := logged[d]; !loggedDep {
					ok = false
					break
				}
			}
			if ok {
				committed[id] = true
				changed = true
			}
		}
	}
	rep.Committed = len(committed)
	rep.Orphaned = len(logged) - len(committed)

	// Roll forward in commit-timestamp order; the per-cell timestamp
	// guard makes already-applied updates no-ops.
	ids := make([]uint64, 0, len(committed))
	for id := range committed {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return logged[ids[i]].ts < logged[ids[j]].ts })
	for _, id := range ids {
		e := logged[id]
		for _, rec := range e.recs {
			if err := s.rollForward(rec, e.ts, &rep); err != nil {
				return rep, err
			}
		}
	}

	// Clear stale lock bits left by crashed coordinators.
	for _, tab := range s.db.Tables {
		lay := s.layouts[tab.Schema.ID]
		tab.Keys(func(key layout.Key, off uint64) {
			for _, n := range s.db.Pool.ReplicaNodes(tab.Schema.ID, key) {
				if n.Region.Failed() {
					continue
				}
				buf := n.Region.Bytes()
				if lock := layout.ReadWord(buf, int(off)+layout.OffLock); lock&^layout.DeleteMask != 0 {
					layout.PutWord(buf, int(off)+layout.OffLock, lock&layout.DeleteMask)
					rep.LocksCleared++
				}
			}
		})
		_ = lay
	}
	return rep, nil
}

// rollForward applies one logged record update wherever the pool's
// cell is older than the logged commit timestamp.
func (s *System) rollForward(rec logRecord, ts uint64, rep *RecoveryReport) error {
	tab, ok := s.db.Tables[rec.Table]
	if !ok {
		return fmt.Errorf("core: recovery found unknown table %d", rec.Table)
	}
	lay := s.layouts[rec.Table]
	off, found := tab.AddrOf(rec.Key)
	if !found {
		return fmt.Errorf("core: recovery found unknown key %d in table %d", rec.Key, rec.Table)
	}
	vi := 0
	for m := rec.Mask; m != 0; m &= m - 1 {
		cell := bits.TrailingZeros64(m)
		val := rec.Vals[vi]
		vi++
		if cell >= lay.NumCells() || len(val) != lay.CellSize(cell) {
			return fmt.Errorf("core: recovery log cell %d mismatches schema of table %d", cell, rec.Table)
		}
		for _, n := range s.db.Pool.ReplicaNodes(rec.Table, rec.Key) {
			if n.Region.Failed() {
				continue
			}
			buf := n.Region.Bytes()[off:]
			cur := layout.GetCellVersion(buf[lay.CellOff(cell):])
			if cur.TS >= ts {
				continue
			}
			en := cur.EN + 1
			layout.PutCellVersion(buf[lay.CellOff(cell):], layout.CellVersion{EN: en, TS: ts})
			copy(buf[lay.CellValueOff(cell):], val)
			binary.LittleEndian.PutUint16(buf[lay.ENOff(cell):], en)
			rep.CellsRepaired++
		}
	}
	return nil
}

// Resync rebuilds a recovered memory node's region from the surviving
// replicas: every record whose replica set includes the node is copied
// from a healthy peer, and the node's copies of the mirrored hash
// indexes come along with the records (index contents are identical on
// every node, so the copy uses the same offsets). Run after the node's
// region is reachable again and after Recover has rolled the pool
// forward.
func (s *System) Resync(nodeID int) (records int, err error) {
	nodes := s.db.Pool.Nodes()
	if nodeID < 0 || nodeID >= len(nodes) {
		return 0, fmt.Errorf("core: no memory node %d", nodeID)
	}
	target := nodes[nodeID]
	if target.Region.Failed() {
		return 0, fmt.Errorf("core: memory node %d still marked failed", nodeID)
	}
	for _, tab := range s.db.Tables {
		lay := s.layouts[tab.Schema.ID]
		var copyErr error
		tab.Keys(func(key layout.Key, off uint64) {
			if copyErr != nil {
				return
			}
			replicas := s.db.Pool.ReplicaNodes(tab.Schema.ID, key)
			member := false
			var source *memnode.Node
			for _, n := range replicas {
				if n == target {
					member = true
				} else if source == nil && !n.Region.Failed() {
					source = n
				}
			}
			if !member {
				return
			}
			if source == nil {
				copyErr = fmt.Errorf("core: no healthy replica for %d/%d", tab.Schema.ID, key)
				return
			}
			copy(target.Region.Bytes()[off:off+uint64(lay.Size())],
				source.Region.Bytes()[off:off+uint64(lay.Size())])
			records++
		})
		if copyErr != nil {
			return records, copyErr
		}
		// Mirror the table's index region from a healthy node of the
		// target's own shard group — each group's index copy holds only
		// the keys that group owns, so another group's copy would
		// resurrect the wrong entries.
		src := otherHealthy(s.db.Pool.GroupNodes(s.db.Pool.ShardOfNode(nodeID)), target)
		if src == nil {
			return records, fmt.Errorf("core: no healthy node to copy indexes from")
		}
		base, size := tab.IndexRegion()
		copy(target.Region.Bytes()[base:base+uint64(size)], src.Region.Bytes()[base:base+uint64(size)])
	}
	return records, nil
}

func otherHealthy(nodes []*memnode.Node, target *memnode.Node) *memnode.Node {
	for _, n := range nodes {
		if n != target && !n.Region.Failed() {
			return n
		}
	}
	return nil
}
