// Recovery: demonstrate CREST's dependency-tracking redo logs (§6 of
// the paper) surviving a memory-node failure.
//
// The example commits a chain of dependent transfers, fails one memory
// node, and runs crash recovery from the surviving log replicas: every
// committed transaction is rolled forward and stale locks are cleared.
package main

import (
	"fmt"
	"log"

	"crest"
)

const ledger = 1

func main() {
	cluster, err := crest.NewCluster(crest.Config{
		MemNodes: 3,
		Replicas: 1, // every record and log entry has one backup
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := cluster.CreateTable(crest.TableSpec{
		ID: ledger, Name: "ledger", CellSizes: []int{8}, Capacity: 8,
	}); err != nil {
		log.Fatal(err)
	}
	for k := crest.Key(0); k < 8; k++ {
		if err := cluster.Load(ledger, k, [][]byte{crest.U64(100, 8)}); err != nil {
			log.Fatal(err)
		}
	}
	if err := cluster.Finalize(); err != nil {
		log.Fatal(err)
	}

	// A chain of dependent transfers along the ring of accounts:
	// account k hands 10·k to account k+1.
	var txns []*crest.Txn
	for k := crest.Key(0); k < 7; k++ {
		k := k
		txns = append(txns, crest.NewTxn("hop").AddBlock(
			crest.Op{
				Table: ledger, Key: k, ReadCells: []int{0}, WriteCells: []int{0},
				Hook: func(_ any, read [][]byte) [][]byte {
					return [][]byte{crest.PutU64(read[0], crest.GetU64(read[0])-10)}
				},
			},
			crest.Op{
				Table: ledger, Key: k + 1, ReadCells: []int{0}, WriteCells: []int{0},
				Hook: func(_ any, read [][]byte) [][]byte {
					return [][]byte{crest.PutU64(read[0], crest.GetU64(read[0])+10)}
				},
			},
		))
	}
	if _, err := cluster.ExecuteAll(txns...); err != nil {
		log.Fatal(err)
	}
	fmt.Println("committed 7 dependent transfers")

	// A memory node crashes. Its replicas survive elsewhere.
	if err := cluster.FailMemoryNode(0); err != nil {
		log.Fatal(err)
	}
	fmt.Println("memory node 0 failed")

	report, err := cluster.Recover()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovery: %d log entries scanned, %d transactions committed, "+
		"%d orphaned, %d cells rolled forward, %d stale locks cleared\n",
		report.Entries, report.Committed, report.Orphaned,
		report.CellsRepaired, report.LocksCleared)

	if err := cluster.RestoreMemoryNode(0); err != nil {
		log.Fatal(err)
	}
	total := uint64(0)
	for k := crest.Key(0); k < 8; k++ {
		row, err := cluster.ReadRow(ledger, k, 0)
		if err != nil {
			log.Fatal(err)
		}
		total += crest.GetU64(row[0])
	}
	fmt.Printf("ledger total after recovery: %d (invariant: 800)\n", total)
	if total != 800 {
		log.Fatal("money not conserved across recovery")
	}
}
