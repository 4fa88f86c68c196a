// Orders: the paper's motivating false-conflict scenario (§2.3).
//
// TPC-C's warehouse table is touched by ~92% of transactions:
// NewOrder only READS the warehouse tax column while Payment UPDATES
// the warehouse YTD column. Under record-level concurrency control
// (FORD) those are conflicts and abort each other; under CREST's
// cell-level concurrency control they run concurrently.
//
// This example runs the same contended mix against both systems and
// prints the abort counts side by side.
package main

import (
	"fmt"
	"log"

	"crest"
)

const warehouse = 1

// Warehouse cells: 0 = name, 1 = tax rate, 2 = year-to-date balance.
func buildCluster(system crest.System) *crest.Cluster {
	cluster, err := crest.NewCluster(crest.Config{
		System:       system,
		Coordinators: 24, // 8 on each of the three compute nodes
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := cluster.CreateTable(crest.TableSpec{
		ID: warehouse, Name: "warehouse", CellSizes: []int{10, 8, 8}, Capacity: 4,
	}); err != nil {
		log.Fatal(err)
	}
	for w := crest.Key(0); w < 4; w++ {
		err := cluster.Load(warehouse, w, [][]byte{
			[]byte("WAREHOUSE "), crest.U64(725, 8), crest.U64(0, 8),
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	if err := cluster.Finalize(); err != nil {
		log.Fatal(err)
	}
	return cluster
}

// newOrder reads the warehouse identification and tax columns — it
// never writes the warehouse.
func newOrder(w crest.Key) *crest.Txn {
	return crest.NewTxn("NewOrder").AddBlock(crest.Op{
		Table: warehouse, Key: w,
		ReadCells: []int{0, 1},
		Hook:      func(_ any, _ [][]byte) [][]byte { return nil },
	})
}

// payment updates only the warehouse YTD column.
func payment(w crest.Key, amount uint64) *crest.Txn {
	return crest.NewTxn("Payment").AddBlock(crest.Op{
		Table: warehouse, Key: w,
		ReadCells:  []int{2},
		WriteCells: []int{2},
		Hook: func(_ any, read [][]byte) [][]byte {
			return [][]byte{crest.PutU64(read[0], crest.GetU64(read[0])+amount)}
		},
	})
}

func run(system crest.System) (attempts int, ytd uint64) {
	cluster := buildCluster(system)
	var txns []*crest.Txn
	for i := 0; i < 60; i++ {
		// Everyone hammers warehouse 0: half order placements, half
		// payments.
		if i%2 == 0 {
			txns = append(txns, newOrder(0))
		} else {
			txns = append(txns, payment(0, 100))
		}
	}
	results, err := cluster.ExecuteAll(txns...)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range results {
		attempts += r.Attempts
	}
	row, err := cluster.ReadRow(warehouse, 0, 2)
	if err != nil {
		log.Fatal(err)
	}
	return attempts, crest.GetU64(row[0])
}

func main() {
	fmt.Println("60 transactions against one hot warehouse (30 NewOrder reads, 30 Payment updates)")
	for _, system := range []crest.System{crest.SystemFORD, crest.SystemCREST} {
		attempts, ytd := run(system)
		fmt.Printf("%-6s: %3d total attempts (%d retries), final YTD = %d\n",
			system, attempts, attempts-60, ytd)
	}
	fmt.Println()
	fmt.Println("FORD treats NewOrder's tax reads and Payment's YTD updates as record")
	fmt.Println("conflicts (false conflicts); CREST's cell-level locks and epochs let")
	fmt.Println("them commit side by side with far fewer retries.")
}
