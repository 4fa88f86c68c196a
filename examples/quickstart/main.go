// Quickstart: build a simulated disaggregated cluster, load a table,
// run transactions through the CREST engine and read the result.
package main

import (
	"fmt"
	"log"

	"crest"
)

const accounts = 1 // table id

func main() {
	// The zero config is the paper's testbed: 2 memory nodes, 3 compute
	// nodes sharing 240 coordinators, one backup per record (f = 1), a
	// 2µs-RTT simulated fabric.
	cluster, err := crest.NewCluster(crest.Config{})
	if err != nil {
		log.Fatal(err)
	}

	// One table: 16 accounts, each a record with two cells
	// (columns): balance and a deposit counter.
	if err := cluster.CreateTable(crest.TableSpec{
		ID: accounts, Name: "accounts", CellSizes: []int{8, 8}, Capacity: 16,
	}); err != nil {
		log.Fatal(err)
	}
	for k := crest.Key(0); k < 16; k++ {
		if err := cluster.Load(accounts, k, [][]byte{crest.U64(1000, 8), crest.U64(0, 8)}); err != nil {
			log.Fatal(err)
		}
	}
	if err := cluster.Finalize(); err != nil {
		log.Fatal(err)
	}

	// A deposit is one op: read-modify-write the balance cell and
	// bump the counter cell. Cell-level concurrency control means a
	// concurrent reader of the counter cell never conflicts with a
	// balance update.
	deposit := func(key crest.Key, amount uint64) *crest.Txn {
		return crest.NewTxn("deposit").AddBlock(crest.Op{
			Table: accounts, Key: key,
			ReadCells:  []int{0, 1},
			WriteCells: []int{0, 1},
			Hook: func(_ any, read [][]byte) [][]byte {
				return [][]byte{
					crest.PutU64(read[0], crest.GetU64(read[0])+amount),
					crest.PutU64(read[1], crest.GetU64(read[1])+1),
				}
			},
		})
	}

	// Run 32 concurrent deposits against the same hot account.
	txns := make([]*crest.Txn, 32)
	for i := range txns {
		txns[i] = deposit(7, 25)
	}
	results, err := cluster.ExecuteAll(txns...)
	if err != nil {
		log.Fatal(err)
	}
	attempts := 0
	for _, r := range results {
		attempts += r.Attempts
	}

	row, err := cluster.ReadRow(accounts, 7, 0, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("account 7: balance=%d deposits=%d\n", crest.GetU64(row[0]), crest.GetU64(row[1]))
	fmt.Printf("32 concurrent deposits took %d attempts total, %v of virtual time\n",
		attempts, cluster.Now())
	if crest.GetU64(row[0]) != 1000+32*25 {
		log.Fatal("lost update!")
	}
	fmt.Println("serializable: no update lost")
}
