package crest

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"crest/internal/pin"
)

// clusterDigest runs the fixed bank load and ExecuteAll batch on one
// topology and digests, in order: every Result with the virtual end
// time, the Chrome trace, the metrics CSV, the crest-why JSON and the
// crest-flight JSON.
func clusterDigest(t *testing.T, system System, shards int) string {
	t.Helper()
	cfg := Config{ObserverOptions: ObserverOptions{Trace: true, Why: true, Flight: true,
		// The batch is over in well under the default 100µs window.
		Metrics: true, MetricsWindow: 10 * time.Microsecond}}
	if shards > 1 {
		cfg.Shards, cfg.Placement = shards, "modulo"
	}
	c := newShardedBank(t, system, 16, cfg)
	// Transfers that collide on a few accounts (retries, waits, aborts)
	// beside ones that do not, more of them than coordinators so the
	// round-robin wraps.
	var txns []*Txn
	for i := 0; i < 40; i++ {
		txns = append(txns, transfer(Key(i%3), Key(3+i%5), uint64(1+i%2)))
		if i%4 == 0 {
			txns = append(txns, transfer(Key(8+i%8), Key((9+i)%16), 1))
		}
	}
	results, err := c.ExecuteAll(txns...)
	if err != nil {
		t.Fatal(err)
	}
	var parts []string
	part := func(write func(io.Writer) error) {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		parts = append(parts, hex.EncodeToString(sum[:4]))
	}
	part(func(w io.Writer) error {
		for _, r := range results {
			fmt.Fprintf(w, "%t %d %d\n", r.Committed, r.Attempts, r.Latency)
		}
		_, err := fmt.Fprintf(w, "now %d\n", c.Now())
		return err
	})
	part(func(w io.Writer) error { return WriteChromeTrace(w, c.TraceSnapshot()) })
	part(func(w io.Writer) error { return WriteMetricsCSV(w, c.MetricsSnapshot()) })
	part(func(w io.Writer) error { return WriteWhyJSON(w, c.WhySnapshot()) })
	part(func(w io.Writer) error { return WriteFlightJSON(w, c.FlightSnapshot()) })
	return strings.Join(parts, " ")
}

// TestClusterDigests holds the public-API path (NewCluster → Load →
// Finalize → ExecuteAll, all four observers on) to testdata/cluster.digest.
// Its rows were generated at the commit before crest.Cluster moved onto
// the bench harness's assembly; a refactor of that assembly must not
// edit them. A changed coordinator or queue-pair creation order, a
// changed log segment, or an observer attached with a nonzero warmup all
// move them. Columns 2, 4 and 5 (trace, why, flight) were re-pinned
// once, when ExecuteAll stopped building a fresh engine transaction per
// attempt and the observers began to see its retries as retries.
func TestClusterDigests(t *testing.T) {
	got := map[string]string{}
	for _, system := range []System{SystemCREST, SystemCRESTCell, SystemCRESTBase, SystemFORD, SystemMotor} {
		for _, shards := range []int{1, 2} {
			name := fmt.Sprintf("%s/%d", system, shards)
			t.Run(name, func(t *testing.T) { got[name] = clusterDigest(t, system, shards) })
		}
	}
	pin.Rows(t, "testdata/cluster.digest", got)
}
