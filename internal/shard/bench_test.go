package shard

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/kdb"
	"repro/internal/telemetry"
)

// ingestWorkload pushes batches of rows through conn from p parallel
// writers — the campaign scheduler's ingest shape.
func ingestWorkload(b *testing.B, conn kdb.Conn, writers, batchesPerWriter, rowsPerBatch int) {
	b.Helper()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for bi := 0; bi < batchesPerWriter; bi++ {
				fn := func(exec kdb.ExecFunc) error {
					for r := 0; r < rowsPerBatch; r++ {
						if _, err := exec("INSERT INTO runs (campaign, unit, v) VALUES (?, ?, ?)",
							fmt.Sprintf("c%d", w), int64(bi*rowsPerBatch+r), float64(r)); err != nil {
							return err
						}
					}
					return nil
				}
				if err := kdb.BatchKeyed(conn, HashString(fmt.Sprintf("c%d-%d", w, bi)), fn); err != nil {
					b.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkShardedIngest compares parallel batched ingest into a 4-shard
// coordinator against a single primary. Reported rows/s is the figure
// EXPERIMENTS.md E10 tracks; the sharded variant should exceed the single
// primary by >=2.5x on 4 shards since batches hash across independent
// write locks and logs.
func BenchmarkShardedIngest(b *testing.B) {
	const (
		writers      = 8
		rowsPerBatch = 50
	)
	run := func(b *testing.B, conn kdb.Conn) {
		if _, err := conn.Exec("CREATE TABLE runs (id INTEGER PRIMARY KEY, campaign TEXT, unit INTEGER, v REAL)"); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		ingestWorkload(b, conn, writers, b.N, rowsPerBatch)
		b.StopTimer()
		b.ReportMetric(float64(b.N*writers*rowsPerBatch)/b.Elapsed().Seconds(), "rows/s")
	}
	b.Run("single", func(b *testing.B) {
		db, err := kdb.Open(b.TempDir() + "/single.kdb")
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		run(b, db)
	})
	b.Run("shards=4", func(b *testing.B) {
		dir := b.TempDir()
		var conns []kdb.Conn
		for i := 0; i < 4; i++ {
			db, err := kdb.OpenWithOptions(fmt.Sprintf("%s/s%d.kdb", dir, i),
				kdb.DBOptions{AutoIDOffset: int64(i), AutoIDStride: 4})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			conns = append(conns, db)
		}
		coord, err := New(conns...)
		if err != nil {
			b.Fatal(err)
		}
		run(b, coord)
	})
	// The remote-shaped pair models the served deployment: each shard is
	// reached over one connection that serializes round trips (exactly
	// kdb.Remote's contract) and each round trip pays the network RTT.
	// This is where sharding's ingest win lives even on few cores: four
	// connections keep four RTTs in flight where a single primary's one
	// connection admits one.
	const rtt = 500 * time.Microsecond
	b.Run("single-remote-shaped", func(b *testing.B) {
		db, err := kdb.Open(b.TempDir() + "/single.kdb")
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		run(b, &remoteShapedConn{Conn: db, rtt: rtt})
	})
	b.Run("shards=4-remote-shaped", func(b *testing.B) {
		dir := b.TempDir()
		var conns []kdb.Conn
		for i := 0; i < 4; i++ {
			db, err := kdb.OpenWithOptions(fmt.Sprintf("%s/s%d.kdb", dir, i),
				kdb.DBOptions{AutoIDOffset: int64(i), AutoIDStride: 4})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			conns = append(conns, &remoteShapedConn{Conn: db, rtt: rtt})
		}
		coord, err := New(conns...)
		if err != nil {
			b.Fatal(err)
		}
		run(b, coord)
	})
}

// remoteShapedConn wraps a shard connection with the concurrency shape of
// a served remote: one request in flight per connection, each paying a
// round-trip latency before the engine does its work.
type remoteShapedConn struct {
	kdb.Conn
	mu  sync.Mutex
	rtt time.Duration
}

// The traced pair carries the RTT: the coordinator forwards through it (and
// Exec/Query arrive here too), so the double stays in the path.
func (c *remoteShapedConn) ExecTraced(tc telemetry.TraceContext, query string, args ...any) (kdb.Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	time.Sleep(c.rtt)
	return c.Conn.ExecTraced(tc, query, args...)
}

func (c *remoteShapedConn) Exec(query string, args ...any) (kdb.Result, error) {
	return c.ExecTraced(telemetry.TraceContext{}, query, args...)
}

func (c *remoteShapedConn) QueryTraced(tc telemetry.TraceContext, query string, args ...any) (*kdb.Rows, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	time.Sleep(c.rtt)
	return c.Conn.QueryTraced(tc, query, args...)
}

func (c *remoteShapedConn) QueryBatch(tc telemetry.TraceContext, stmts []kdb.Stmt) ([]*kdb.Rows, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	time.Sleep(c.rtt)
	return c.Conn.QueryBatch(tc, stmts)
}

func (c *remoteShapedConn) Query(query string, args ...any) (*kdb.Rows, error) {
	return c.QueryTraced(telemetry.TraceContext{}, query, args...)
}

func (c *remoteShapedConn) Batch(fn func(exec kdb.ExecFunc) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	time.Sleep(c.rtt)
	return kdb.Batch(c.Conn, fn)
}
