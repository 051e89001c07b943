package schema

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/kdb"
	"repro/internal/kdb/kdbtest"
	"repro/internal/knowledge"
	"repro/internal/repl"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

func snapshot(t *testing.T, db *kdb.DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := db.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func fileDB(t *testing.T, name string) (*kdb.DB, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	db, err := kdb.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db, path
}

func waitFor(t *testing.T, follower, primary *kdb.DB) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); follower.LSN() < primary.LSN(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at LSN %d, primary at %d", follower.LSN(), primary.LSN())
		}
	}
}

func sixteen() []*knowledge.Object {
	objs := make([]*knowledge.Object, 16)
	for i := range objs {
		objs[i] = sampleObject()
	}
	return objs
}

// TestSaveOverWireEqualsEmbedded: the same objects saved through kdb:// and
// into an embedded store come back with the same ids and leave the same
// snapshot — and the same log — behind.
func TestSaveOverWireEqualsEmbedded(t *testing.T) {
	served, servedPath := fileDB(t, "served.kdb")
	wire, err := Open(kdbtest.Serve(t, &kdb.Server{DB: served}))
	if err != nil {
		t.Fatal(err)
	}
	defer wire.Close()
	local, localPath := fileDB(t, "local.kdb")
	embedded, err := Wrap(local)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Store{wire, embedded} {
		ids, err := s.SaveObjectsKeyed(7, sixteen()[:3])
		if err != nil || !reflect.DeepEqual(ids, []int64{1, 2, 3}) {
			t.Fatalf("SaveObjectsKeyed = %v, %v", ids, err)
		}
		ids, err = s.SaveIO500s([]*knowledge.IO500Object{sampleIO500(), sampleIO500()})
		if err != nil || !reflect.DeepEqual(ids, []int64{1, 2}) {
			t.Fatalf("SaveIO500s = %v, %v", ids, err)
		}
		if err := s.AddCampaignRuns(1, []CampaignRun{{Unit: 0, Name: "u0", ObjectIDs: ids}, {Unit: 1, Name: "u1"}}); err != nil {
			t.Fatal(err)
		}
		id, err := s.SaveObject(sampleObject())
		if err != nil || id != 4 {
			t.Fatalf("SaveObject = %d, %v", id, err)
		}
		got, err := s.LoadObject(2)
		want := sampleObject()
		want.ID = 2
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("object 2 did not round-trip: %v", err)
		}
	}
	if !bytes.Equal(snapshot(t, served), snapshot(t, local)) {
		t.Error("snapshots differ between the served and the embedded store")
	}
	a, _ := os.ReadFile(servedPath)
	b, _ := os.ReadFile(localPath)
	if !bytes.Equal(a, b) {
		t.Errorf("log files differ (%d vs %d bytes)", len(a), len(b))
	}
	if wire.DB.LSN() != served.LSN() {
		t.Errorf("the wire client saw LSN %d, the server is at %d", wire.DB.LSN(), served.LSN())
	}
}

// TestWireSaveIsOneRequestOneFlush: a 16-object keyed save over kdb:// costs
// the primary one request and one log flush, and a caught-up follower at
// most two flushes for the records it is shipped.
func TestWireSaveIsOneRequestOneFlush(t *testing.T) {
	counter := func(name string) int64 { return telemetry.Default().Counter(name).Value() }
	primary, _ := fileDB(t, "primary.kdb")
	url := kdbtest.Serve(t, &kdb.Server{DB: primary, HeartbeatInterval: 50 * time.Millisecond})
	fdb, _ := fileDB(t, "follower.kdb")
	f := repl.NewFollower(fdb, url, repl.Options{})
	f.Start(context.Background())
	t.Cleanup(f.Stop)
	store, err := Open(url)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	waitFor(t, fdb, primary)

	requests, flushes, lsn := counter("kdb_server_requests_total"), counter("kdb_wal_flushes_total"), primary.LSN()
	if _, err := store.SaveObjectsKeyed(3, sixteen()); err != nil {
		t.Fatal(err)
	}
	// The save has returned: what has been flushed by now is the primary's
	// one step, and whatever the follower has already applied of it.
	atReturn := counter("kdb_wal_flushes_total") - flushes
	waitFor(t, fdb, primary)
	if n := counter("kdb_server_requests_total") - requests; n != 1 {
		t.Errorf("the save was %d requests, want 1", n)
	}
	if n := primary.LSN() - lsn; n != 16*8 {
		t.Errorf("the save was %d records, want 16 objects of 8 statements", n)
	}
	total := counter("kdb_wal_flushes_total") - flushes
	if atReturn < 1 || total < 2 || total > 3 {
		t.Errorf("%d log flushes for primary and follower together (%d when the save returned), want 1 + at most 2", total, atReturn)
	}
	if !bytes.Equal(snapshot(t, fdb), snapshot(t, primary)) {
		t.Error("follower diverged")
	}
}

// TestWireBatchAllOrNothing: a save whose seventh statement cannot be applied
// leaves nothing behind — the primary's LSN and log file and its follower's
// dump are what they were — whether the store reaches the served primary
// through a bare client, a router or a coordinator. Before the batch verb the
// first six statements stayed.
func TestWireBatchAllOrNothing(t *testing.T) {
	four := sampleObject() // performances, summaries, filesystems, systeminfos
	four.Summaries, four.Results = four.Summaries[:1], nil
	three := sampleObject() // performances, summaries, then the first results row
	three.Summaries, three.Results = three.Summaries[:1], three.Results[:2]
	objs := []*knowledge.Object{four, three, four}
	for _, via := range []struct {
		name string
		open func(primary, replica string) (kdb.Conn, error)
	}{
		{"Remote", func(primary, _ string) (kdb.Conn, error) { return kdb.Dial(primary) }},
		{"Router", func(primary, replica string) (kdb.Conn, error) { return repl.Dial(primary, replica) }},
		{"Coordinator", func(primary, replica string) (kdb.Conn, error) {
			return shard.Dial(&shard.Map{Epoch: 1, Shards: []shard.Spec{{Primary: primary, Replicas: []string{replica}}}})
		}},
	} {
		t.Run(via.name, func(t *testing.T) {
			primary, path := fileDB(t, "primary.kdb")
			url := kdbtest.Serve(t, &kdb.Server{DB: primary, HeartbeatInterval: 50 * time.Millisecond})
			fdb := kdbtest.MemDB(t, kdb.DBOptions{})
			f := repl.NewFollower(fdb, url, repl.Options{})
			f.Start(context.Background())
			t.Cleanup(f.Stop)
			replica := kdbtest.Serve(t, &kdb.Server{DB: fdb, Role: "replica", ReadOnly: true})
			conn, err := via.open(url, replica)
			if err != nil {
				t.Fatal(err)
			}
			store, err := Wrap(conn)
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			if _, err := store.SaveObjects(objs[:1]); err != nil {
				t.Fatal(err)
			}
			// A results table without the columns a save writes: the seventh
			// statement of the save below is the first to touch it.
			for _, ddl := range []string{"DROP TABLE results", "CREATE TABLE results (id INTEGER PRIMARY KEY, summaries_id INTEGER)"} {
				if _, err := store.DB.Exec(ddl); err != nil {
					t.Fatal(err)
				}
			}
			waitFor(t, fdb, primary)
			lsn, dump := primary.LSN(), snapshot(t, fdb)
			log, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}

			_, err = store.SaveObjectsKeyed(5, objs)
			if err == nil || !strings.Contains(err.Error(), `"results" has no column`) {
				t.Fatalf("save into a results table without its columns: err = %v", err)
			}
			if primary.LSN() != lsn {
				t.Errorf("a failed save moved the primary from LSN %d to %d", lsn, primary.LSN())
			}
			if now, _ := os.ReadFile(path); !bytes.Equal(now, log) {
				t.Errorf("a failed save grew the log from %d to %d bytes", len(log), len(now))
			}
			if !bytes.Equal(snapshot(t, fdb), dump) {
				t.Error("a failed save changed the follower's dump")
			}
			// The next write is the very next record, for the follower too.
			if _, err := store.DB.Exec("DELETE FROM summaries WHERE id = ?", -1); err != nil {
				t.Fatal(err)
			}
			waitFor(t, fdb, primary)
			if primary.LSN() != lsn+1 || !bytes.Equal(snapshot(t, fdb), snapshot(t, primary)) {
				t.Errorf("primary at LSN %d (want %d) or follower diverged", primary.LSN(), lsn+1)
			}
			if n, err := primary.QueryRow("SELECT COUNT(*) FROM performances"); err != nil || n[0] != int64(1) {
				t.Errorf("performances rows after the failed save: %v, %v", n, err)
			}
		})
	}
}

// TestSingleSaveAllOrNothing: SaveObject and SaveIO500 are saves of one, so
// an object whose later statements cannot be applied leaves nothing behind
// either — no performances row without its results, no IO500 run without
// its options — through a bare client, a router or a coordinator. Before,
// they ran statement at a time and the leading rows stayed.
func TestSingleSaveAllOrNothing(t *testing.T) {
	forms := []struct {
		name  string
		table string // recreated without the columns the save writes
		save  func(*Store) (int64, error)
	}{
		{"SaveObject", "results", func(s *Store) (int64, error) { return s.SaveObject(sampleObject()) }},
		{"SaveIO500", "IOFHsOptions", func(s *Store) (int64, error) { return s.SaveIO500(sampleIO500()) }},
	}
	for _, via := range []struct {
		name string
		open func(primary, replica string) (kdb.Conn, error)
	}{
		{"Remote", func(primary, _ string) (kdb.Conn, error) { return kdb.Dial(primary) }},
		{"Router", func(primary, replica string) (kdb.Conn, error) { return repl.Dial(primary, replica) }},
		{"Coordinator", func(primary, replica string) (kdb.Conn, error) {
			return shard.Dial(&shard.Map{Epoch: 1, Shards: []shard.Spec{{Primary: primary, Replicas: []string{replica}}}})
		}},
	} {
		for _, form := range forms {
			t.Run(via.name+"/"+form.name, func(t *testing.T) {
				primary, path := fileDB(t, "primary.kdb")
				url := kdbtest.Serve(t, &kdb.Server{DB: primary, HeartbeatInterval: 50 * time.Millisecond})
				fdb := kdbtest.MemDB(t, kdb.DBOptions{})
				f := repl.NewFollower(fdb, url, repl.Options{})
				f.Start(context.Background())
				t.Cleanup(f.Stop)
				replica := kdbtest.Serve(t, &kdb.Server{DB: fdb, Role: "replica", ReadOnly: true})
				conn, err := via.open(url, replica)
				if err != nil {
					t.Fatal(err)
				}
				store, err := Wrap(conn)
				if err != nil {
					t.Fatal(err)
				}
				defer store.Close()
				if id, err := form.save(store); err != nil || id != 1 {
					t.Fatalf("first save = %d, %v", id, err)
				}
				for _, ddl := range []string{"DROP TABLE " + form.table, "CREATE TABLE " + form.table + " (id INTEGER PRIMARY KEY)"} {
					if _, err := store.DB.Exec(ddl); err != nil {
						t.Fatal(err)
					}
				}
				waitFor(t, fdb, primary)
				lsn, dump := primary.LSN(), snapshot(t, fdb)
				log, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}

				if id, err := form.save(store); err == nil || id != 0 || !strings.Contains(err.Error(), "has no column") {
					t.Fatalf("save into %s without its columns = %d, %v", form.table, id, err)
				}
				if primary.LSN() != lsn {
					t.Errorf("a failed save moved the primary from LSN %d to %d", lsn, primary.LSN())
				}
				if now, _ := os.ReadFile(path); !bytes.Equal(now, log) {
					t.Errorf("a failed save grew the log from %d to %d bytes", len(log), len(now))
				}
				if !bytes.Equal(snapshot(t, fdb), dump) {
					t.Error("a failed save changed the follower's dump")
				}
				// The next write is the very next record, for the follower too.
				if _, err := store.DB.Exec("DELETE FROM summaries WHERE id = ?", -1); err != nil {
					t.Fatal(err)
				}
				waitFor(t, fdb, primary)
				if primary.LSN() != lsn+1 || !bytes.Equal(snapshot(t, fdb), snapshot(t, primary)) {
					t.Errorf("primary at LSN %d (want %d) or follower diverged", primary.LSN(), lsn+1)
				}
			})
		}
	}
}
