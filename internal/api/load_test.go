package api

// Many keep-alive clients at once: the many-connection traffic a dashboard
// fleet sends, which the repository benchmark's two closed-loop clients do
// not. The test bounds errors and validator correctness, not latency.

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/loadgen"
	"repro/internal/schema"
	"repro/internal/telemetry"
	"repro/internal/workloadgen"
)

// manyClientQueries are the ad-hoc SELECTs the analytics share of the mix
// cycles through.
var manyClientQueries = []string{
	"SELECT operation, COUNT(*), AVG(mean_mib) FROM summaries GROUP BY operation",
	"SELECT COUNT(*) FROM performances",
	"SELECT operation, MAX(max_mib) FROM summaries GROUP BY operation",
}

// TestManyKeepAliveClients runs 256 clients, each holding one keep-alive
// connection of its own, through a mix of point reads, analytics and cursor
// pages that revalidate with If-None-Match, while one writer commits every
// few milliseconds. Every connection is open at once (a ConnState hook
// counts them), no request fails at the transport or with a 5xx, every 200
// carries the ETag of its body, and a 304 answers only a matching tag.
// 256 clients need about 512 descriptors, inside a 1,024-fd limit.
func TestManyKeepAliveClients(t *testing.T) {
	const (
		clients  = 256
		requests = 12 // per client; a cursor walk counts each page
	)
	store, err := schema.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	corpus, err := workloadgen.SynthesizeIO500Corpus(60, 11)
	if err != nil {
		t.Fatal(err)
	}
	io500IDs, err := store.SaveIO500s(corpus)
	if err != nil {
		t.Fatal(err)
	}
	objectIDs, err := store.SaveObjects(loadgen.SynthesizeObjects(60, 11))
	if err != nil {
		t.Fatal(err)
	}

	s := New(Config{Store: store, Metrics: telemetry.NewRegistry()})
	t.Cleanup(s.Close)
	var open, maxOpen atomic.Int64
	ts := httptest.NewUnstartedServer(s)
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		switch st {
		case http.StateNew:
			n := open.Add(1)
			for m := maxOpen.Load(); n > m && !maxOpen.CompareAndSwap(m, n); m = maxOpen.Load() {
			}
		case http.StateClosed, http.StateHijacked:
			open.Add(-1)
		}
	}
	ts.Start()
	defer ts.Close()

	// One writer commits while the clients read, so cached entries keep
	// going stale and revalidations meet new tags.
	stop := make(chan struct{})
	writerDone := make(chan error, 1)
	var writes atomic.Int64
	go func() {
		tick := time.NewTicker(3 * time.Millisecond)
		defer tick.Stop()
		for i := uint64(0); ; i++ {
			select {
			case <-stop:
				writerDone <- nil
				return
			case <-tick.C:
			}
			if _, err := store.SaveObjects(loadgen.SynthesizeObjects(1, 1000+i)); err != nil {
				writerDone <- err
				return
			}
			writes.Add(1)
		}
	}()

	var (
		ok200, notModified atomic.Int64
		failMu             sync.Mutex
		failures           []string
	)
	fail := func(format string, args ...any) {
		failMu.Lock()
		failures = append(failures, fmt.Sprintf(format, args...))
		failMu.Unlock()
	}

	var connected, done sync.WaitGroup
	start := make(chan struct{})
	for c := 0; c < clients; c++ {
		connected.Add(1)
		done.Add(1)
		go func(c int) {
			defer done.Done()
			tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
			defer tr.CloseIdleConnections()
			hc := &http.Client{Transport: tr, Timeout: time.Minute}
			etags := map[string]string{}
			// get issues one GET, revalidating with the tag last seen for the
			// path, and returns the body of a 200.
			get := func(path string) []byte {
				req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
				if err != nil {
					t.Error(err)
					return nil
				}
				sent := etags[path]
				if sent != "" {
					req.Header.Set("If-None-Match", sent)
				}
				resp, err := hc.Do(req)
				if err != nil {
					fail("client %d %s: transport: %v", c, path, err)
					return nil
				}
				defer resp.Body.Close()
				body, err := io.ReadAll(resp.Body)
				if err != nil {
					fail("client %d %s: reading body: %v", c, path, err)
					return nil
				}
				tag := resp.Header.Get("ETag")
				switch {
				case resp.StatusCode == http.StatusOK:
					ok200.Add(1)
					if want := etagOf(body); tag != want {
						fail("client %d %s: ETag %s, body hashes to %s", c, path, tag, want)
					}
					etags[path] = tag
					return body
				case resp.StatusCode == http.StatusNotModified:
					notModified.Add(1)
					if sent == "" || tag != sent {
						fail("client %d %s: 304 with ETag %q for If-None-Match %q", c, path, tag, sent)
					}
				default:
					fail("client %d %s: status %d: %s", c, path, resp.StatusCode, body)
				}
				return nil
			}

			// Open this client's connection before the mix starts, so that
			// all of them are open together. Health is not cached and
			// carries no ETag.
			if resp, err := hc.Get(ts.URL + "/v1/healthz"); err != nil {
				fail("client %d healthz: %v", c, err)
			} else {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			connected.Done()
			<-start
			for n, step := 0, c; n < requests; step++ {
				switch step % 10 {
				case 0, 1, 2:
					n++
					get(fmt.Sprintf("/v1/objects/%d", objectIDs[(c+step)%len(objectIDs)]))
				case 3, 4, 5:
					n++
					get(fmt.Sprintf("/v1/io500/%d", io500IDs[(c*7+step)%len(io500IDs)]))
				case 6, 7:
					n++
					get("/v1/query?q=" + url.QueryEscape(manyClientQueries[step%len(manyClientQueries)]))
				default:
					cursor := ""
					for page := 0; page < 3 && n < requests; page++ {
						path := "/v1/objects?limit=20"
						if cursor != "" {
							path += "&cursor=" + url.QueryEscape(cursor)
						}
						n++
						body := get(path)
						var env struct {
							NextCursor string `json:"next_cursor"`
						}
						if body == nil || json.Unmarshal(body, &env) != nil || env.NextCursor == "" {
							break
						}
						cursor = env.NextCursor
					}
				}
			}
		}(c)
	}
	connected.Wait()
	close(start)
	done.Wait()
	close(stop)
	if err := <-writerDone; err != nil {
		t.Fatal(err)
	}

	t.Logf("%d connections open at once; %d ok, %d not modified; %d writes", maxOpen.Load(), ok200.Load(), notModified.Load(), writes.Load())
	if maxOpen.Load() < clients {
		t.Errorf("at most %d connections were open at once, want %d", maxOpen.Load(), clients)
	}
	if len(failures) > 0 {
		t.Errorf("%d failed requests (transport errors, non-200/304 statuses, wrong validators); first: %s", len(failures), failures[0])
	}
	if writes.Load() == 0 || notModified.Load() == 0 {
		t.Errorf("%d writes, %d revalidations answered 304: the mix proved less than it claims", writes.Load(), notModified.Load())
	}
}
