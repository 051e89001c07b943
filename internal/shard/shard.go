// Package shard partitions the knowledge store horizontally across several
// served kdb instances. A Coordinator implements kdb.Conn over the shard
// set: DDL broadcasts everywhere, inserts route to one shard by hashing
// their leading value (or round-robin when there is none), UPDATE/DELETE
// broadcast with summed row counts, and SELECTs scatter to every shard and
// gather through a merge layer that recombines sorts, limits, and
// decomposed aggregates exactly as a single node would have computed them.
// The partition map itself is a small epoch-versioned document the
// coordinator serves over the existing wire protocol ("shardmap" verb), so
// clients can discover the topology from one address.
//
// Placement is deliberately simple — hash mod N over an explicit map —
// because the workload is append-heavy campaign ingest where any balanced
// spread works; rebalancing after changing N reuses the snapshot transfer
// machinery (Seed) rather than migrating at the row level.
package shard

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strings"

	"repro/internal/kdb"
	"repro/internal/repl"
)

// Spec is one shard's location: a primary address plus optional read
// replicas (served follower copies), in the same kdb://host:port form the
// rest of the stack uses.
type Spec struct {
	Primary  string   `json:"primary"`
	Replicas []string `json:"replicas,omitempty"`
}

// ParseSpec parses the CLI form "primary[,replica...]".
func ParseSpec(s string) (Spec, error) {
	parts := strings.Split(s, ",")
	sp := Spec{Primary: strings.TrimSpace(parts[0])}
	if sp.Primary == "" {
		return Spec{}, fmt.Errorf("shard: empty primary address in %q", s)
	}
	for _, r := range parts[1:] {
		r = strings.TrimSpace(r)
		if r == "" {
			return Spec{}, fmt.Errorf("shard: empty replica address in %q", s)
		}
		sp.Replicas = append(sp.Replicas, r)
	}
	return sp, nil
}

// Map is the epoch-versioned partition map. Shard ownership is position
// mod len(Shards); the epoch lets clients detect that a coordinator's
// topology changed and their cached connections are stale.
type Map struct {
	Epoch  int64  `json:"epoch"`
	Shards []Spec `json:"shards"`
}

// Marshal renders the map as the bytes the "shardmap" wire verb carries.
func (m *Map) Marshal() []byte {
	data, _ := json.Marshal(m) // the shape contains only marshalable fields
	return data
}

// UnmarshalMap parses and validates shard-map bytes.
func UnmarshalMap(data []byte) (*Map, error) {
	var m Map
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("shard: corrupt shard map: %w", err)
	}
	if len(m.Shards) == 0 {
		return nil, fmt.Errorf("shard: shard map has no shards")
	}
	for i, sp := range m.Shards {
		if sp.Primary == "" {
			return nil, fmt.Errorf("shard: shard %d has no primary address", i)
		}
	}
	return &m, nil
}

// FetchMap discovers a coordinator's partition map from its served
// address.
func FetchMap(addr string) (*Map, error) {
	r, err := kdb.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	_, data, err := r.ShardMap()
	if err != nil {
		return nil, err
	}
	return UnmarshalMap(data)
}

// Dial assembles a coordinator over a partition map: every shard is opened
// through repl.Dial — its primary, behind a read router when the spec lists
// replicas, so replication composes under sharding — and the map is
// attached so the coordinator reports its epoch. Spec addresses are wire
// addresses with or without the kdb:// scheme. On failure every shard
// opened so far is closed.
func Dial(m *Map) (*Coordinator, error) {
	conns := make([]kdb.Conn, 0, len(m.Shards))
	for i, sp := range m.Shards {
		conn, err := repl.Dial("kdb://"+strings.TrimPrefix(sp.Primary, "kdb://"), sp.Replicas...)
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			return nil, fmt.Errorf("shard %d (%s): %w", i, sp.Primary, err)
		}
		conns = append(conns, conn)
	}
	c, err := New(conns...)
	if err != nil {
		return nil, err
	}
	c.smap = m
	return c, nil
}

// HashValue hashes one routing value. It goes through the engine's
// type-tagged tuple encoding so equal values hash equally regardless of
// which shard or client computed the hash.
func HashValue(v any) uint64 {
	h := fnv.New64a()
	h.Write([]byte(kdb.EncodeKey([]any{v})))
	return h.Sum64()
}

// HashString hashes a caller-side placement key (campaign name, run id)
// for use with BatchKeyed.
func HashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
