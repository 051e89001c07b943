// Package vcs gives the knowledge store a dolt-style version control
// layer: content-addressed commits of full kdb table state, a commit DAG
// with branches, row/cell-level diff, and three-way merge with conflict
// detection — so concurrent analysis campaigns can branch, compare tuning
// rounds, and combine their ingested knowledge.
//
// A commit is the content tables' deterministic snapshot records split
// into content-addressed chunks — kdb's one chunk rule, cut from the live
// tables by kdb.TableView.AppendChunks, so a commit's chunks are the ones
// the delta verb ships. Boundaries are counted from each table's start, so
// committing after appending to one table encodes, hashes and stores only
// that table's new tail. Chunk bytes, commit metadata (parents, author,
// message, campaign id, LSN), and branch heads all live in the
// store itself — ordinary vcs_* tables, which are excluded from commit
// content (a commit cannot contain itself) but replicate, shard, and
// back up exactly like knowledge tables. Because the snapshot serializer
// is deterministic, committing identical knowledge yields identical
// commit hashes on any node.
package vcs

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/kdb"
)

// ddl creates the version store. The tables are ordinary kdb tables: they
// ride the WAL, replicate, and compact like everything else.
var ddl = []string{
	`CREATE TABLE IF NOT EXISTS vcs_chunks (
		id INTEGER PRIMARY KEY,
		hash TEXT,
		tbl TEXT,
		data TEXT
	)`,
	`CREATE INDEX IF NOT EXISTS idx_vcs_chunks_hash ON vcs_chunks (hash)`,
	`CREATE TABLE IF NOT EXISTS vcs_commits (
		id INTEGER PRIMARY KEY,
		hash TEXT,
		parents TEXT,
		author TEXT,
		message TEXT,
		campaign_id INTEGER,
		lsn INTEGER,
		created TEXT,
		manifest TEXT
	)`,
	`CREATE INDEX IF NOT EXISTS idx_vcs_commits_hash ON vcs_commits (hash)`,
	`CREATE TABLE IF NOT EXISTS vcs_branches (
		id INTEGER PRIMARY KEY,
		name TEXT,
		head TEXT
	)`,
	`CREATE INDEX IF NOT EXISTS idx_vcs_branches_name ON vcs_branches (name)`,
}

// Repo is a version-control view over an embedded database. All methods
// are safe for concurrent use; history mutations serialize on an internal
// lock while reads go straight to the store.
type Repo struct {
	db *kdb.DB

	mu sync.Mutex
	// conflicts retains the most recent merge's conflict set for the
	// __conflicts system table.
	conflicts []Conflict
	// chunked remembers each content table's chunk list (keyed by
	// lowercased name) and the table version it was cut at, so the next
	// commit re-encodes only what moved. Only lists whose every chunk is
	// known to be in vcs_chunks are remembered, which is why a reused
	// chunk needs neither its bytes nor an existence check;
	// chunkStoreStamp is vcs_chunks' rewrite stamp that knowledge holds
	// for — once anything but an append touches the chunk store the lists
	// are void.
	chunked         map[string]*tableChunks
	chunkStoreStamp int64
}

// tableChunks is one content table's chunk list as of an engine version.
type tableChunks struct {
	version int64 // kdb table version the list was cut at
	records int   // snapshot records the list covers
	chunks  []ManifestChunk
}

// working is the working state cut into chunks: what a commit of it
// would contain.
type working struct {
	manifest Manifest
	lsn      int64
	// fresh holds the chunks this cut had to encode, with their bytes, in
	// manifest order; every other manifest entry was reused from
	// Repo.chunked.
	fresh []kdb.SnapshotChunk
	// tables and storeStamp become Repo.chunked/chunkStoreStamp once the
	// cut's chunks are known to be stored (see Repo.remember).
	tables     map[string]*tableChunks
	storeStamp int64
	// How each content table's list was obtained, for the commit counters.
	reused, extended, rechunked int
}

// Manifest describes one commit's content: the ordered content-addressed
// chunks of the snapshot stream (vcs_* tables and the meta record
// excluded) plus the auto-increment high-water marks of the content
// tables. Its canonical JSON encoding is the commit's content identity.
type Manifest struct {
	Chunks  []ManifestChunk  `json:"chunks"`
	AutoIDs map[string]int64 `json:"auto_ids,omitempty"`
}

// ManifestChunk references one chunk of a commit's snapshot stream.
type ManifestChunk struct {
	Table string `json:"t"`
	Hash  string `json:"h"`
	Size  int    `json:"n"`
}

// Commit is one node of the commit DAG.
type Commit struct {
	Hash       string
	Parents    []string
	Author     string
	Message    string
	CampaignID int64
	LSN        int64
	Created    string
	Manifest   Manifest
}

// Attach opens (creating if needed) the version store inside db and
// installs the __log/__branches/__diff/__conflicts system tables. Detach
// with db.SetSystemTables(nil); the history tables persist either way.
func Attach(db *kdb.DB) (*Repo, error) {
	for _, stmt := range ddl {
		if _, err := db.Exec(stmt); err != nil {
			return nil, fmt.Errorf("vcs: create version store: %w", err)
		}
	}
	r := &Repo{db: db}
	db.SetSystemTables(r)
	return r, nil
}

// DB returns the underlying database.
func (r *Repo) DB() *kdb.DB { return r.db }

// IsVersionTable reports whether a (lowercased or as-written) table name
// belongs to the version store rather than commit content.
func IsVersionTable(name string) bool {
	return strings.HasPrefix(strings.ToLower(name), "vcs_")
}

// workingManifest cuts the current working state into chunks from one
// kdb.View: the content tables (vcs_* skipped before anything is encoded)
// in snapshot order, each cut by kdb.TableView.AppendChunks, plus their
// auto-id high-water marks. A table whose version has not moved since
// Repo.chunked saw it costs nothing; one that only grew by appends keeps
// its full chunks and has only its tail cut again; anything else (UPDATE,
// DELETE, rollback, index DDL, checkout) is cut afresh. The result is
// chunk-for-chunk kdb.DB.SnapshotChunks without the vcs_* tables and the
// meta record.
func (r *Repo) workingManifest() (*working, error) {
	w := &working{tables: map[string]*tableChunks{}}
	err := r.db.View(func(v *kdb.View) error {
		w.lsn = v.LSN()
		if store, ok := v.Table("vcs_chunks"); ok {
			w.storeStamp = store.Rewritten()
		}
		known := r.chunked
		if w.storeStamp != r.chunkStoreStamp {
			known = nil
		}
		for _, tv := range v.Tables() {
			if IsVersionTable(tv.Name()) {
				continue
			}
			if id := tv.AutoID(); id > 0 {
				if w.manifest.AutoIDs == nil {
					w.manifest.AutoIDs = map[string]int64{}
				}
				w.manifest.AutoIDs[tv.Name()] = id
			}
			key := strings.ToLower(tv.Name())
			have := known[key]
			if have != nil && have.version == tv.Version() {
				w.reused++
				w.tables[key] = have
				w.manifest.Chunks = append(w.manifest.Chunks, have.chunks...)
				continue
			}
			cut := &tableChunks{version: tv.Version(), records: tv.Records()}
			if have != nil && tv.Rewritten() <= have.version && cut.records >= have.records {
				// Only grew: every full chunk stands, the tail is cut again.
				cut.chunks = append(cut.chunks, have.chunks[:have.records/kdb.DefaultChunkLines]...)
				w.extended++
			} else {
				w.rechunked++
			}
			cutFrom := len(w.fresh)
			var err error
			if w.fresh, err = tv.AppendChunks(w.fresh, len(cut.chunks)); err != nil {
				return err
			}
			for _, c := range w.fresh[cutFrom:] {
				cut.chunks = append(cut.chunks, ManifestChunk{Table: c.Table, Hash: c.Hash, Size: len(c.Data)})
			}
			w.tables[key] = cut
			w.manifest.Chunks = append(w.manifest.Chunks, cut.chunks...)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return w, nil
}

// remember keeps a cut's chunk lists for the next one. Call it only once
// every chunk of w is in vcs_chunks: after persisting a commit of it, or
// on finding a stored commit with the same root. r.mu must be held.
func (r *Repo) remember(w *working) {
	r.chunked, r.chunkStoreStamp = w.tables, w.storeStamp
}

// rootHash is the content identity of a manifest: the SHA-256 of its
// chunk list's canonical JSON encoding. AutoIDs are deliberately
// excluded — they are checkout metadata whose high-water marks drift
// monotonically upward across branch switches, and that drift must not
// change what counts as "the same knowledge".
func rootHash(m Manifest) (string, error) {
	data, err := json.Marshal(m.Chunks)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// commitHash derives a commit's identity from its content root, parents,
// and metadata. Wall-clock time and LSN are deliberately excluded so the
// same knowledge committed anywhere yields the same hash.
func commitHash(root string, parents []string, author, message string, campaignID int64) string {
	id := struct {
		Root       string   `json:"root"`
		Parents    []string `json:"parents,omitempty"`
		Author     string   `json:"author,omitempty"`
		Message    string   `json:"message,omitempty"`
		CampaignID int64    `json:"campaign_id,omitempty"`
	}{root, parents, author, message, campaignID}
	data, _ := json.Marshal(id)
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Commit records the current working state as a commit on branch,
// creating the branch if it does not exist. If the branch head already
// has identical content, no new commit is created and the head hash is
// returned with created=false — so re-committing an unchanged campaign is
// a cheap no-op with a stable hash.
func (r *Repo) Commit(branch, author, message string, campaignID int64) (hash string, created bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.commitLocked(branch, author, message, campaignID, "")
}

// commitLocked is Commit's body; extraParent, when set, becomes a second
// parent (merge commits). r.mu must be held.
func (r *Repo) commitLocked(branch, author, message string, campaignID int64, extraParent string) (hash string, created bool, err error) {
	start := time.Now()
	w, err := r.workingManifest()
	if err != nil {
		return "", false, err
	}
	root, err := rootHash(w.manifest)
	if err != nil {
		return "", false, err
	}
	head, hasBranch, err := r.headLocked(branch)
	if err != nil {
		return "", false, err
	}
	var parents []string
	if head != "" {
		parent, err := r.loadCommit(head)
		if err != nil {
			return "", false, err
		}
		proot, err := rootHash(parent.Manifest)
		if err != nil {
			return "", false, err
		}
		if proot == root && extraParent == "" {
			r.remember(w)
			return head, false, nil
		}
		parents = []string{head}
	}
	if extraParent != "" {
		parents = append(parents, extraParent)
	}
	hash = commitHash(root, parents, author, message, campaignID)
	if err := r.persistCommit(hash, parents, author, message, campaignID, w, branch, hasBranch); err != nil {
		return "", false, err
	}
	r.remember(w)
	metTablesReused.Add(int64(w.reused))
	metTablesExtended.Add(int64(w.extended))
	metTablesRechunked.Add(int64(w.rechunked))
	metCommitSeconds.Observe(time.Since(start).Seconds())
	return hash, true, nil
}

// persistCommit writes the cut's missing chunks, the commit row (unless
// the hash already exists, e.g. the identical merge performed on two
// nodes), and the branch head in one atomic batch. Only freshly encoded
// chunks can be missing: reused ones were stored by an earlier commit.
func (r *Repo) persistCommit(hash string, parents []string, author, message string, campaignID int64, w *working, branch string, hasBranch bool) error {
	manifestJSON, err := json.Marshal(w.manifest)
	if err != nil {
		return err
	}
	var newChunks []kdb.SnapshotChunk
	seen := map[string]bool{}
	for _, c := range w.fresh {
		if seen[c.Hash] {
			continue
		}
		seen[c.Hash] = true
		ok, err := r.hasChunk(c.Hash)
		if err != nil {
			return err
		}
		if !ok {
			newChunks = append(newChunks, c)
		}
	}
	known, err := r.commitExists(hash)
	if err != nil {
		return err
	}
	return r.db.Batch(func(exec kdb.ExecFunc) error {
		for _, c := range newChunks {
			if _, err := exec("INSERT INTO vcs_chunks (hash, tbl, data) VALUES (?, ?, ?)",
				c.Hash, c.Table, string(c.Data)); err != nil {
				return err
			}
			metChunkBytes.Add(int64(len(c.Data)))
		}
		if !known {
			if _, err := exec(
				"INSERT INTO vcs_commits (hash, parents, author, message, campaign_id, lsn, created, manifest) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
				hash, strings.Join(parents, ","), author, message, campaignID, w.lsn,
				time.Now().UTC().Format(time.RFC3339), string(manifestJSON)); err != nil {
				return err
			}
		}
		if hasBranch {
			if _, err := exec("UPDATE vcs_branches SET head = ? WHERE name = ?", hash, branch); err != nil {
				return err
			}
		} else if _, err := exec("INSERT INTO vcs_branches (name, head) VALUES (?, ?)", branch, hash); err != nil {
			return err
		}
		return nil
	})
}

func (r *Repo) hasChunk(hash string) (bool, error) {
	_, err := r.db.QueryRow("SELECT id FROM vcs_chunks WHERE hash = ? LIMIT 1", hash)
	if err == kdb.ErrNoRows {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}

func (r *Repo) commitExists(hash string) (bool, error) {
	_, err := r.db.QueryRow("SELECT id FROM vcs_commits WHERE hash = ? LIMIT 1", hash)
	if err == kdb.ErrNoRows {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}

// chunkData fetches one chunk's bytes from the store.
func (r *Repo) chunkData(hash string) ([]byte, error) {
	row, err := r.db.QueryRow("SELECT data FROM vcs_chunks WHERE hash = ? LIMIT 1", hash)
	if err == kdb.ErrNoRows {
		return nil, fmt.Errorf("vcs: chunk %s not in store", hash)
	}
	if err != nil {
		return nil, err
	}
	s, _ := row[0].(string)
	return []byte(s), nil
}

// headLocked resolves a branch's head hash; exists=false when the branch
// has never been created.
func (r *Repo) headLocked(branch string) (head string, exists bool, err error) {
	row, err := r.db.QueryRow("SELECT head FROM vcs_branches WHERE name = ? LIMIT 1", branch)
	if err == kdb.ErrNoRows {
		return "", false, nil
	}
	if err != nil {
		return "", false, err
	}
	s, _ := row[0].(string)
	return s, true, nil
}

// Head returns a branch's head commit hash ("" if the branch does not
// exist or has no commits).
func (r *Repo) Head(branch string) (string, error) {
	head, _, err := r.headLocked(branch)
	return head, err
}

// BranchInfo is one branch head.
type BranchInfo struct {
	Name string
	Head string
}

// Branches lists branch heads in creation order.
func (r *Repo) Branches() ([]BranchInfo, error) {
	rows, err := r.db.Query("SELECT name, head FROM vcs_branches ORDER BY id")
	if err != nil {
		return nil, err
	}
	var out []BranchInfo
	for rows.Next() {
		row := rows.Row()
		name, _ := row[0].(string)
		head, _ := row[1].(string)
		out = append(out, BranchInfo{Name: name, Head: head})
	}
	return out, nil
}

// Branch creates a new branch. from may be an existing branch name or
// commit hash (the new branch points at that commit). An empty from
// branches off the current working state: when a commit with identical
// content already exists — the usual case right after a campaign
// committed — the new branch points at it, keeping histories connected
// for later merges; otherwise the working state becomes the branch's
// base commit.
func (r *Repo) Branch(name, from string) error {
	if name == "" {
		return fmt.Errorf("vcs: branch needs a name")
	}
	if _, exists, err := r.headLocked(name); err != nil {
		return err
	} else if exists {
		return fmt.Errorf("vcs: branch %q already exists", name)
	}
	if from == "" {
		r.mu.Lock()
		defer r.mu.Unlock()
		w, err := r.workingManifest()
		if err != nil {
			return err
		}
		root, err := rootHash(w.manifest)
		if err != nil {
			return err
		}
		if hash, ok, err := r.commitByRoot(root); err != nil {
			return err
		} else if ok {
			_, err = r.db.Exec("INSERT INTO vcs_branches (name, head) VALUES (?, ?)", name, hash)
			return err
		}
		_, _, err = r.commitLocked(name, "vcs", "branch "+name, 0, "")
		return err
	}
	hash, err := r.Resolve(from)
	if err != nil {
		return err
	}
	_, err = r.db.Exec("INSERT INTO vcs_branches (name, head) VALUES (?, ?)", name, hash)
	return err
}

// commitByRoot finds the most recent commit whose content root matches.
// A linear scan over commit manifests: commit counts are campaign counts,
// so this stays small.
func (r *Repo) commitByRoot(root string) (string, bool, error) {
	rows, err := r.db.Query("SELECT hash, manifest FROM vcs_commits ORDER BY id DESC")
	if err != nil {
		return "", false, err
	}
	for rows.Next() {
		row := rows.Row()
		hash, _ := row[0].(string)
		var m Manifest
		if s, _ := row[1].(string); s != "" {
			if err := json.Unmarshal([]byte(s), &m); err != nil {
				continue
			}
		}
		cr, err := rootHash(m)
		if err != nil {
			continue
		}
		if cr == root {
			return hash, true, nil
		}
	}
	return "", false, nil
}

// Switch makes branch current: checkout when it exists, create from the
// working state otherwise — the `iokc campaign --branch` entry point.
func (r *Repo) Switch(branch string) error {
	head, exists, err := r.headLocked(branch)
	if err != nil {
		return err
	}
	if !exists {
		return r.Branch(branch, "")
	}
	if head == "" {
		return nil // empty branch: working state is its starting point
	}
	return r.Checkout(branch)
}

// Checkout replaces the content tables with the state of a branch head or
// commit, leaving the version store itself untouched. Auto-increment
// high-water marks only ever grow across checkouts (the restore merges
// the maxima), so rows ingested on different branches from the same base
// never collide on primary keys — which is what makes disjoint branches
// cleanly mergeable.
func (r *Repo) Checkout(ref string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	hash, err := r.Resolve(ref)
	if err != nil {
		return err
	}
	return r.checkoutLocked(hash)
}

// checkoutLocked materializes a commit's content; r.mu must be held.
func (r *Repo) checkoutLocked(hash string) error {
	c, err := r.loadCommit(hash)
	if err != nil {
		return err
	}
	var out bytes.Buffer
	for _, mc := range c.Manifest.Chunks {
		data, err := r.chunkData(mc.Hash)
		if err != nil {
			return err
		}
		out.Write(data)
	}
	// The version store rides along unchanged, followed by two meta
	// records: the commit's content high-water marks and the current ones
	// (content + vcs tables). Restore merges them by maximum, so ids stay
	// globally unique. ReplaceState moves the LSN past the current one, so
	// followers and caches see the checkout as a new state.
	curAutoIDs := map[string]int64{}
	err = r.db.View(func(v *kdb.View) error {
		for _, tv := range v.Tables() {
			if id := tv.AutoID(); id > 0 {
				curAutoIDs[tv.Name()] = id
			}
			if !IsVersionTable(tv.Name()) {
				continue
			}
			if err := tv.EncodeRecords(&out, 0, tv.Records()); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, autoIDs := range []map[string]int64{c.Manifest.AutoIDs, curAutoIDs} {
		meta, err := kdb.EncodeSnapshotMeta(autoIDs, 0)
		if err != nil {
			return err
		}
		out.Write(meta)
	}
	return r.db.ReplaceState(out.Bytes())
}

// Resolve turns a ref — branch name, full commit hash, or unique hash
// prefix (≥ 6 chars) — into a commit hash.
func (r *Repo) Resolve(ref string) (string, error) {
	if ref == "" {
		return "", fmt.Errorf("vcs: empty ref")
	}
	if head, exists, err := r.headLocked(ref); err != nil {
		return "", err
	} else if exists {
		if head == "" {
			return "", fmt.Errorf("vcs: branch %q has no commits", ref)
		}
		return head, nil
	}
	if ok, err := r.commitExists(ref); err != nil {
		return "", err
	} else if ok {
		return ref, nil
	}
	if len(ref) >= 6 && !strings.ContainsAny(ref, "%_") {
		rows, err := r.db.Query("SELECT hash FROM vcs_commits WHERE hash LIKE ? LIMIT 2", ref+"%")
		if err != nil {
			return "", err
		}
		var matches []string
		for rows.Next() {
			h, _ := rows.Row()[0].(string)
			matches = append(matches, h)
		}
		switch len(matches) {
		case 1:
			return matches[0], nil
		case 2:
			return "", fmt.Errorf("vcs: ambiguous ref %q", ref)
		}
	}
	return "", fmt.Errorf("vcs: unknown ref %q", ref)
}

// loadCommit fetches one commit with its manifest.
func (r *Repo) loadCommit(hash string) (*Commit, error) {
	row, err := r.db.QueryRow(
		"SELECT parents, author, message, campaign_id, lsn, created, manifest FROM vcs_commits WHERE hash = ? LIMIT 1", hash)
	if err == kdb.ErrNoRows {
		return nil, fmt.Errorf("vcs: unknown commit %s", hash)
	}
	if err != nil {
		return nil, err
	}
	c := &Commit{Hash: hash}
	if s, _ := row[0].(string); s != "" {
		c.Parents = strings.Split(s, ",")
	}
	c.Author, _ = row[1].(string)
	c.Message, _ = row[2].(string)
	if v, ok := row[3].(int64); ok {
		c.CampaignID = v
	}
	if v, ok := row[4].(int64); ok {
		c.LSN = v
	}
	c.Created, _ = row[5].(string)
	if s, _ := row[6].(string); s != "" {
		if err := json.Unmarshal([]byte(s), &c.Manifest); err != nil {
			return nil, fmt.Errorf("vcs: corrupt manifest for %s: %w", hash, err)
		}
	}
	return c, nil
}

// Log walks the first-parent history of a ref, most recent first.
func (r *Repo) Log(ref string, limit int) ([]*Commit, error) {
	hash, err := r.Resolve(ref)
	if err != nil {
		return nil, err
	}
	var out []*Commit
	for hash != "" && (limit <= 0 || len(out) < limit) {
		c, err := r.loadCommit(hash)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
		if len(c.Parents) == 0 {
			break
		}
		hash = c.Parents[0]
	}
	return out, nil
}

// commitState materializes the content tables of a commit by reassembling
// its chunks and replaying them through the snapshot parser. The returned
// tables are detached copies keyed by lowercased name.
func (r *Repo) commitState(hash string) (map[string]*kdb.Table, error) {
	c, err := r.loadCommit(hash)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	for _, mc := range c.Manifest.Chunks {
		data, err := r.chunkData(mc.Hash)
		if err != nil {
			return nil, err
		}
		buf.Write(data)
	}
	return kdb.ParseSnapshotTables(buf.Bytes())
}

// workingState materializes the current content tables (vcs_* excluded)
// as detached copies: the view's rows alias live engine memory, so every
// row is copied before the view closes.
func (r *Repo) workingState() (map[string]*kdb.Table, error) {
	tables := map[string]*kdb.Table{}
	err := r.db.View(func(v *kdb.View) error {
		for _, tv := range v.Tables() {
			if IsVersionTable(tv.Name()) {
				continue
			}
			live := tv.Rows(0)
			rows := make([][]any, len(live))
			for i, row := range live {
				rows[i] = append([]any(nil), row...)
			}
			tables[strings.ToLower(tv.Name())] = &kdb.Table{
				Name:    tv.Name(),
				Columns: append([]kdb.ColumnDef(nil), tv.Columns()...),
				Rows:    rows,
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return tables, nil
}

// resolveState materializes a ref's tables; the special ref "WORKING" (or
// "") is the live working state.
func (r *Repo) resolveState(ref string) (map[string]*kdb.Table, error) {
	if ref == "" || strings.EqualFold(ref, "WORKING") {
		return r.workingState()
	}
	hash, err := r.Resolve(ref)
	if err != nil {
		return nil, err
	}
	return r.commitState(hash)
}

// ancestors returns the full ancestor set of a commit (inclusive).
func (r *Repo) ancestors(hash string) (map[string]bool, error) {
	seen := map[string]bool{}
	queue := []string{hash}
	for len(queue) > 0 {
		h := queue[0]
		queue = queue[1:]
		if seen[h] {
			continue
		}
		seen[h] = true
		c, err := r.loadCommit(h)
		if err != nil {
			return nil, err
		}
		queue = append(queue, c.Parents...)
	}
	return seen, nil
}

// mergeBase finds the nearest common ancestor of two commits (breadth
// first from b through a's ancestor set), or "" when histories are
// unrelated.
func (r *Repo) mergeBase(a, b string) (string, error) {
	inA, err := r.ancestors(a)
	if err != nil {
		return "", err
	}
	seen := map[string]bool{}
	queue := []string{b}
	for len(queue) > 0 {
		h := queue[0]
		queue = queue[1:]
		if seen[h] {
			continue
		}
		seen[h] = true
		if inA[h] {
			return h, nil
		}
		c, err := r.loadCommit(h)
		if err != nil {
			return "", err
		}
		queue = append(queue, c.Parents...)
	}
	return "", nil
}

func sortedTableNames(states ...map[string]*kdb.Table) []string {
	set := map[string]bool{}
	for _, s := range states {
		for n := range s {
			set[n] = true
		}
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
