package schema

// Versioned knowledge attachment. Like analytics, versioning is a pure
// attachment on an embedded database: vcs.Attach creates the vcs_* tables
// inside the store and installs the __log/__branches/__diff/__conflicts
// system tables, and every campaign run can then land on a branch as a
// content-addressed commit.

import (
	"fmt"

	"repro/internal/kdb"
	"repro/internal/vcs"
)

// EnableVersioning attaches a version store (commit graph, branches,
// diff, merge) to the store's database. Only embedded databases qualify —
// on a remote or sharded connection the version store belongs to the
// serving side, where its tables replicate like any other knowledge.
func (s *Store) EnableVersioning() (*vcs.Repo, error) {
	db, ok := s.DB.(*kdb.DB)
	if !ok {
		return nil, fmt.Errorf("schema: versioning requires an embedded database, not %T", s.DB)
	}
	return vcs.Attach(db)
}
