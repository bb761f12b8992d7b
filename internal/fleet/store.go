package fleet

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Record is one completed job: the job, its content hash, and its summary.
// Records are both the artifact-file format and the manifest row format.
type Record struct {
	Hash    string  `json:"hash"`
	Job     Job     `json:"job"`
	Summary Summary `json:"summary"`
}

// Store caches completed-run records on disk, one file per job under
// <dir>/runs/<hash>.json. Writes are atomic (write-temp-then-rename in the
// same directory), so a sweep killed mid-write never leaves a partial
// artifact that a resumed sweep could mistake for a completed run.
type Store struct {
	dir string
}

// NewStore opens (creating if needed) an artifact store rooted at dir.
func NewStore(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "runs"), 0o755); err != nil {
		return nil, fmt.Errorf("fleet: creating store: %v", err)
	}
	return &Store{dir: dir}, nil
}

// path returns the artifact path for a job hash.
func (s *Store) path(hash string) string {
	return filepath.Join(s.dir, "runs", hash+".json")
}

// Load returns the cached record for job, or (nil, false) when the artifact
// is missing, unreadable, or stale. A stale artifact — one whose stored hash
// does not match the job's current hash — is treated as a miss, so hash-
// version bumps transparently invalidate old caches.
func (s *Store) Load(job Job) (*Record, bool) {
	hash := job.Hash()
	data, err := os.ReadFile(s.path(hash))
	if err != nil {
		return nil, false
	}
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, false
	}
	if rec.Hash != hash || rec.Job.Hash() != hash {
		return nil, false
	}
	return &rec, true
}

// Save writes the record atomically.
func (s *Store) Save(rec *Record) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("fleet: encoding record: %v", err)
	}
	return WriteFileAtomic(s.path(rec.Hash), append(data, '\n'))
}

// WriteFileAtomic writes data to path via a temp file in the same directory
// plus a rename, so readers never observe a partially-written file and an
// interrupted write leaves any previous version intact.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("fleet: creating temp file: %v", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("fleet: writing %s: %v", path, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("fleet: closing %s: %v", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("fleet: publishing %s: %v", path, err)
	}
	return nil
}
