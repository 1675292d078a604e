package cluster

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
)

// snapExt names snapshot files: <session id><snapExt> under the store
// directory. staleExt named them in format 2: Sweep removes those.
const snapExt, staleExt = ".snap", ".snap.json"

// Store persists session snapshots under one directory, one file per
// session ID, written atomically (temp file in the same directory,
// then rename) so a crash mid-write can only ever leave the previous
// complete snapshot behind — never a torn one. Torn or foreign files
// that do appear are rejected by the snapshot's version gate and
// checksum at load time and skipped.
type Store struct {
	dir string
}

// NewStore opens (creating if needed) a snapshot store at dir.
func NewStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("cluster: empty snapshot dir")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: creating snapshot dir: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory.
func (st *Store) Dir() string { return st.dir }

func (st *Store) path(id string) string {
	return filepath.Join(st.dir, id+snapExt)
}

// Save persists the sealed snapshot bytes data (SessionSnapshot.Encode's
// result — the caller seals once and hands the same bytes to every
// destination) as session id's snapshot, atomically.
func (st *Store) Save(id string, data []byte) error {
	tmp, err := os.CreateTemp(st.dir, "."+id+".tmp-*")
	if err != nil {
		return fmt.Errorf("cluster: snapshot temp file: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("cluster: writing snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("cluster: syncing snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("cluster: closing snapshot: %w", err)
	}
	if err := os.Rename(tmpName, st.path(id)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("cluster: publishing snapshot: %w", err)
	}
	// Fsync the directory so the rename itself survives a power cut:
	// without it the file data is durable but the directory entry may
	// not be, and recovery would find the old snapshot (or none).
	if err := st.syncDir(); err != nil {
		return fmt.Errorf("cluster: syncing snapshot dir: %w", err)
	}
	return nil
}

// syncDir flushes the store directory's metadata (new/renamed entries)
// to stable storage. Filesystems that don't support fsync on
// directories report that as an invalid or unsupported operation —
// surfaced as a *PathError wrapping syscall.EINVAL or ENOTSUP, which
// errors.Is does NOT map to os.ErrInvalid — and that is safe to
// ignore: those platforms have no stronger primitive to offer, and
// the write itself already succeeded.
func (st *Store) syncDir() error {
	d, err := os.Open(st.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !ignorableSyncErr(err) {
		return err
	}
	return nil
}

func ignorableSyncErr(err error) bool {
	return errors.Is(err, os.ErrInvalid) ||
		errors.Is(err, syscall.EINVAL) ||
		errors.Is(err, syscall.ENOTSUP)
}

// Load reads and verifies the snapshot for one session ID.
func (st *Store) Load(id string) (*SessionSnapshot, error) {
	data, err := os.ReadFile(st.path(id))
	if err != nil {
		return nil, err
	}
	return DecodeSnapshot(data)
}

// LoadAll reads every snapshot in the store, skipping (and counting)
// files that fail to decode or verify — recovery rebuilds what it
// can; a corrupt snapshot's session simply rebuilds cold from traffic
// later.
func (st *Store) LoadAll() (snaps []*SessionSnapshot, skipped int, err error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, 0, fmt.Errorf("cluster: reading snapshot dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, snapExt) || strings.HasPrefix(name, ".") {
			continue
		}
		data, rerr := os.ReadFile(filepath.Join(st.dir, name))
		if rerr != nil {
			skipped++
			continue
		}
		snap, derr := DecodeSnapshot(data)
		if derr != nil || snap.ID+snapExt != name {
			skipped++
			continue
		}
		snaps = append(snaps, snap)
	}
	return snaps, skipped, nil
}

// Delete removes the snapshot for id; deleting a missing snapshot is
// not an error (migration races with periodic persistence).
func (st *Store) Delete(id string) error {
	err := os.Remove(st.path(id))
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// Sweep garbage-collects the store: every snapshot file whose session
// ID fails keep(id) is removed, as are stale temp files left by
// crashed writers and snapshot files left by format 2. Foreign files
// (wrong extension) are left alone.
// Returns how many snapshot files were removed. The caller decides
// what "live" means — typically pool residency plus held replicas —
// so a session evicted everywhere stops pinning disk.
func (st *Store) Sweep(keep func(id string) bool) (removed int, err error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return 0, fmt.Errorf("cluster: reading snapshot dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if strings.HasPrefix(name, ".") && strings.Contains(name, ".tmp-") || strings.HasSuffix(name, staleExt) {
			os.Remove(filepath.Join(st.dir, name)) // orphaned temp, or unreadable since format 3
			continue
		}
		if !strings.HasSuffix(name, snapExt) || strings.HasPrefix(name, ".") {
			continue
		}
		id := strings.TrimSuffix(name, snapExt)
		if keep(id) {
			continue
		}
		if rerr := os.Remove(filepath.Join(st.dir, name)); rerr == nil {
			removed++
		} else if !os.IsNotExist(rerr) && err == nil {
			err = rerr
		}
	}
	return removed, err
}
