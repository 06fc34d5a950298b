package resultcache

import (
	"bytes"
	"os"
	"sync"
	"sync/atomic"
)

// memBudget bounds the bytes the memory tier charges for its entries
// (twice each file's size: the raw bytes plus the decoded Result, which
// is smaller than its JSON). Half of it is the young generation.
const memBudget = 8 << 20

// memTier keeps validated result entries in memory, so a repeat hit
// costs one stat instead of open, read and decode. Only bytes a
// validator accepted enter it, and every hit first checks that the file
// on disk is still the one those bytes were read from: the same file
// (inode and device), size and mtime. A corrupt, replaced, evicted or
// externally deleted file therefore fails the check, its entry is
// dropped and the read takes the disk path. The store's own writes
// replace files by rename, which always changes the file; an in-place
// edit is caught by its size or mtime, to the file system's timestamp
// granularity.
//
// The tier is two generations of at most budget/2 bytes each: an entry
// is added to the young one, an old-generation hit moves its entry back,
// and when the young generation is full it becomes the old one and the
// previous old one is dropped. Its lock is taken by reads only: Put and
// eviction never touch the tier, as a stale entry fails its next check.
type memTier struct {
	mu                 sync.RWMutex
	cur, old           map[string]*memEntry
	curBytes, oldBytes int64
	budget             int64
}

// memEntry is one validated result: the decoded value, its file bytes
// and the identity of the file they were read from.
type memEntry struct {
	res  *Result
	data []byte
	file os.FileInfo // os.SameFile identity and size of the file read
	// mtime is the file's mtime in Unix nanoseconds. A hit on a bounded
	// store touches the file and stores the time it set, so the next hit
	// still matches.
	mtime atomic.Int64
}

func newMemEntry(res *Result, data []byte, file os.FileInfo, mtime int64) *memEntry {
	e := &memEntry{res: res, data: data, file: file}
	e.mtime.Store(mtime)
	return e
}

func (e *memEntry) cost() int64 { return 2 * int64(len(e.data)) }

// matches reports whether fi, a fresh stat of the entry's path, is still
// the file the entry was read from.
func (e *memEntry) matches(fi os.FileInfo) bool {
	return os.SameFile(e.file, fi) && fi.Size() == e.file.Size() && fi.ModTime().UnixNano() == e.mtime.Load()
}

// get returns key's entry, moving an old-generation entry back to the
// young one.
func (m *memTier) get(key string) *memEntry {
	m.mu.RLock()
	e, young := m.cur[key]
	if !young {
		e = m.old[key]
	}
	m.mu.RUnlock()
	if e != nil && !young {
		m.add(key, e)
	}
	return e
}

// add stores e under key in the young generation, replacing any entry
// key had. An entry larger than a generation is not kept.
func (m *memTier) add(key string, e *memEntry) {
	c := e.cost()
	if c > m.budget/2 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.removeLocked(key)
	if m.cur == nil || m.curBytes+c > m.budget/2 {
		m.old, m.oldBytes = m.cur, m.curBytes
		m.cur, m.curBytes = make(map[string]*memEntry), 0
	}
	m.cur[key] = e
	m.curBytes += c
}

// drop removes key's entry if it is still e: a concurrent read may have
// replaced it with a fresher one.
func (m *memTier) drop(key string, e *memEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cur[key] == e || m.old[key] == e {
		m.removeLocked(key)
	}
}

func (m *memTier) removeLocked(key string) {
	if e, ok := m.cur[key]; ok {
		delete(m.cur, key)
		m.curBytes -= e.cost()
	}
	if e, ok := m.old[key]; ok {
		delete(m.old, key)
		m.oldBytes -= e.cost()
	}
}

// readFile reads path through one descriptor and returns its bytes with
// the identity of the file read, taken before the read: a write to the
// file after the stat moves its mtime, so the bytes can never be newer
// than the identity recorded for them.
func readFile(path string) ([]byte, os.FileInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	buf.Grow(int(fi.Size()) + bytes.MinRead)
	if _, err := buf.ReadFrom(f); err != nil {
		return nil, nil, err
	}
	return buf.Bytes(), fi, nil
}
