package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/trace"
)

// Disk-store file format identifiers. storeVersion is bumped on any layout
// change; files from other versions are skipped as corrupt rather than
// misread.
const (
	storeSchema     = "nocd.design-store"
	storeVersion    = 2
	storeSuffix     = ".json"
	storeTempPrefix = "tmp-"
)

// storeHeader is the first line of an entry file. The file is this header
// as one line of JSON, then the entry's raw Body, then its raw Row:
//
//	{"schema":…,"version":2,"key":…,"warm":…,"fingerprint":…,"body_len":…,"sha256":…}\n
//	<Body: body_len bytes><Row: the rest>
//
// so a read decodes only the header and serves the rest as it lies, with
// no base64 and no JSON pass over the response. SHA256 is the hex SHA-256
// of Body‖Row — every byte a hit serves — so truncation or bit rot reads as
// corruption, never as a plausible design. The file keeps the .json name
// version 1 gave it, so rewriting a key replaces its v1 file in place.
type storeHeader struct {
	Schema      string             `json:"schema"`
	Version     int                `json:"version"`
	Key         string             `json:"key"`
	Warm        string             `json:"warm,omitempty"`
	Fingerprint *trace.Fingerprint `json:"fingerprint,omitempty"`
	BodyLen     int                `json:"body_len"`
	SHA256      string             `json:"sha256"`
}

// diskStore is the persistent content-addressed backend: one file per key
// under dir, written atomically (temp + fsync + rename + directory fsync) so
// a crash at any instant leaves either the complete previous state or the
// complete new state — never a readable partial entry. The store is
// unbounded and never evicts; it is the durable layer behind the memory LRU,
// which is why designs survive restarts and why memory evictions do not
// invalidate the warm-start index when a disk store is present.
type diskStore struct {
	dir string
	col *obs.Collector

	mu   sync.Mutex
	keys map[string]struct{}
}

// openDiskStore opens (creating if needed) the store rooted at dir and scans
// it: every valid entry file is loaded and returned so the caller can
// rebuild secondary indexes (the warm-start fingerprint index); stray temp
// files and truncated, mis-keyed, checksum-failing, older-version or
// otherwise unreadable files are skipped and counted on
// serve.store_disk_corrupt. The scan order is the directory's sorted
// filename order, so index rebuilds are deterministic for a given directory
// state.
func openDiskStore(dir string, col *obs.Collector) (*diskStore, []*Entry, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("serve: creating data dir: %w", err)
	}
	d := &diskStore{dir: dir, col: col, keys: make(map[string]struct{})}
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: scanning data dir: %w", err)
	}
	var entries []*Entry
	for _, de := range des {
		if de.IsDir() {
			continue
		}
		name := de.Name()
		if strings.HasPrefix(name, storeTempPrefix) || !strings.HasSuffix(name, storeSuffix) {
			// A stray temp file is the footprint of a crash between
			// temp-write and rename: the rename never happened, so the
			// entry never existed. Skip it — never read it as data.
			obs.Count(col, "serve.store_disk_corrupt", 1)
			continue
		}
		ent, err := d.load(filepath.Join(dir, name))
		if err != nil {
			obs.Count(col, "serve.store_disk_corrupt", 1)
			continue
		}
		d.keys[ent.Key] = struct{}{}
		entries = append(entries, ent)
		obs.Count(col, "serve.store_disk_scanned", 1)
	}
	return d, entries, nil
}

// fileName maps a content key to its file name: the bare hex for the
// canonical sha256:<hex> form, or (defensively) a hash of the key string for
// anything else, so no key can escape dir or collide with a temp name.
func fileName(key string) string {
	if h, ok := strings.CutPrefix(key, "sha256:"); ok && len(h) == 64 && isLowerHex(h) {
		return h + storeSuffix
	}
	return fmt.Sprintf("k%016x%s", hash64(key), storeSuffix)
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (d *diskStore) path(key string) string { return filepath.Join(d.dir, fileName(key)) }

// load reads and verifies one entry file. Any mismatch — schema, version
// (a v1 file is skipped here like any other corruption), key↔filename
// binding, lengths, checksum, the shape of what the checksum does not cover,
// or a header in any spelling but the one Put writes — is an error; the
// caller counts it as corruption and skips the file.
func (d *diskStore) load(path string) (*Entry, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	line, data, ok := bytes.Cut(b, []byte{'\n'})
	if !ok {
		return nil, fmt.Errorf("serve: %s: no header line", path)
	}
	var h storeHeader
	if err := json.Unmarshal(line, &h); err != nil {
		return nil, err
	}
	if h.Schema != storeSchema || h.Version != storeVersion {
		return nil, fmt.Errorf("serve: %s: unknown store schema %q v%d", path, h.Schema, h.Version)
	}
	if filepath.Base(path) != fileName(h.Key) {
		return nil, fmt.Errorf("serve: %s: key %q does not match filename", path, h.Key)
	}
	// The checksum covers the bytes but not where Body ends, so body_len is
	// checked against the layout itself: a body ends in the newline the
	// flight leader gives it and a compact row holds none, which leaves
	// exactly one place body_len can point.
	if bl := h.BodyLen; bl <= 0 || bl >= len(data) || data[bl-1] != '\n' || bytes.IndexByte(data[bl:], '\n') >= 0 {
		return nil, fmt.Errorf("serve: %s: body length %d does not split %d bytes into a body and a row", path, bl, len(data))
	}
	if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != h.SHA256 {
		return nil, fmt.Errorf("serve: %s: checksum mismatch", path)
	}
	// The checksum does not cover the header. A fingerprint not shaped like
	// trace.FingerprintCliques builds them — a segment per processor, a
	// signature per clique — is corruption: Distance loops over Procs, so a
	// flipped digit there would stall every warm-start lookup. Warm is
	// served as X-Nocd-Warm, so it must be a disposition the server writes.
	if fp := h.Fingerprint; fp != nil && (len(fp.Segments) != fp.Procs || len(fp.CliqueSigs) != fp.Cliques) {
		return nil, fmt.Errorf("serve: %s: malformed fingerprint", path)
	}
	if h.Warm != "" && h.Warm != "cold" && h.Warm != "seeded" {
		return nil, fmt.Errorf("serve: %s: unknown warm disposition %q", path, h.Warm)
	}
	// Whitespace, escapes, field order or case the decoder forgives would
	// make a file Put can never have written; such a header is corrupt, so
	// every accepted file is exactly what Put writes for the entry it yields.
	if canon, err := json.Marshal(&h); err != nil || !bytes.Equal(canon, line) {
		return nil, fmt.Errorf("serve: %s: header not in canonical form", path)
	}
	// Body's capacity ends where Row begins.
	return &Entry{Key: h.Key, Body: data[:h.BodyLen:h.BodyLen], Row: data[h.BodyLen:], Warm: h.Warm, Fp: h.Fingerprint}, nil
}

// Get returns the entry for key, re-reading and re-verifying its file. A
// file that has rotted since the scan counts as corruption and reads as a
// miss, so the worst failure mode is a redundant synthesis.
func (d *diskStore) Get(key string) (*Entry, bool) {
	d.mu.Lock()
	_, ok := d.keys[key]
	d.mu.Unlock()
	if !ok {
		return nil, false
	}
	ent, err := d.load(d.path(key))
	if err != nil {
		obs.Count(d.col, "serve.store_disk_corrupt", 1)
		d.mu.Lock()
		delete(d.keys, key)
		d.mu.Unlock()
		return nil, false
	}
	return ent, true
}

// Put persists an entry atomically: render the header line, write it and
// the raw Body and Row to a temp file in the same directory, fsync it,
// rename over the final name, and fsync the directory so the rename itself
// is durable. A crash before the rename leaves only a temp file the startup
// scan skips; a crash after it leaves the complete entry. Rewriting a key's
// file — a v1 file the scan skipped, say — is the same rename over the same
// name. Never evicts; it reports whether the entry was stored, and write
// failures count on serve.store_disk_error.
func (d *diskStore) Put(e *Entry) bool {
	sum := sha256.New()
	sum.Write(e.Body)
	sum.Write(e.Row)
	line, err := json.Marshal(storeHeader{
		Schema:      storeSchema,
		Version:     storeVersion,
		Key:         e.Key,
		Warm:        e.Warm,
		Fingerprint: e.Fp,
		BodyLen:     len(e.Body),
		SHA256:      hex.EncodeToString(sum.Sum(nil)),
	})
	if err == nil {
		buf := make([]byte, 0, len(line)+1+len(e.Body)+len(e.Row))
		buf = append(buf, line...)
		buf = append(buf, '\n')
		buf = append(buf, e.Body...)
		err = d.writeAtomic(d.path(e.Key), append(buf, e.Row...))
	}
	if err != nil {
		obs.Count(d.col, "serve.store_disk_error", 1)
		return false
	}
	d.mu.Lock()
	d.keys[e.Key] = struct{}{}
	d.mu.Unlock()
	return true
}

func (d *diskStore) writeAtomic(path string, buf []byte) error {
	f, err := os.CreateTemp(d.dir, storeTempPrefix+"*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err = f.Write(buf); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	// Durability of the rename needs the directory entry flushed too.
	if dir, derr := os.Open(d.dir); derr == nil {
		dir.Sync()
		dir.Close()
	}
	return nil
}
