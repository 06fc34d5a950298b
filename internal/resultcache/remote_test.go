package resultcache

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// fakeRemote is an in-memory Remote that logs every probe — the
// unit-test stand-in for a peer daemon's GET /v1/{kind}/{key} routes.
type fakeRemote struct {
	entries map[string][]byte // kind + "/" + key → served bytes

	mu     sync.Mutex
	probed []string // kind + "/" + key of every probe, in order
}

func (fr *fakeRemote) Fetch(kind, key string) ([]byte, bool) {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	fr.probed = append(fr.probed, kind+"/"+key)
	data, ok := fr.entries[kind+"/"+key]
	return data, ok
}

// probes counts the probes for one kind.
func (fr *fakeRemote) probes(kind string) int {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	n := 0
	for _, p := range fr.probed {
		if strings.HasPrefix(p, kind+"/") {
			n++
		}
	}
	return n
}

func encodedResult(t *testing.T, i int) []byte {
	t.Helper()
	data, err := json.Marshal(resultOf(i))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRemotePullThrough: for both kinds, a local miss with a remote hit
// serves the peer's bytes verbatim, persists them locally (the second
// read never probes the remote), and is attributed as a hit + remote hit
// — never as a miss or a put. A miss on both tiers counts a miss, and the
// local-only read never probes the remote.
func TestRemotePullThrough(t *testing.T) {
	for _, kc := range kindCases {
		t.Run(kc.kind, func(t *testing.T) {
			st, err := Open(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			body := kc.body(keyOf(1), 1)
			fr := &fakeRemote{entries: map[string][]byte{kc.kind + "/" + keyOf(1): body}}
			st.SetRemote(fr)

			for i := 0; i < 2; i++ {
				if got, ok := kc.get(st, keyOf(1)); !ok || string(got) != string(body) {
					t.Fatalf("read %d: ok=%v data=%q", i, ok, got)
				}
			}
			if n := fr.probes(kc.kind); n != 1 {
				t.Errorf("remote probed %d times, want 1 (later reads are local)", n)
			}
			if k := kc.stats(st.Stats()); k != (kindStats{hits: 2, remoteHits: 1}) {
				t.Errorf("stats %+v: want hits=2 misses=0 remote_hits=1 puts=0", k)
			}
			if s := st.Stats(); s.RemoteMisses != 0 {
				t.Errorf("remote misses = %d, want 0", s.RemoteMisses)
			}
			if kc.kind == Results {
				if res, ok := st.Get(keyOf(1)); !ok || res.Key != keyOf(1) || res.Mean.Generated != 1 {
					t.Errorf("pulled result decoded wrong: %+v", res)
				}
			}
			if _, ok := kc.get(st, keyOf(8)); ok {
				t.Fatal("unexpected hit")
			}
			if _, ok := kc.local(st, keyOf(9)); ok {
				t.Fatal("unexpected local hit")
			}
			if n := fr.probes(kc.kind); n != 2 {
				t.Errorf("remote probed %d times, want 2 (the local-only read must not probe)", n)
			}
			if k := kc.stats(st.Stats()); k.misses != 2 || k.remoteHits != 1 || k.puts != 0 {
				t.Errorf("stats %+v: want misses=2 remote_hits=1 puts=0", k)
			}
		})
	}
}

// TestRemoteMissCounts: a miss on both tiers counts one miss and one
// remote miss; GetRawLocal never consults the remote at all (that is
// what keeps fleet probes loop-free).
func TestRemoteMissCounts(t *testing.T) {
	st, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	fr := &fakeRemote{}
	st.SetRemote(fr)

	if _, _, ok := st.GetRaw(keyOf(2)); ok {
		t.Fatal("unexpected hit")
	}
	if _, _, ok := st.GetRawLocal(keyOf(3)); ok {
		t.Fatal("unexpected local hit")
	}
	if n := fr.probes(Results); n != 1 {
		t.Errorf("remote probed %d times, want 1 (GetRawLocal must not probe)", n)
	}
	s := st.Stats()
	if s.Hits != 0 || s.Misses != 2 || s.RemoteMisses != 1 {
		t.Errorf("stats %+v: want hits=0 misses=2 remote_misses=1", s)
	}
}

// TestRemoteCorruptFetchIsMiss: bytes from a peer are validated before
// being trusted — an entry claiming another key (or not decoding at all)
// is a miss, never persisted, never served.
func TestRemoteCorruptFetchIsMiss(t *testing.T) {
	st, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	st.SetRemote(&fakeRemote{entries: map[string][]byte{
		Results + "/" + keyOf(4): encodedResult(t, 5), // claims keyOf(5)
		Results + "/" + keyOf(6): []byte("not json"),
	}})

	for _, key := range []string{keyOf(4), keyOf(6)} {
		if _, _, ok := st.GetRaw(key); ok {
			t.Errorf("corrupt remote entry for %s served as a hit", key)
		}
		if _, _, ok := st.GetRawLocal(key); ok {
			t.Errorf("corrupt remote entry for %s was persisted", key)
		}
	}
	if s := st.Stats(); s.Hits != 0 || s.RemoteHits != 0 || s.Misses != 4 {
		t.Errorf("stats %+v: want 0 hits, 4 misses", s)
	}
}

// TestPutEncodedValidates: encoded bytes are persisted verbatim and
// counted as a put only when they decode to a Result carrying the key.
func TestPutEncodedValidates(t *testing.T) {
	st, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]byte{encodedResult(t, 2), []byte("not json")} {
		if err := st.PutEncoded(keyOf(1), bad); err == nil {
			t.Errorf("PutEncoded accepted %q under %s", bad, keyOf(1))
		}
	}
	good := encodedResult(t, 1)
	if err := st.PutEncoded(keyOf(1), good); err != nil {
		t.Fatal(err)
	}
	if _, raw, ok := st.GetRawLocal(keyOf(1)); !ok || !bytes.Equal(raw, good) {
		t.Fatalf("persisted %q, want %q", raw, good)
	}
	if s := st.Stats(); s.Puts != 1 {
		t.Errorf("puts = %d, want 1", s.Puts)
	}
}

// TestNilStoreRemoteSafe: SetRemote and the read paths stay nil-safe.
func TestNilStoreRemoteSafe(t *testing.T) {
	var st *Store
	st.SetRemote(&fakeRemote{entries: map[string][]byte{Results + "/" + keyOf(1): encodedResult(t, 1)}})
	if _, _, ok := st.GetRaw(keyOf(1)); ok {
		t.Fatal("nil store served a hit")
	}
}

// TestConcurrentPutSameKeyMidEviction hammers one key with concurrent
// Puts while other writers overflow a tightly bounded store (forcing
// eviction scans mid-overwrite) and readers keep re-reading the hot key.
// The invariant: every read that succeeds decodes to an intact result
// for that key — the atomic temp+rename write means a reader can never
// observe a torn entry, and a Put can never evict its own result.
func TestConcurrentPutSameKeyMidEviction(t *testing.T) {
	size := entrySize(t)
	st, err := Open(t.TempDir(), 4*size)
	if err != nil {
		t.Fatal(err)
	}

	const writers = 4
	const rounds = 25
	hot := resultOf(0)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() { // same-key writers
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := st.Put(hot); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}()
		wg.Add(1)
		go func() { // churn writers: distinct keys overflowing the bound
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := st.Put(resultOf(1 + w*rounds + r)); err != nil {
					t.Errorf("churn writer %d: %v", w, err)
					return
				}
			}
		}()
		wg.Add(1)
		go func() { // readers of the hot key
			defer wg.Done()
			for r := 0; r < rounds*2; r++ {
				if res, ok := st.Get(hot.Key); ok && res.Key != hot.Key {
					t.Errorf("reader %d: torn read %+v", w, res)
					return
				}
			}
		}()
	}
	wg.Wait()

	// Re-putting the hot key after the dust settles must leave it
	// readable and intact (Put never evicts its own entry).
	if err := st.Put(hot); err != nil {
		t.Fatal(err)
	}
	res, ok := st.Get(hot.Key)
	if !ok || res.Key != hot.Key || res.Mean.Generated != 0 {
		t.Fatalf("hot entry corrupt after concurrent churn: ok=%v res=%+v", ok, res)
	}
	if s := st.Stats(); s.Scans == 0 || s.Evictions == 0 {
		t.Errorf("bound never enforced during churn: %+v", s)
	}
}

// FuzzPullThrough feeds arbitrary peer bytes through the pull-through
// read of both kinds — peer fetches are untrusted input. No read may
// panic; a result read hits only when the bytes decode to a Result
// carrying the key asked for; a trace blob stays opaque; every hit
// serves and persists exactly the fetched bytes; and a key that is not
// a content address never reaches the peer.
func FuzzPullThrough(f *testing.F) {
	key := keyOf(1)
	valid, err := json.Marshal(resultOf(1))
	if err != nil {
		f.Fatal(err)
	}
	wrong, err := json.Marshal(resultOf(2))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid, key)
	f.Add(wrong, key)
	f.Add(valid[:len(valid)/2], key)
	f.Add([]byte{}, key)
	f.Add(valid, "../"+key[3:])
	f.Fuzz(func(t *testing.T, body []byte, probe string) {
		st, err := Open(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		fr := &fakeRemote{entries: map[string][]byte{Results + "/" + key: body, Traces + "/" + key: body}}
		st.SetRemote(fr)

		var want Result
		wantHit := json.Unmarshal(body, &want) == nil && want.Key == key
		res, raw, ok := st.GetRaw(key)
		if ok != wantHit {
			t.Fatalf("result read hit=%v, want %v for %q", ok, wantHit, body)
		}
		if ok && (res.Key != key || !bytes.Equal(raw, body)) {
			t.Fatalf("result hit served key %s, bytes %q; fetched %q", res.Key, raw, body)
		}
		if local, _ := st.GetLocal(Results, key); !bytes.Equal(local, raw) {
			t.Fatalf("persisted result %q, want %q", local, raw)
		}
		data, ok := st.GetTrace(key)
		if !ok || !bytes.Equal(data, body) {
			t.Fatalf("trace read: ok=%v data=%q, fetched %q", ok, data, body)
		}
		if local, ok := st.GetLocal(Traces, key); !ok || !bytes.Equal(local, body) {
			t.Fatalf("persisted trace %q, want %q", local, body)
		}

		st.Get(probe)
		st.GetRaw(probe)
		st.GetTrace(probe)
		for _, p := range fr.probed {
			if _, k, _ := strings.Cut(p, "/"); !ValidKey(k) {
				t.Fatalf("invalid key %q reached the peer", k)
			}
		}
	})
}
