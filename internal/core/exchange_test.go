package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/xrand"
)

// The delta-gossip layer's contract (exchange.go) is that ExchangeMode
// changes metering only: fresher, flood and delta syncs leave every store
// in the identical state after any schedule of own-row refreshes and
// pairwise syncs. deltaEquivalence pins that, including under sparse row
// caps where eviction forces the full-digest fallback; the remaining tests
// pin the metering itself — deltas shrink on repeat meetings, floods don't,
// and the row/entry counters stay mode-independent between fresher and
// delta.

// exchangeScript is a deterministic schedule of refresh and sync events,
// replayed identically under every mode.
type exchangeScript struct {
	n      int
	events []exchangeEvent
}

type exchangeEvent struct {
	// sync when b >= 0 (pair a<->b at time t); own-row refresh of a
	// otherwise.
	a, b int
	t    float64
}

func makeScript(n, steps int, seed int64) exchangeScript {
	rng := xrand.New(seed)
	sc := exchangeScript{n: n}
	now := 0.0
	for i := 0; i < steps; i++ {
		now += rng.Uniform(0.5, 5)
		a := rng.Intn(n)
		if rng.Float64() < 0.45 {
			sc.events = append(sc.events, exchangeEvent{a: a, b: -1, t: now})
			continue
		}
		b := rng.Intn(n - 1)
		if b >= a {
			b++
		}
		sc.events = append(sc.events, exchangeEvent{a: a, b: b, t: now})
	}
	return sc
}

// playScript runs the script against fresh stores under one mode and
// returns the final stores plus the per-sync stats in schedule order.
// maxRows > 0 caps sparse stores (dense stores ignore it).
func playScript(sc exchangeScript, sparse bool, maxRows int, mode ExchangeMode) ([]MeetingStore, []ExchangeStats) {
	stores := make([]MeetingStore, sc.n)
	hists := make([]*History, sc.n)
	for i := range stores {
		if sparse {
			s := NewSparseMeetingStore(sc.n)
			if maxRows > 0 {
				s.SetMaxRows(maxRows, i)
			}
			stores[i] = s
			hists[i] = NewSparseHistory(i, sc.n, 0)
		} else {
			stores[i] = NewFullMeetingMatrix(sc.n)
			hists[i] = NewHistory(i, sc.n, 0)
		}
	}
	var stats []ExchangeStats
	for _, ev := range sc.events {
		if ev.b < 0 {
			stores[ev.a].UpdateOwnRow(ev.a, ev.t, hists[ev.a])
			continue
		}
		// A sync is a contact: record it, refresh both own rows (as the
		// routers do on ContactUp), then exchange.
		hists[ev.a].RecordContact(ev.b, ev.t)
		hists[ev.b].RecordContact(ev.a, ev.t)
		stores[ev.a].UpdateOwnRow(ev.a, ev.t, hists[ev.a])
		stores[ev.b].UpdateOwnRow(ev.b, ev.t, hists[ev.b])
		stats = append(stats, SyncMode(stores[ev.a], stores[ev.b], ev.a, ev.b, mode))
	}
	return stores, stats
}

// storeFingerprint serializes everything simulation-visible about a store:
// per-row freshness and the known entries in ForEachKnown order.
func storeFingerprint(s MeetingStore, n int) string {
	out := ""
	for id := 0; id < n; id++ {
		out += fmt.Sprintf("row %d @ %g:", id, s.RowUpdated(id))
		s.ForEachKnown(id, func(peer int, v float64) {
			out += fmt.Sprintf(" %d=%g", peer, v)
		})
		out += "\n"
	}
	return out
}

// TestDeltaEquivalence (deltaEquivalence): under every storage mode and
// cap, flood and delta syncs must land every store in the exact state the
// fresher baseline produces, and fresher/delta must agree on rows and
// entries actually shipped (flood ships at least as many).
func TestDeltaEquivalence(t *testing.T) {
	cases := []struct {
		name    string
		sparse  bool
		maxRows int
	}{
		{"dense", false, 0},
		{"sparse", true, 0},
		{"sparse-capped", true, 5}, // forces evictions → full-digest fallback
	}
	for _, tc := range cases {
		for _, seed := range []int64{1, 42, 99} {
			t.Run(fmt.Sprintf("%s-seed%d", tc.name, seed), func(t *testing.T) {
				sc := makeScript(12, 400, seed)
				ref, refStats := playScript(sc, tc.sparse, tc.maxRows, ExchangeFresher)
				for _, mode := range []ExchangeMode{ExchangeFlood, ExchangeDelta} {
					got, gotStats := playScript(sc, tc.sparse, tc.maxRows, mode)
					for i := range ref {
						want, have := storeFingerprint(ref[i], sc.n), storeFingerprint(got[i], sc.n)
						if want != have {
							t.Fatalf("mode %v: store %d diverged from fresher baseline\nfresher:\n%s%v:\n%s",
								mode, i, want, mode, have)
						}
					}
					for k := range refStats {
						r, g := refStats[k], gotStats[k]
						if mode == ExchangeDelta && (r.Rows != g.Rows || r.Entries != g.Entries) {
							t.Fatalf("sync %d: delta shipped %d rows/%d entries, fresher %d/%d",
								k, g.Rows, g.Entries, r.Rows, r.Entries)
						}
						if mode == ExchangeFlood && (r.Rows > g.Rows || r.Bytes > g.Bytes) {
							t.Fatalf("sync %d: flood %+v smaller than fresher %+v", k, g, r)
						}
					}
				}
			})
		}
	}
}

// TestDeltaDigestShrinks pins the point of the digest: a pair that syncs
// twice with no intervening mutations advertises and ships nothing the
// second time, while a flood re-ships the full row sets.
func TestDeltaDigestShrinks(t *testing.T) {
	for _, sparse := range []bool{false, true} {
		t.Run(map[bool]string{false: "dense", true: "sparse"}[sparse], func(t *testing.T) {
			sc := makeScript(8, 200, 7)
			stores, _ := playScript(sc, sparse, 0, ExchangeDelta)
			first := SyncMode(stores[0], stores[1], 0, 1, ExchangeDelta)
			again := SyncMode(stores[0], stores[1], 0, 1, ExchangeDelta)
			if again.Rows != 0 || again.DigestRows != 0 {
				t.Fatalf("idle re-sync still shipped %d rows, advertised %d (first: %+v)",
					again.Rows, again.DigestRows, first)
			}
			// Only the two fixed digest headers travel on an idle re-sync.
			if want := 2 * digestHeaderBytes; again.Bytes != want {
				t.Fatalf("idle re-sync cost %d bytes, want %d", again.Bytes, want)
			}
			flood := SyncMode(stores[0], stores[1], 0, 1, ExchangeFlood)
			if flood.Bytes <= again.Bytes {
				t.Fatalf("idle flood (%d B) not larger than idle delta (%d B)", flood.Bytes, again.Bytes)
			}
		})
	}
}

// TestDeltaFirstMeetingIsFull pins the cold-start degeneration: two
// strangers' first delta sync advertises every published row (watermark 0)
// and ships exactly what a fresher sync would.
func TestDeltaFirstMeetingIsFull(t *testing.T) {
	n := 6
	a, b := NewFullMeetingMatrix(n), NewFullMeetingMatrix(n)
	ha, hb := NewHistory(0, n, 0), NewHistory(1, n, 0)
	ha.RecordContact(2, 1)
	ha.RecordContact(2, 5)
	hb.RecordContact(3, 2)
	a.UpdateOwnRow(0, 5, ha)
	b.UpdateOwnRow(1, 2, hb)
	st := SyncMode(a, b, 0, 1, ExchangeDelta)
	if st.DigestRows != 2 {
		t.Fatalf("first meeting advertised %d rows, want 2 (one published row each)", st.DigestRows)
	}
	if st.Rows != 2 {
		t.Fatalf("first meeting shipped %d rows, want 2", st.Rows)
	}
	if a.RowUpdated(1) != 2 || b.RowUpdated(0) != 5 {
		t.Fatalf("rows did not cross: a sees row1@%g, b sees row0@%g", a.RowUpdated(1), b.RowUpdated(0))
	}
}

// TestSparseEvictionForcesFullDigest pins the cap-soundness fallback: when
// one side evicted a row since the pair last met, the peer re-offers its
// full set, so the evicted row is re-learned even though its stamp never
// moved.
func TestSparseEvictionForcesFullDigest(t *testing.T) {
	a, b := NewSparseRows(), NewSparseRows()
	// b publishes rows 1..4; a learns them all on the first sync.
	for id := 1; id <= 4; id++ {
		b.Publish(id, NewRow(float64(id), []int32{9}, []float64{float64(id)}))
	}
	SyncRows(a, b, 0, 1, ExchangeDelta)
	if a.Len() != 4 {
		t.Fatalf("first sync: a holds %d rows, want 4", a.Len())
	}
	// a's cap squeezes out the stalest row (owner 1).
	a.SetCap(3, -1)
	if a.Row(1) != nil {
		t.Fatalf("cap did not evict the stalest row")
	}
	a.SetCap(0, -1) // lift the cap; the eviction already happened
	st := SyncRows(a, b, 0, 1, ExchangeDelta)
	if a.Row(1) == nil {
		t.Fatalf("re-sync after eviction did not restore the evicted row")
	}
	if v, ok := a.Row(1).Get(9); !ok || v != 1 {
		t.Fatalf("restored row has wrong content: %v %v", v, ok)
	}
	if st.DigestRows != 4 {
		t.Fatalf("post-eviction sync advertised %d rows, want full digest of 4", st.DigestRows)
	}
	// With no further evictions the next idle sync is quiet again.
	st = SyncRows(a, b, 0, 1, ExchangeDelta)
	if st.Rows != 0 || st.DigestRows != 0 {
		t.Fatalf("idle re-sync after recovery still active: %+v", st)
	}
}

// TestParseExchangeMode covers the spec-level names round trip.
func TestParseExchangeMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want ExchangeMode
	}{{"", ExchangeFresher}, {"fresher", ExchangeFresher}, {"flood", ExchangeFlood}, {"delta", ExchangeDelta}} {
		got, err := ParseExchangeMode(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseExchangeMode(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if tc.in != "" && got.String() != tc.in {
			t.Fatalf("mode %v prints %q, want %q", got, got.String(), tc.in)
		}
	}
	if _, err := ParseExchangeMode("gossip-harder"); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

// TestExchangeStatsDigestAccounting pins the byte model of the digest
// round-trip: varint (owner, stamp) entries plus the fixed header and
// request costs.
func TestExchangeStatsDigestAccounting(t *testing.T) {
	var st ExchangeStats
	// Three advertised rows as a digest would size them.
	payload := DigestEntryLen(7, 100) + DigestEntryLen(300, 2.5) + DigestEntryLen(70000, 9000)
	st.AddDigest(3, payload)
	st.AddRequests(2)
	st.AddRow(5)
	// uvarintLen(7)=1 + uvarintLen(100000)=3; uvarintLen(300)=2 +
	// uvarintLen(2500)=2; uvarintLen(70000)=3 + uvarintLen(9000000)=4.
	if payload != 4+4+7 {
		t.Fatalf("varint payload = %d, want 15", payload)
	}
	wantDigest := digestHeaderBytes + payload + 2*requestEntryBytes
	if st.DigestBytes != wantDigest {
		t.Fatalf("DigestBytes = %d, want %d", st.DigestBytes, wantDigest)
	}
	if want := wantDigest + rowHeaderBytes + 5*entryBytes; st.Bytes != want {
		t.Fatalf("Bytes = %d, want %d", st.Bytes, want)
	}
	if st.DigestRows != 3 || st.Rows != 1 || st.Entries != 5 {
		t.Fatalf("counter mismatch: %+v", st)
	}
}

// TestUvarintLen pins the varint size helper against the encoding the
// cost model claims (7 bits per byte).
func TestUvarintLen(t *testing.T) {
	for _, tc := range []struct {
		v    uint64
		want int
	}{{0, 1}, {127, 1}, {128, 2}, {16383, 2}, {16384, 3}, {1 << 28, 5}, {^uint64(0), 10}} {
		if got := uvarintLen(tc.v); got != tc.want {
			t.Fatalf("uvarintLen(%d) = %d, want %d", tc.v, got, tc.want)
		}
	}
	// digestStamp quantizes to whole milliseconds.
	if digestStamp(2.5) != 2500 || digestStamp(0) != 0 || digestStamp(1.0001) != 1000 {
		t.Fatalf("digestStamp quantization wrong: %d %d %d", digestStamp(2.5), digestStamp(0), digestStamp(1.0001))
	}
}

// TestDenseSparseDeltaAgree runs the same schedule through dense and
// sparse storage under delta mode and compares the shipped volumes sync by
// sync — the storage-independence promise of ExchangeStats extended to
// delta metering.
func TestDenseSparseDeltaAgree(t *testing.T) {
	sc := makeScript(10, 300, 13)
	_, dense := playScript(sc, false, 0, ExchangeDelta)
	_, sparse := playScript(sc, true, 0, ExchangeDelta)
	if len(dense) != len(sparse) {
		t.Fatalf("sync count diverged: %d vs %d", len(dense), len(sparse))
	}
	for k := range dense {
		d, s := dense[k], sparse[k]
		if d.Rows != s.Rows || d.Entries != s.Entries || d.DigestRows != s.DigestRows || d.Bytes != s.Bytes {
			t.Fatalf("sync %d: dense %+v vs sparse %+v", k, d, s)
		}
	}
}

// sanity check used by the fingerprint: Unknown must not format as a
// finite value.
var _ = math.IsInf
