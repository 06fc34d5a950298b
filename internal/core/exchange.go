package core

import "fmt"

// This file is the delta/digest gossip layer over the freshness merge of
// Algorithm 1 line 4. The paper's exchange is semantic: two encountering
// nodes end up with the element-wise fresher rows. How many bytes that
// costs depends on the wire protocol, and this layer meters three:
//
//   - ExchangeFresher: the repository's historical accounting — only the
//     rows that actually replace the receiver's are counted, and the
//     freshness negotiation itself is treated as free. An optimistic
//     lower bound kept as the default so long-standing figure baselines
//     stay comparable.
//   - ExchangeFlood: each side transmits every published row it holds and
//     the receiver keeps the fresher ones — what a naive implementation
//     (and MaxProp's original "flooded vectors" description) would put on
//     the air. The honest upper baseline for savings claims.
//   - ExchangeDelta: anti-entropy. Each store counts local row mutations
//     (version), stamps each row with the version of its last mutation,
//     and remembers the version as of the end of its last sync with each
//     peer. A sync first trades digests — one (owner, freshness stamp)
//     entry per row mutated since the peers last met — then each side
//     requests and receives exactly the advertised rows that beat its
//     own. First meetings degenerate to a full digest (the watermark is
//     zero), and a capped store that evicted rows since the last sync
//     makes its peer fall back to a full digest too (tracked by an
//     eviction generation), because an evicted row must be re-offered
//     even though its sender never re-mutated it.
//
// All three modes apply the identical fresher-wins merge — routing state,
// and therefore every simulation outcome except the gossip byte counters,
// is mode-independent. For delta this needs the watermark soundness
// argument: after two stores delta-sync, their row stamps agree on every
// row (both end with the element-wise max, exactly as a full sync), so a
// row one side holds strictly fresher at the *next* sync must have mutated
// there in between — and rows mutated since the last sync are precisely
// what the digest advertises. Cap evictions are the one way a store can
// fall behind without the invariant noticing, which the eviction
// generation fallback closes. exchange_test.go pins the equivalence, and
// the scenario-level suite pins dense == sparse == delta at summary level.

// ExchangeMode selects the metered wire protocol of estimator syncs.
type ExchangeMode uint8

const (
	// ExchangeFresher meters replaced rows only (legacy accounting).
	ExchangeFresher ExchangeMode = iota
	// ExchangeFlood meters full row-set transmission both ways.
	ExchangeFlood
	// ExchangeDelta meters digest round-trip + requested rows only.
	ExchangeDelta
)

// ParseExchangeMode maps the scenario-level gossip mode names; the empty
// string selects the historical default.
func ParseExchangeMode(s string) (ExchangeMode, error) {
	switch s {
	case "", "fresher":
		return ExchangeFresher, nil
	case "flood":
		return ExchangeFlood, nil
	case "delta":
		return ExchangeDelta, nil
	}
	return 0, fmt.Errorf("core: unknown gossip mode %q (want fresher, flood or delta)", s)
}

// String returns the spec-level name of the mode.
func (m ExchangeMode) String() string {
	switch m {
	case ExchangeFlood:
		return "flood"
	case ExchangeDelta:
		return "delta"
	default:
		return "fresher"
	}
}

// SyncMode merges two stores of the same implementation into the
// element-wise fresher rows, metering the exchange under the given mode.
// aID and bID are the global node ids of the stores' owners (the keys of
// the per-peer delta watermarks). Mixing implementations panics: a world
// runs one storage mode.
func SyncMode(a, b MeetingStore, aID, bID int, mode ExchangeMode) ExchangeStats {
	switch x := a.(type) {
	case *MeetingMatrix:
		y := b.(*MeetingMatrix)
		sameIDs(x, y)
		return SyncRows(&x.rows, &y.rows, aID, bID, mode)
	case *SparseMeetingStore:
		return SyncRows(x.rows, b.(*SparseMeetingStore).rows, aID, bID, mode)
	default:
		panic(fmt.Sprintf("core: SyncMode over unknown MeetingStore implementation %T", a))
	}
}

// SyncRows merges two row sets of the same implementation both ways — the
// exchange behind every MI sync and MaxProp's vector flood — metering under
// the given mode. a absorbs b's fresher rows first, then b reads a's merged
// state; rows a just learned carry equal freshness, so they never ship
// back.
func SyncRows(a, b RowSet, aID, bID int, mode ExchangeMode) ExchangeStats {
	switch mode {
	case ExchangeFlood:
		var st ExchangeStats
		st.Add(a.floodVolume())
		st.Add(b.floodVolume())
		a.mergeFrom(b, 0, true)
		b.mergeFrom(a, 0, true)
		return st
	case ExchangeDelta:
		return syncDelta(a, b, aID, bID)
	default:
		st := a.mergeFrom(b, 0, true)
		st.Add(b.mergeFrom(a, 0, true))
		return st
	}
}

func syncDelta(a, b RowSet, aID, bID int) ExchangeStats {
	ga, gb := a.gossip(), b.gossip()
	// A side evicted rows since the peers last met (or mid-sync, hence the
	// pre-merge snapshot below) may be missing rows its peer never
	// re-mutated; the peer answers with a full digest.
	aFull := gb.evictGen != gb.evictSeen[aID]
	bFull := ga.evictGen != ga.evictSeen[bID]
	aSeen, bSeen := ga.seen[bID], gb.seen[aID]
	aEvictPre, bEvictPre := ga.evictGen, gb.evictGen
	var st ExchangeStats
	st.AddDigest(a.advertised(aSeen, aFull))
	st.AddDigest(b.advertised(bSeen, bFull))
	// Same sequential direction order as the fresher path, so the shipped
	// row sets match fresher exactly even when a's cap evicts mid-sync;
	// the eviction itself is caught by the evictGen fallback at the pair's
	// next meeting.
	fwd := a.mergeFrom(b, bSeen, bFull)
	back := b.mergeFrom(a, aSeen, aFull)
	st.Add(fwd)
	st.Add(back)
	st.AddRequests(fwd.Rows + back.Rows)
	ga.noteSynced(bID, aEvictPre)
	gb.noteSynced(aID, bEvictPre)
	return st
}

// noteSynced records the delta watermarks at the end of a sync with peer:
// the current version (rows learned during the sync need no re-advertising
// — the peer sent them) and the pre-sync eviction generation (evictions
// during the sync still demand a full digest next time).
func (g *gossipMarks) noteSynced(peer int, evictPre uint64) {
	if g.seen == nil {
		g.seen = make(map[int]uint64)
	}
	g.seen[peer] = g.version
	// A missing entry reads 0, so stores that never evicted keep no map.
	if evictPre != 0 || g.evictSeen != nil {
		if g.evictSeen == nil {
			g.evictSeen = make(map[int]uint64)
		}
		g.evictSeen[peer] = evictPre
	}
}
