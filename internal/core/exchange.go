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
// All three modes run the one fresher-wins merge (RowSet.MergeFresher) —
// routing state, and therefore every simulation outcome except the gossip
// byte counters, is mode-independent by construction. The delta digest
// only meters it, and its bytes are honest by the watermark soundness
// argument: after two stores delta-sync, their row stamps agree on every
// row (both end with the element-wise max, exactly as a full sync), so a
// row one side holds strictly fresher at the *next* sync must have mutated
// there in between — and rows mutated since the last sync are precisely
// what the digest advertises. Cap evictions are the one way a store can
// fall behind without the invariant noticing, which the eviction
// generation fallback closes. exchange_test.go pins that every shipped row
// was advertised, and the scenario-level suite pins mode independence at
// summary level.

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

// SyncMode merges two stores into the element-wise fresher rows, metering
// the exchange under the given mode. aID and bID are the global node ids
// of the stores' owners (the keys of the per-peer delta watermarks). Both
// stores must cover the same node set.
func SyncMode(a, b *MeetingMatrix, aID, bID int, mode ExchangeMode) ExchangeStats {
	sameScope(a, b)
	return SyncRows(a.rows, b.rows, aID, bID, mode)
}

// SyncRows merges two row sets both ways — the exchange behind every MI
// sync and MaxProp's vector flood — metering under the given mode. a
// absorbs b's fresher rows first, then b reads a's merged state; rows a
// just learned carry equal freshness, so they never ship back.
func SyncRows(a, b *RowSet, aID, bID int, mode ExchangeMode) ExchangeStats {
	switch mode {
	case ExchangeFlood:
		var st ExchangeStats
		st.Add(a.floodVolume())
		st.Add(b.floodVolume())
		a.MergeFresher(b)
		b.MergeFresher(a)
		return st
	case ExchangeDelta:
		return syncDelta(a, b, aID, bID)
	default:
		st := a.MergeFresher(b)
		st.Add(b.MergeFresher(a))
		return st
	}
}

func syncDelta(a, b *RowSet, aID, bID int) ExchangeStats {
	ga, gb := &a.gossipMarks, &b.gossipMarks
	aSeen, aFull := digestMarks(a, b, aID, bID)
	bSeen, bFull := digestMarks(b, a, bID, aID)
	aEvictPre, bEvictPre := ga.evictGen, gb.evictGen
	var st ExchangeStats
	st.AddDigest(a.advertised(aSeen, aFull))
	st.AddDigest(b.advertised(bSeen, bFull))
	// The digests only meter: the merge is the fresher path's, in the
	// same direction order, so a sound watermark means every row it ships
	// was advertised (TestDeltaEquivalence pins that).
	fwd := a.MergeFresher(b)
	back := b.MergeFresher(a)
	st.Add(fwd)
	st.Add(back)
	st.AddRequests(fwd.Rows + back.Rows)
	ga.noteSynced(bID, aEvictPre)
	gb.noteSynced(aID, bEvictPre)
	return st
}

// digestMarks returns what s's digest to peer advertises: the rows s
// mutated after seen, or every row when full. A peer that evicted rows
// since the two last met (or mid-sync, hence syncDelta's pre-merge
// eviction snapshot) may be missing rows s never re-mutated, so s answers
// it with a full digest.
func digestMarks(s, peer *RowSet, sID, peerID int) (seen uint64, full bool) {
	return s.seen[peerID], peer.evictGen != peer.evictSeen[sID]
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
