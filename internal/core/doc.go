// Package core implements the contact-expectation machinery that is the
// primary contribution of Chen & Lou, "On Using Contact Expectation for
// Routing in Delay Tolerant Networks" (ICPP 2011):
//
//   - History — per-node sliding windows of pairwise meeting intervals and
//     last-contact times (Section III-A.1).
//   - History.EncounterProb / History.EEV — Theorem 1: the expected
//     encounter value of a node within (t, t+τ], conditioned on the elapsed
//     time since the last contact with each peer.
//   - History.EMD — Theorem 2: the expected meeting delay to a peer,
//     i.e. the mean of the recorded intervals still compatible with the
//     elapsed time, minus the elapsed time.
//   - History.ENEC / History.CommunityProb — Theorem 4: the expected number
//     of communities a node will encounter within (t, t+τ], and the
//     probability of encountering one given community.
//   - Row, RowSet — a published estimator row (freshness timestamp plus
//     its known entries) is an immutable value: only its owner builds new
//     versions, and the merge rule of Section III-B.2 (footnote 1: only
//     fresher rows are exchanged) swaps whole rows, so every store shares
//     row pointers instead of copying entries. A RowSet holds the rows of
//     the owners its node has heard of, sorted by owner.
//   - MeetingMatrix — the link-state MI matrix of average meeting
//     intervals over those rows, for the whole network (EER) or one
//     community (CR).
//   - MEMD — Theorem 3: the minimum expected meeting delay, computed by a
//     radix-queue Dijkstra over the MD matrix whose own row holds
//     Theorem-2 EMDs and whose remaining rows hold MI averages. A contact
//     side's MEMDRun freezes those inputs and settles only as far as its
//     forwarding decisions need.
//
// Per-node state grows with the peers a node observed, never with the
// network size: histories keep one record per met peer, stores one row per
// heard-of owner. Only per-world scratch — the Dijkstra's distances and
// row index — is n-wide, which is what lets the protocols run at city
// scale.
//
// Conventions for cases the paper leaves open (documented in DESIGN.md and
// pinned by tests): a pair that has never met contributes probability 0 and
// delay +Inf; a pair whose elapsed time exceeds every recorded interval is
// "overdue" — its encounter probability falls back to 1 within any positive
// horizon and its EMD falls back to the unconditioned mean interval.
package core
