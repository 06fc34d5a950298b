package core

import (
	"math"
	"testing"
)

func TestMeetingMatrixBasics(t *testing.T) {
	m := NewFullMeetingMatrix(3)
	if m.Size() != 3 {
		t.Fatalf("Size = %d, want 3", m.Size())
	}
	if v := m.Interval(0, 1); !math.IsInf(v, 1) {
		t.Errorf("fresh interval = %g, want +Inf", v)
	}
	if v := m.Interval(1, 1); v != 0 {
		t.Errorf("diagonal = %g, want 0", v)
	}
	if u := m.RowUpdated(0); u != -1 {
		t.Errorf("fresh RowUpdated = %g, want -1", u)
	}
	h := NewHistory(0, 3, 0)
	h.RecordContact(1, 10)
	h.RecordContact(1, 40) // mean 30
	m.UpdateOwnRow(0, 40, h)
	if v := m.Interval(0, 1); v != 30 {
		t.Errorf("Interval(0,1) = %g, want 30", v)
	}
	if v := m.Interval(0, 2); !math.IsInf(v, 1) {
		t.Errorf("Interval(0,2) = %g, want +Inf", v)
	}
	if u := m.RowUpdated(0); u != 40 {
		t.Errorf("RowUpdated = %g, want 40", u)
	}
}

func TestMeetingMatrixScopedIDs(t *testing.T) {
	m := NewMeetingMatrix([]int{3, 7, 9})
	if !m.Covers(7) {
		t.Fatal("Covers(7) should be true")
	}
	if m.Covers(5) {
		t.Error("Covers(5) should be false")
	}
	if v := m.Interval(3, 5); !math.IsInf(v, 1) {
		t.Errorf("uncovered Interval = %g, want +Inf", v)
	}
	h := NewHistory(7, 10, 0)
	h.RecordContact(9, 0)
	h.RecordContact(9, 50)
	h.RecordContact(2, 1) // outside the matrix scope; must be ignored
	h.RecordContact(2, 2)
	m.UpdateOwnRow(7, 50, h)
	if v := m.Interval(7, 9); v != 50 {
		t.Errorf("Interval(7,9) = %g, want 50", v)
	}
}

func TestMergeFreshness(t *testing.T) {
	a := NewFullMeetingMatrix(2)
	b := NewFullMeetingMatrix(2)
	ha := NewHistory(0, 2, 0)
	ha.RecordContact(1, 0)
	ha.RecordContact(1, 20)
	a.UpdateOwnRow(0, 20, ha)

	hb := NewHistory(1, 2, 0)
	hb.RecordContact(0, 0)
	hb.RecordContact(0, 30)
	b.UpdateOwnRow(1, 30, hb)

	Sync(a, b)
	if v := a.Interval(1, 0); v != 30 {
		t.Errorf("a learned Interval(1,0) = %g, want 30", v)
	}
	if v := b.Interval(0, 1); v != 20 {
		t.Errorf("b learned Interval(0,1) = %g, want 20", v)
	}
	if a.KnownRows() != 2 || b.KnownRows() != 2 {
		t.Errorf("KnownRows after sync = %d, %d; want 2, 2", a.KnownRows(), b.KnownRows())
	}

	// A staler copy must not overwrite a fresher row.
	stale := NewFullMeetingMatrix(2)
	if st := a.Merge(stale); st.Rows != 0 {
		t.Errorf("merging stale matrix copied %d rows, want 0", st.Rows)
	}
	if v := a.Interval(1, 0); v != 30 {
		t.Errorf("row overwritten by stale merge: %g", v)
	}
}

func TestMergeRequiresSameIDs(t *testing.T) {
	a := NewMeetingMatrix([]int{0, 1})
	b := NewMeetingMatrix([]int{0, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic merging different node sets")
		}
	}()
	a.Merge(b)
}

func TestClone(t *testing.T) {
	a := NewFullMeetingMatrix(2)
	h := NewHistory(0, 2, 0)
	h.RecordContact(1, 0)
	h.RecordContact(1, 10)
	a.UpdateOwnRow(0, 10, h)
	c := a.Clone()
	if c.Interval(0, 1) != 10 || c.RowUpdated(0) != 10 {
		t.Fatal("clone lost data")
	}
	h.RecordContact(1, 50)
	a.UpdateOwnRow(0, 50, h)
	if c.Interval(0, 1) != 10 {
		t.Error("clone aliases the original")
	}
}

func TestDuplicateIDsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate ids")
		}
	}()
	NewMeetingMatrix([]int{1, 1})
}
