package community

import "testing"

func TestRegistryBasics(t *testing.T) {
	r := New([]int{0, 1, 0, 2, 1})
	if r.Count() != 3 || r.N() != 5 {
		t.Fatalf("Count=%d N=%d", r.Count(), r.N())
	}
	if r.Of(3) != 2 {
		t.Errorf("Of(3) = %d", r.Of(3))
	}
	if m := r.Members(0); len(m) != 2 || m[0] != 0 || m[1] != 2 {
		t.Errorf("Members(0) = %v", m)
	}
	if !r.Same(0, 2) || r.Same(0, 1) {
		t.Error("Same wrong")
	}
	if len(r.Communities()) != 3 {
		t.Error("Communities wrong")
	}
}

func TestRegistryValidation(t *testing.T) {
	for name, ids := range map[string][]int{
		"negative": {0, -1},
		"sparse":   {0, 2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			New(ids)
		}()
	}
}

func TestFromAssignerCompacts(t *testing.T) {
	// Assigner yields ids 5 and 9; they must be renumbered 0 and 1.
	r := FromAssigner(4, func(i int) int {
		if i%2 == 0 {
			return 5
		}
		return 9
	})
	if r.Count() != 2 {
		t.Fatalf("Count = %d", r.Count())
	}
	if r.Of(0) != 0 || r.Of(1) != 1 || r.Of(2) != 0 {
		t.Errorf("compacted ids wrong: %d %d %d", r.Of(0), r.Of(1), r.Of(2))
	}
}
