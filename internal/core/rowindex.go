package core

import (
	"iter"
	"math/bits"
)

// RowIndex is the per-row neighbour index of a dense n×n store: for each
// row, the set of columns holding an entry (a known MI average, a positive
// MaxProp probability), as a bitmap of ceil(n/64) words. All rows share
// one slab, so an index costs n²/8 bytes — a sixty-fourth of the float64
// rows it indexes, whatever their density — and never allocates after
// construction. Iteration is ascending by column, the order every
// simulation-visible float reduction over a row must follow.
type RowIndex struct {
	stride int // words per row
	words  []uint64
}

// NewRowIndex returns an empty index over n rows of n columns.
func NewRowIndex(n int) RowIndex {
	stride := (n + 63) / 64
	return RowIndex{stride: stride, words: make([]uint64, n*stride)}
}

func (x RowIndex) row(i int) []uint64 { return x.words[i*x.stride : (i+1)*x.stride] }

// Set adds column j to row i.
func (x RowIndex) Set(i, j int) { x.words[i*x.stride+j>>6] |= 1 << (j & 63) }

// Clear removes column j from row i.
func (x RowIndex) Clear(i, j int) { x.words[i*x.stride+j>>6] &^= 1 << (j & 63) }

// ClearRow empties row i.
func (x RowIndex) ClearRow(i int) { clear(x.row(i)) }

// CopyRow overwrites row i with src's row i; both indexes must have the
// same size.
func (x RowIndex) CopyRow(i int, src RowIndex) { copy(x.row(i), src.row(i)) }

// Len returns the number of columns in row i.
func (x RowIndex) Len(i int) int {
	n := 0
	for _, w := range x.row(i) {
		n += bits.OnesCount64(w)
	}
	return n
}

// Cols yields row i's columns in ascending order. Each word is read once
// before its columns are yielded, so the loop body may Clear the column it
// is visiting.
func (x RowIndex) Cols(i int) iter.Seq[int] {
	return func(yield func(int) bool) {
		for k, w := range x.row(i) {
			for w != 0 {
				if !yield(k<<6 | bits.TrailingZeros64(w)) {
					return
				}
				w &= w - 1
			}
		}
	}
}
