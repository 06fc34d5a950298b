package network

// Hooks for the external network_test package, compiled only into this
// package's tests.

// GridCell returns w's grid cell edge in metres.
func GridCell(w *World) float64 { return w.grid.cell }

// ForceGridCell sets w's grid cell edge to c metres. Like the stripe
// width, it must be set before the first tick buckets anything.
func ForceGridCell(w *World, c float64) { w.grid.cell = c }
