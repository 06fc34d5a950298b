//go:build !amd64

package main

// cpuModel is only implemented on amd64; elsewhere the stamp omits it.
func cpuModel() string { return "" }
