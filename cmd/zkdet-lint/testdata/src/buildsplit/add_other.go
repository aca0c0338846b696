//go:build !amd64

package buildsplit

const kernel = "go"

func add(a, b uint64) uint64 { return a + b }
