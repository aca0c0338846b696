package buildsplit

const kernel = "asm"

// add is implemented in add_amd64.s; analyzers see this declaration only.
func add(a, b uint64) uint64
