package translate

// Reduce runs the top-of-stack reduction on the PDS of a system built with
// NoReductions, as Build would have.
func Reduce(sys *System) {
	(&builder{System: sys, pathNFA: sys.Query.PathNFA}).reduce()
}
