package rewrite

// SetDropEntailed turns the entailed-atom pass on or off for the
// differential soundness test and returns a function restoring the
// previous setting.
func SetDropEntailed(on bool) (restore func()) {
	prev := skipDropEntailed
	skipDropEntailed = !on
	return func() { skipDropEntailed = prev }
}
