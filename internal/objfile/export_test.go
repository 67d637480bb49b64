package objfile

// ScanExternals is the walk behind Externals, run afresh on every
// call, so tests can compare the memoised list against it.
func ScanExternals(o *Object) []string { return o.scanExternals() }
