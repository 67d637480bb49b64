package objfile

// ScanExternals is the walk behind Externals, run afresh on every
// call, so tests can compare the memoised list against it.
func ScanExternals(o *Object) []string { return o.scanExternals() }

// ValidateFresh is the walk behind Validate, run afresh on every
// call, so tests can compare the memoised verdict against it.
func ValidateFresh(o *Object) error { return o.validate() }

// InvalidObjects builds a fresh object for each case of
// TestValidateCatches's table, so tests outside the package can run
// objects that fail Validate through the memo.
func InvalidObjects() []*Object {
	out := make([]*Object, len(invalidObjects))
	for i, c := range invalidObjects {
		out[i] = c.build()
	}
	return out
}
