package mlab

// ScanRecord resets rec and reports whether the hand scanner itself
// decodes line into it, for the package's external tests.
func ScanRecord(line []byte, rec *Record) bool {
	rec.reset()
	return scanRecord(line, rec)
}
