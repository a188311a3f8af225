package mlab

// ScanRecord resets rec and reports whether the hand scanner itself
// decodes line into it, for the package's external tests.
func ScanRecord(line []byte, rec *Record) bool {
	rec.reset()
	return scanRecord(line, rec)
}

// Count returns the number of records decoded so far.
func (s *RecordStream) Count() int { return s.n }
