package obs

// Total returns how many events have been emitted over the recorder's
// lifetime (retained or overwritten).
func (f *FlightRecorder) Total() uint64 { return f.next.Load() }
