package tcpinfo

import (
	"encoding/json"
	"testing"
	"time"
)

func TestFractions(t *testing.T) {
	s := Snapshot{
		At:         10 * time.Second,
		AppLimited: 4 * time.Second,
	}
	if got := s.AppLimitedFraction(); got != 0.4 {
		t.Errorf("AppLimitedFraction = %v", got)
	}
	var zero Snapshot
	if zero.AppLimitedFraction() != 0 {
		t.Error("zero snapshot fractions should be 0")
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	s := Snapshot{
		At:            time.Second,
		BytesSent:     1000,
		BytesAcked:    900,
		BytesRetrans:  100,
		ThroughputBps: 7.2e6,
		SRTT:          35 * time.Millisecond,
		MinRTT:        20 * time.Millisecond,
		CWnd:          42 * 1500,
		LostPackets:   3,
		AppLimited:    200 * time.Millisecond,
		RWndLimited:   100 * time.Millisecond,
		BusyTime:      700 * time.Millisecond,
	}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var got Snapshot
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got != s {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, s)
	}
}
