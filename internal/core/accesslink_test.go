package core

import (
	"fmt"
	"testing"

	"repro/internal/scenario"
)

// TestAccessLinkReproducesExample pins the §2.2 mix at its 60 s
// default to the numbers the hand-written access-link program printed
// before it became this cell: a Reno update leaves the video its full
// bitrate, BBR on a FIFO crushes it, and fq_codel restores it.
func TestAccessLinkReproducesExample(t *testing.T) {
	if testing.Short() {
		t.Skip("three 60 s simulations")
	}
	for _, tc := range []struct {
		cca   string
		queue QueueKind
		want  string
	}{
		{"reno", QueueDropTail, "8.00 Mbit/s 8.00 Mbit/s 0 85% 76.69 Mbit/s 195/0"},
		{"bbr", QueueDropTail, "1.73 Mbit/s 2.50 Mbit/s 1 4% 95.80 Mbit/s 194/1"},
		{"bbr", QueueFQCoDel, "6.87 Mbit/s 8.00 Mbit/s 0 6% 90.75 Mbit/s 195/0"},
	} {
		r, err := runSpec[*AccessLinkResult](t, "accesslink", scenario.Spec{CCAs: []string{tc.cca}, Queue: string(tc.queue), Seed: 42}, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%s %s %d %.0f%% %s %d/%d",
			FmtBps(r.VideoTputBps), FmtBps(r.VideoBitrateBps), r.Rebuffers, 100*r.VideoAppLimited,
			FmtBps(r.UpdateTputBps), r.WebCompleted, r.WebActive)
		if got != tc.want {
			t.Errorf("%s, %s: got %q, want %q", tc.cca, tc.queue, got, tc.want)
		}
	}
}
