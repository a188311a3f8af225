package traffic

import (
	"time"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/transport"
)

// The video model follows the structure of deployed players: content
// is divided into fixed-duration chunks encoded at a ladder of bitrates;
// the player keeps a playback buffer between low and high watermarks,
// requesting the next chunk when below the high mark and idling
// otherwise. Bitrate selection combines a throughput rule (EWMA of
// recent chunk download rates, with a safety factor) and buffer-based
// overrides (BBA-style).
//
// The essential property for the paper's argument is that the stream's
// long-run offered load is bounded by its top bitrate — it is
// application-limited, so it does not contend like a backlogged CCA
// flow.
const (
	// videoChunk is seconds of content per chunk.
	videoChunk = 2 * time.Second
	// videoBufferLow and videoBufferHigh are the playback-buffer
	// watermarks.
	videoBufferLow  = 5 * time.Second
	videoBufferHigh = 15 * time.Second
	// videoSafety scales the throughput estimate when picking a bitrate.
	videoSafety = 0.8
)

// videoLadder lists the available bitrates in bits/s, ascending — a
// typical HD ladder.
var videoLadder = [...]float64{1e6, 2.5e6, 4e6, 6e6, 8e6}

// Video is an ABR video stream over one transport flow.
type Video struct {
	Flow *transport.Flow
	eng  *sim.Engine

	bitrateIdx  int
	buffer      time.Duration // seconds of content buffered
	lastUpdate  time.Duration
	playing     bool
	downloading bool
	chunkStart  time.Duration
	chunkBytes  int64
	ackedAtReq  int64
	stopped     bool

	tputEWMA *stats.EWMA

	// ChunksFetched counts completed chunk downloads.
	ChunksFetched int
	// Rebuffers counts playback stalls.
	Rebuffers int
	// RebufferTime accumulates stall duration.
	RebufferTime time.Duration
}

// NewVideo creates the stream and requests its first chunk.
func NewVideo(eng *sim.Engine, fcfg transport.FlowConfig) *Video {
	fcfg.Backlogged = false
	v := &Video{
		Flow:     transport.NewFlow(eng, fcfg),
		eng:      eng,
		tputEWMA: stats.NewEWMA(0.4),
	}
	v.lastUpdate = eng.Now()
	v.requestChunk()
	return v
}

// Stop ends the stream.
func (v *Video) Stop() { v.stopped = true }

// Bitrate returns the currently selected bitrate in bits/s.
func (v *Video) Bitrate() float64 { return videoLadder[v.bitrateIdx] }

// advancePlayback drains the buffer for elapsed playback time and
// tracks rebuffering.
func (v *Video) advancePlayback() {
	now := v.eng.Now()
	el := now - v.lastUpdate
	v.lastUpdate = now
	if el <= 0 {
		return
	}
	if !v.playing {
		// Startup / rebuffering: waiting for the buffer to refill.
		v.RebufferTime += el
		return
	}
	if el >= v.buffer {
		// Stall.
		v.RebufferTime += el - v.buffer
		v.buffer = 0
		v.playing = false
		v.Rebuffers++
		return
	}
	v.buffer -= el
}

func (v *Video) requestChunk() {
	if v.stopped {
		return
	}
	v.advancePlayback()
	if v.buffer >= videoBufferHigh {
		// Full: idle until one chunk of content has played out.
		v.eng.Schedule(videoChunk, v.requestChunk)
		return
	}
	v.pickBitrate()
	now := v.eng.Now()
	v.chunkBytes = int64(v.Bitrate() * videoChunk.Seconds() / 8)
	v.chunkStart = now
	v.ackedAtReq = v.Flow.Sender.BytesAcked()
	v.downloading = true
	v.Flow.Sender.OnComplete = nil // reset any prior hook
	v.Flow.Sender.Supply(v.chunkBytes)
	v.pollChunk()
}

// pollChunk watches for chunk completion. Polling at a small interval
// keeps the video model independent of transport internals.
func (v *Video) pollChunk() {
	if v.stopped {
		return
	}
	if v.Flow.Sender.BytesAcked()-v.ackedAtReq >= v.chunkBytes {
		v.finishChunk()
		return
	}
	v.eng.Schedule(10*time.Millisecond, v.pollChunk)
}

func (v *Video) finishChunk() {
	now := v.eng.Now()
	v.downloading = false
	v.ChunksFetched++
	dl := (now - v.chunkStart).Seconds()
	if dl > 0 {
		v.tputEWMA.Update(float64(v.chunkBytes) * 8 / dl)
	}
	v.advancePlayback()
	v.buffer += videoChunk
	if !v.playing && v.buffer >= videoBufferLow {
		v.playing = true
	}
	v.requestChunk()
}

// pickBitrate selects the next chunk's bitrate.
func (v *Video) pickBitrate() {
	est := v.tputEWMA.Value() * videoSafety
	idx := 0
	if v.tputEWMA.Initialized() {
		for i, r := range videoLadder {
			if r <= est {
				idx = i
			}
		}
	}
	// Buffer overrides: panic down when low, allow up when high.
	if v.buffer < videoBufferLow/2 {
		idx = 0
	} else if v.buffer > videoBufferHigh*3/4 && idx < len(videoLadder)-1 {
		idx++
	}
	v.bitrateIdx = idx
}
