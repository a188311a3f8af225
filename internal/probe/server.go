package probe

import (
	"context"
	"math"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// ServerConfig parameterizes the probe server.
type ServerConfig struct {
	// Addr is the UDP listen address, e.g. ":4460".
	Addr string
	// MaxSessions caps concurrently tracked sessions (default 1024).
	// A Hello beyond the cap gets a Busy reply.
	MaxSessions int
	// SessionTTL evicts sessions with no traffic for this long
	// (default 2m). Clients that die without a Bye would otherwise
	// leak table entries forever.
	SessionTTL time.Duration
	// Readers is the number of goroutines sharing the UDP socket —
	// the Go netpoller multiplexes them, each with private read and
	// reply buffers (default min(4, GOMAXPROCS)).
	Readers int
	// SnapshotInterval is the per-session throughput accounting cadence
	// feeding the spool's mlab-schema trace (default 500ms).
	SnapshotInterval time.Duration

	// PerSourcePPS rate-limits Hellos per source IP ahead of session
	// admission (token bucket, burst PerSourceBurst; 0 disables); Data
	// and Bye packets are not charged to it. A limited Hello gets a
	// Busy|FlagRateLimited reply.
	PerSourcePPS   float64
	PerSourceBurst float64
	// GlobalPPS is the server-wide packets-per-second ceiling with
	// prioritized shedding: new Hellos are charged against a reserve
	// that Data packets of admitted sessions may drain to zero, so
	// overload stops admission before it starves admitted sessions
	// (0 disables).
	GlobalPPS   float64
	GlobalBurst float64
	// BusyRetryHint is the retry-after delay advertised in Busy
	// replies (default 500ms; capped at 65s by the wire field).
	BusyRetryHint time.Duration

	// Sink, when non-nil, receives a SessionRecord as each session
	// ends (bye, eviction, drain, close) — wire a *spool.Writer here.
	Sink RecordSink

	// Logf, if non-nil, receives diagnostic lines.
	Logf func(format string, args ...interface{})
}

func (c ServerConfig) norm() ServerConfig {
	if c.Addr == "" {
		c.Addr = ":4460"
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 2 * time.Minute
	}
	if c.Readers <= 0 {
		c.Readers = 4
		if n := runtime.GOMAXPROCS(0); n < c.Readers {
			c.Readers = n
		}
	}
	if c.SnapshotInterval <= 0 {
		c.SnapshotInterval = 500 * time.Millisecond
	}
	if c.BusyRetryHint <= 0 {
		c.BusyRetryHint = 500 * time.Millisecond
	}
	return c
}

// ServerStats are the server's lifetime counters. Each is drawn from
// the server's metrics registry (Server.Metrics) under the name
// probe.server.<name> given beside it.
type ServerStats struct {
	DataPackets *obs.Counter // data_packets
	DataBytes   *obs.Counter // data_bytes
	Acks        *obs.Counter // acks
	Sessions    *obs.Counter // sessions_total
	// BadPackets counts datagrams that changed nothing: undecodable,
	// oversize or of no request type, a Data for a session not live
	// under the sender's address, or a Hello or Bye for one live under
	// another address.
	BadPackets *obs.Counter // bad_packets
	// Evicted counts sessions removed by the TTL sweep; Rejected counts
	// Hellos refused at the MaxSessions cap.
	Evicted  *obs.Counter // evicted
	Rejected *obs.Counter // rejected
	// Oversize counts datagrams longer than MaxDatagram (also counted
	// in BadPackets).
	Oversize *obs.Counter // oversize
	// RateLimited counts Hellos refused by the per-source limiter.
	RateLimited *obs.Counter // rate_limited
	// ShedHello/ShedData count packets dropped at the global ceiling.
	ShedHello *obs.Counter // shed_hello
	ShedData  *obs.Counter // shed_data
	// BusySent counts Busy replies sent.
	BusySent *obs.Counter // busy_sent
	// DrainRejected counts Hellos refused because the server is
	// draining.
	DrainRejected *obs.Counter // drain_rejected
	// Drained counts sessions force-finalized at shutdown.
	Drained *obs.Counter // drained
	// SpoolErrors counts summaries the sink failed to accept.
	SpoolErrors *obs.Counter // spool_errors
}

// Server acknowledges probe packets: for each data packet it returns
// an ack echoing the sequence number and send timestamp, stamped with
// the server's receive time — everything the client's estimator needs.
// It is built to survive a fleet's worth of clients: N readers share
// the socket, one session table under one lock holds the session cap
// exactly, admission is rate-limited, and overload sheds new work
// before admitted work. A session is bound to the address its Hello
// came from: Data, Hello and Bye naming it from any other address are
// bad packets.
type Server struct {
	cfg   ServerConfig
	conn  *net.UDPConn
	start time.Time
	// sweepEvery is the TTL sweep cadence of both the background
	// sweeper and the at-cap sweep: TTL/4, clamped to [5ms, 1s].
	sweepEvery time.Duration

	// mu guards the session table, whose length is the active count,
	// and lastSweep, which throttles on-demand sweeps at the admission
	// cap (the background sweeper runs regardless).
	mu        sync.Mutex
	sessions  map[uint64]*session
	lastSweep time.Duration

	global *globalLimiter
	perSrc *sourceLimiter

	// Stats exposes lifetime counters.
	Stats  ServerStats
	reg    *obs.Registry
	qdelay *obs.Histogram // probe.server.qdelay_ms

	served   atomic.Bool
	draining atomic.Bool
	closed   atomic.Bool
	done     chan struct{}
}

// NewServer binds the listen socket. Call Serve to start processing.
func NewServer(cfg ServerConfig) (*Server, error) {
	cfg = cfg.norm()
	laddr, err := net.ResolveUDPAddr("udp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	c := func(name string) *obs.Counter { return reg.Counter("probe.server." + name) }
	s := &Server{
		cfg:        cfg,
		conn:       conn,
		start:      time.Now(),
		sweepEvery: min(max(cfg.SessionTTL/4, 5*time.Millisecond), time.Second),
		sessions:   make(map[uint64]*session),
		global:     newGlobalLimiter(cfg.GlobalPPS, cfg.GlobalBurst),
		perSrc:     newSourceLimiter(cfg.PerSourcePPS, cfg.PerSourceBurst, cfg.SessionTTL),
		Stats: ServerStats{
			DataPackets:   c("data_packets"),
			DataBytes:     c("data_bytes"),
			Acks:          c("acks"),
			Sessions:      c("sessions_total"),
			BadPackets:    c("bad_packets"),
			Evicted:       c("evicted"),
			Rejected:      c("rejected"),
			Oversize:      c("oversize"),
			RateLimited:   c("rate_limited"),
			ShedHello:     c("shed_hello"),
			ShedData:      c("shed_data"),
			BusySent:      c("busy_sent"),
			DrainRejected: c("drain_rejected"),
			Drained:       c("drained"),
			SpoolErrors:   c("spool_errors"),
		},
		reg:    reg,
		qdelay: reg.Histogram("probe.server.qdelay_ms", "", obs.ExpBuckets(0.1)),
		done:   make(chan struct{}),
	}
	reg.RegisterFunc("probe.server.sessions_active", "", func() float64 { return float64(s.ActiveSessions()) })
	return s, nil
}

// Metrics returns the registry holding every probe.server.* metric:
// the Stats counters, the sessions_active gauge and the qdelay_ms
// histogram fed from the data path.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() net.Addr { return s.conn.LocalAddr() }

func (s *Server) logf(format string, args ...interface{}) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Serve processes packets until Close, fanning the socket out across
// the configured reader goroutines. It returns nil after a clean
// shutdown and must be called at most once.
func (s *Server) Serve() error {
	s.served.Store(true)
	defer close(s.done)

	sweepQuit := make(chan struct{})
	var sweepWG sync.WaitGroup
	sweepWG.Add(1)
	go func() {
		defer sweepWG.Done()
		s.sweeper(sweepQuit)
	}()
	defer func() {
		close(sweepQuit)
		sweepWG.Wait()
	}()

	errc := make(chan error, s.cfg.Readers)
	var wg sync.WaitGroup
	for i := 1; i < s.cfg.Readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errc <- s.readLoop()
		}()
	}
	errc <- s.readLoop()
	wg.Wait()
	var first error
	for i := 0; i < s.cfg.Readers; i++ {
		if err := <-errc; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// HandleDatagram processes one packet that arrived from raddr at
// server time now and returns the reply to send raddr, written into
// out (the caller's private buffer, HeaderSize long), or nil. The
// caller carries the reply: Serve's readers write it to the socket.
func (s *Server) HandleDatagram(pkt []byte, raddr *net.UDPAddr, now time.Duration, out []byte) []byte {
	if len(pkt) > MaxDatagram {
		// A datagram the Size field cannot describe: reject rather
		// than wrap uint16(n) to a lie.
		s.Stats.Oversize.Add(1)
		s.Stats.BadPackets.Add(1)
		return nil
	}
	h, err := Decode(pkt)
	if err != nil {
		s.Stats.BadPackets.Add(1)
		return nil
	}
	switch h.Type {
	case TypeHello:
		return s.handleHello(&h, raddr, now, out)
	case TypeData:
		return s.handleData(&h, raddr, now, len(pkt), out)
	case TypeBye:
		if !s.endSession(h.Session, raddr, now, EndBye) {
			s.Stats.BadPackets.Add(1)
			return nil
		}
		s.logf("probe: session %d from %v done", h.Session, raddr)
	default:
		s.Stats.BadPackets.Add(1)
	}
	return nil
}

// handleHello answers a Hello with Hi when it admits (or refreshes) the
// session, with Busy and the cause when it refuses, and not at all when
// the session is live under another address.
func (s *Server) handleHello(h *Header, raddr *net.UDPAddr, now time.Duration, out []byte) []byte {
	cause, retry := FlagAtCapacity, s.cfg.BusyRetryHint
	switch {
	case s.draining.Load():
		s.Stats.DrainRejected.Add(1)
		cause, retry = FlagDraining, 0
	case !s.perSrc.admit(now, raddr):
		s.Stats.RateLimited.Add(1)
		cause, retry = FlagRateLimited, 2*retry
	case !s.global.admit(now, true):
		s.Stats.ShedHello.Add(1)
	default:
		switch s.admitSession(h.Session, raddr, now) {
		case admitOK:
			return encode(out, Header{Type: TypeHi, Session: h.Session, Seq: h.Seq, EchoNano: h.SendNano, RecvNano: now.Nanoseconds()})
		case admitForeign:
			s.Stats.BadPackets.Add(1)
			return nil
		}
		s.Stats.Rejected.Add(1)
		s.logf("probe: rejecting session %d: %d sessions at cap", h.Session, s.cfg.MaxSessions)
	}
	// The explicit rejection (see TypeBusy in wire.go): cause flags
	// plus a retry-after hint in milliseconds.
	s.Stats.BusySent.Add(1)
	return encode(out, Header{Type: TypeBusy, Flags: cause, Session: h.Session, Seq: h.Seq,
		EchoNano: h.SendNano, RecvNano: now.Nanoseconds(), Size: uint16(min(retry.Milliseconds(), 65535))})
}

// handleData counts a Data packet into its session and acks it, when
// the session is live under the sender's address; anything else is a
// bad packet and gets no ack.
func (s *Server) handleData(h *Header, raddr *net.UDPAddr, now time.Duration, n int, out []byte) []byte {
	from := addrKey(raddr)
	s.mu.Lock()
	se, ok := s.sessions[h.Session]
	ok = ok && se.from == from
	// Only a Data its session's own address sent spends a global token,
	// so a stranger cannot drain the reserve admitted sessions share.
	// The limiter's lock is only ever taken inside the table lock.
	shed := ok && !s.global.admit(now, false)
	var qdelay int64
	if ok && !shed {
		qdelay = se.noteData(now, n, h.SendNano, s.cfg.SnapshotInterval)
	}
	s.mu.Unlock()
	if !ok {
		s.Stats.BadPackets.Add(1)
		return nil
	}
	if shed {
		s.Stats.ShedData.Add(1)
		return nil
	}
	if qdelay >= 0 {
		s.qdelay.Observe(float64(qdelay) / 1e6)
	}
	s.Stats.DataPackets.Add(1)
	s.Stats.DataBytes.Add(int64(n))
	s.Stats.Acks.Add(1)
	return encode(out, Header{Type: TypeAck, Session: h.Session, Seq: h.Seq,
		EchoNano: h.SendNano, RecvNano: now.Nanoseconds(), Size: uint16(n)})
}

// admission is admitSession's verdict.
type admission int

const (
	admitOK      admission = iota // new, or refreshed by its own address
	admitFull                     // the table is full
	admitForeign                  // the id is live under another address
)

// admitSession registers a new session, or refreshes one its own
// address already holds, in one critical section, so MaxSessions is
// exact. At the cap it first sweeps idle sessions, at most once per
// sweep interval, so a Hello flood at capacity cannot turn every
// rejection into an O(sessions) scan.
func (s *Server) admitSession(id uint64, raddr *net.UDPAddr, now time.Duration) admission {
	from := addrKey(raddr)
	s.mu.Lock()
	if se, ok := s.sessions[id]; ok {
		if se.from != from {
			s.mu.Unlock()
			return admitForeign
		}
		se.last = now
		s.mu.Unlock()
		return admitOK
	}
	var evicted []*session
	if len(s.sessions) >= s.cfg.MaxSessions && now-s.lastSweep >= s.sweepEvery {
		evicted = s.evictIdle(now)
	}
	ok := len(s.sessions) < s.cfg.MaxSessions
	if ok {
		s.sessions[id] = &session{
			id:     id,
			addr:   addrString(raddr),
			from:   from,
			start:  now,
			last:   now,
			owdMin: math.MaxInt64,
			snapAt: now,
		}
	}
	s.mu.Unlock()
	s.retireEvicted(evicted, now)
	if !ok {
		return admitFull
	}
	s.Stats.Sessions.Add(1)
	s.logf("probe: new session %d", id)
	return admitOK
}

// endSession removes a session and spools its summary, on behalf of
// raddr. It returns false, and leaves the session running, when raddr
// is not the address the session was admitted from: a third party must
// not end another client's measurement.
func (s *Server) endSession(id uint64, raddr *net.UDPAddr, now time.Duration, cause string) bool {
	s.mu.Lock()
	se, ok := s.sessions[id]
	if ok && se.from != addrKey(raddr) {
		s.mu.Unlock()
		return false
	}
	delete(s.sessions, id)
	s.mu.Unlock()
	if ok {
		s.spoolSession(se, now, cause)
	}
	// A retransmitted Bye, or one for an evicted session, finds nothing.
	return true
}

func (s *Server) spoolSession(se *session, now time.Duration, cause string) {
	if s.cfg.Sink == nil {
		return
	}
	if err := s.cfg.Sink.Append(se.record(now, s.start, cause)); err != nil {
		s.Stats.SpoolErrors.Add(1)
		s.logf("probe: spooling session %d: %v", se.id, err)
	}
}

// sweeper is the background TTL sweep, ticking well inside the TTL so
// stale sessions free their slots promptly even when no admission
// pressure forces a sweep.
func (s *Server) sweeper(quit chan struct{}) {
	t := time.NewTicker(s.sweepEvery)
	defer t.Stop()
	for {
		select {
		case <-quit:
			return
		case <-t.C:
			now := time.Since(s.start)
			s.sweepNow(now)
			s.perSrc.sweep(now)
		}
	}
}

// sweepNow evicts sessions idle past the TTL, spooling their summaries
// outside the table lock.
func (s *Server) sweepNow(now time.Duration) {
	s.mu.Lock()
	evicted := s.evictIdle(now)
	s.mu.Unlock()
	s.retireEvicted(evicted, now)
}

// evictIdle removes the sessions idle past the TTL from the table and
// returns them. Caller holds s.mu.
func (s *Server) evictIdle(now time.Duration) []*session {
	s.lastSweep = now
	var evicted []*session
	for id, se := range s.sessions {
		if now-se.last > s.cfg.SessionTTL {
			delete(s.sessions, id)
			evicted = append(evicted, se)
		}
	}
	return evicted
}

// retireEvicted counts, logs and spools sessions evictIdle removed.
func (s *Server) retireEvicted(evicted []*session, now time.Duration) {
	for _, se := range evicted {
		s.Stats.Evicted.Add(1)
		s.logf("probe: evicted stale session %d (idle %v)", se.id, now-se.last)
		s.spoolSession(se, now, EndEvicted)
	}
}

// ActiveSessions returns the number of currently tracked sessions.
func (s *Server) ActiveSessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// SessionInfo is one tracked session as seen by the admin endpoint.
type SessionInfo struct {
	ID          uint64  `json:"id"`
	IdleSeconds float64 `json:"idle_s"`
	Packets     int64   `json:"packets"`
	Bytes       int64   `json:"bytes"`
}

// Sessions returns a snapshot of the tracked sessions sorted by id,
// for the live /sessions introspection view.
func (s *Server) Sessions() []SessionInfo {
	now := time.Since(s.start)
	s.mu.Lock()
	out := make([]SessionInfo, 0, len(s.sessions))
	for id, se := range s.sessions {
		out = append(out, SessionInfo{
			ID:          id,
			IdleSeconds: (now - se.last).Seconds(),
			Packets:     se.packets,
			Bytes:       se.bytes,
		})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Health is the fleet-node health/readiness view.
type Health struct {
	// Ready means the node is serving and accepting new sessions.
	Ready    bool `json:"ready"`
	Draining bool `json:"draining"`

	ActiveSessions int64 `json:"active_sessions"`
	MaxSessions    int   `json:"max_sessions"`
	TrackedSources int   `json:"tracked_sources"`

	UptimeSeconds float64 `json:"uptime_s"`

	SessionsTotal int64 `json:"sessions_total"`
	Rejected      int64 `json:"rejected"`
	RateLimited   int64 `json:"rate_limited"`
	ShedHello     int64 `json:"shed_hello"`
	ShedData      int64 `json:"shed_data"`
	Evicted       int64 `json:"evicted"`
	SpoolErrors   int64 `json:"spool_errors"`
}

// Health snapshots the node's readiness and load counters.
func (s *Server) Health() Health {
	return Health{
		Ready:          !s.draining.Load() && !s.closed.Load(),
		Draining:       s.draining.Load(),
		ActiveSessions: int64(s.ActiveSessions()),
		MaxSessions:    s.cfg.MaxSessions,
		TrackedSources: s.perSrc.size(),
		UptimeSeconds:  time.Since(s.start).Seconds(),
		SessionsTotal:  s.Stats.Sessions.Value(),
		Rejected:       s.Stats.Rejected.Value(),
		RateLimited:    s.Stats.RateLimited.Value(),
		ShedHello:      s.Stats.ShedHello.Value(),
		ShedData:       s.Stats.ShedData.Value(),
		Evicted:        s.Stats.Evicted.Value(),
		SpoolErrors:    s.Stats.SpoolErrors.Value(),
	}
}

// encode writes the reply h into out and returns the datagram. Encode
// fails only on a buffer shorter than HeaderSize, and out is not.
func encode(out []byte, h Header) []byte {
	n, _ := h.Encode(out)
	return out[:n]
}

// BeginDrain stops admitting new sessions: Hellos get Busy|FlagDraining,
// admitted sessions keep being served.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Drain gracefully shuts the node down: stop admitting, serve admitted
// sessions until they Bye out, hit the TTL, or ctx expires; then close
// the socket and finalize whatever remains into the spool as drained.
// It returns the number of sessions force-finalized at the deadline
// (0 is a fully clean drain).
func (s *Server) Drain(ctx context.Context) int {
	s.BeginDrain()
	t := time.NewTicker(20 * time.Millisecond)
	defer t.Stop()
	for s.ActiveSessions() > 0 {
		select {
		case <-ctx.Done():
			forced := s.ActiveSessions()
			s.Close()
			return forced
		case <-t.C:
		}
	}
	s.Close()
	return 0
}

// Close shuts the server down, waits for the readers to return, and
// finalizes any remaining sessions into the spool (cause drained when
// a drain had begun, closed otherwise).
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	err := s.conn.Close()
	if s.served.Load() {
		<-s.done
	}
	s.finalizeAll()
	return err
}

// finalizeAll spools every remaining session. Runs after the readers
// have exited, so the table is quiescent.
func (s *Server) finalizeAll() {
	now := time.Since(s.start)
	cause := EndClosed
	if s.draining.Load() {
		cause = EndDrained
	}
	s.mu.Lock()
	remaining := s.sessions
	s.sessions = make(map[uint64]*session)
	s.mu.Unlock()
	for _, se := range remaining {
		if cause == EndDrained {
			s.Stats.Drained.Add(1)
		}
		s.spoolSession(se, now, cause)
	}
}
