package obs

import (
	"context"
	"encoding/json"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// AdminMux returns an HTTP mux with the standard introspection
// endpoints — /debug/vars (the Go runtime's expvar: cmdline and
// memstats; a registry is served by MetricsHandler), /debug/pprof,
// and a default /healthz liveness probe (plain 200 "ok") so every
// admin surface is probeable — plus any extra handlers ("/sessions",
// "/metrics", ...). An extra handler for /healthz replaces the default
// (probed serves its richer health JSON there). The mux never touches
// http.DefaultServeMux, so importing this package does not leak debug
// handlers into servers the caller builds elsewhere.
func AdminMux(extra map[string]http.Handler) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if _, ok := extra["/healthz"]; !ok {
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
			w.Write([]byte("ok\n"))
		})
	}
	for path, h := range extra {
		mux.Handle(path, h)
	}
	return mux
}

// JSONHandler adapts a value-producing func to an HTTP handler that
// serves it as indented JSON — the shape the /sessions views use.
func JSONHandler(fn func() interface{}) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(fn()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// AdminServer is a bound, serving admin endpoint. Close it on the
// shutdown path: unlike dropping the listener on the floor, Close
// drains in-flight scrapes before tearing the socket down, so a
// /metrics poll racing a graceful exit still gets its reply.
type AdminServer struct {
	ln   net.Listener
	srv  *http.Server
	once sync.Once
	err  error
}

// Addr returns the bound address (useful with ":0").
func (a *AdminServer) Addr() net.Addr { return a.ln.Addr() }

// Close gracefully shuts the endpoint down: it stops accepting,
// waits briefly for in-flight requests, then force-closes whatever
// remains. Idempotent — deferred and explicit closes may coexist.
func (a *AdminServer) Close() error {
	a.once.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		a.err = a.srv.Shutdown(ctx)
		if a.err == context.DeadlineExceeded {
			a.err = a.srv.Close()
		}
	})
	return a.err
}

// ServeAdmin binds addr and serves the mux in a background goroutine.
// It returns the serving endpoint — callers defer Close on their
// shutdown path. Serve errors after Close are discarded.
func ServeAdmin(addr string, mux *http.ServeMux) (*AdminServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	return &AdminServer{ln: ln, srv: srv}, nil
}
