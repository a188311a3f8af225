package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
)

func TestAdminMuxEndpoints(t *testing.T) {
	mux := AdminMux(map[string]http.Handler{
		"/sessions": JSONHandler(func() interface{} {
			return []map[string]interface{}{{"id": 42, "idle_s": 1.5}}
		}),
	})
	ln, err := ServeAdmin("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	base := fmt.Sprintf("http://%s", ln.Addr())

	get := func(path string) []byte {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	var vars map[string]json.RawMessage
	if err := json.Unmarshal(get("/debug/vars"), &vars); err != nil {
		t.Fatalf("vars not JSON: %v", err)
	}
	if _, ok := vars["memstats"]; !ok {
		t.Error("runtime memstats missing from /debug/vars")
	}

	var sessions []map[string]interface{}
	if err := json.Unmarshal(get("/sessions"), &sessions); err != nil {
		t.Fatalf("/sessions not JSON: %v", err)
	}
	if len(sessions) != 1 || sessions[0]["id"].(float64) != 42 {
		t.Errorf("sessions: %v", sessions)
	}

	if len(get("/debug/pprof/cmdline")) == 0 {
		t.Error("pprof cmdline empty")
	}
}

func TestAdminMuxDefaultHealthz(t *testing.T) {
	mux := AdminMux(nil)
	adm, err := ServeAdmin("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	defer adm.Close()
	resp, err := http.Get(fmt.Sprintf("http://%s/healthz", adm.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Errorf("/healthz: %d %q, want 200 ok", resp.StatusCode, body)
	}
}

func TestAdminMuxHealthzOverride(t *testing.T) {
	// probed replaces the default liveness probe with its health JSON;
	// registering both must not panic and the override must win.
	mux := AdminMux(map[string]http.Handler{
		"/healthz": http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Write([]byte(`{"ready":true}`))
		}),
	})
	adm, err := ServeAdmin("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	defer adm.Close()
	resp, err := http.Get(fmt.Sprintf("http://%s/healthz", adm.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if string(body) != `{"ready":true}` {
		t.Errorf("override lost: %q", body)
	}
}

func TestAdminMuxMetricsEndpoint(t *testing.T) {
	reg := fixedRegistry()
	mux := AdminMux(map[string]http.Handler{"/metrics": MetricsHandler(reg)})
	adm, err := ServeAdmin("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	defer adm.Close()
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", adm.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	mustValidate(t, body)
}

func TestAdminServerGracefulClose(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	mux := AdminMux(map[string]http.Handler{
		"/slow": http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			close(started)
			<-release
			w.Write([]byte("done\n"))
		}),
	})
	adm, err := ServeAdmin("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		body string
		err  error
	}
	got := make(chan result, 1)
	go func() {
		resp, err := http.Get(fmt.Sprintf("http://%s/slow", adm.Addr()))
		if err != nil {
			got <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		got <- result{body: string(b), err: err}
	}()

	<-started // request is in flight
	closed := make(chan error, 1)
	go func() { closed <- adm.Close() }()
	// Close must drain the in-flight request, not cut it off.
	close(release)
	r := <-got
	if r.err != nil || r.body != "done\n" {
		t.Errorf("in-flight request during Close: body=%q err=%v", r.body, r.err)
	}
	if err := <-closed; err != nil {
		t.Errorf("Close: %v", err)
	}
	// Idempotent: a second (deferred-style) Close is a no-op.
	if err := adm.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	// The listener is really down.
	if _, err := http.Get(fmt.Sprintf("http://%s/healthz", adm.Addr())); err == nil {
		t.Error("server still serving after Close")
	}
}
