package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// TestBuildIdentityMetrics: every debug surface must expose who it is
// (mc_build_info with the -X-injected version and the Go toolchain), how
// long it has been up, and its goroutines and heap.
func TestBuildIdentityMetrics(t *testing.T) {
	r := NewRegistry()
	mux := http.NewServeMux()
	RegisterDebug(mux, r, nil)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"mc_build_info{",
		`version="` + Version + `"`,
		`goversion="` + runtime.Version() + `"`,
		"process_uptime_seconds",
		"go_goroutines",
		"go_heap_objects_bytes",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
	// The info series' value is the constant 1 (the convention that makes
	// it joinable in PromQL); a running process has goroutines and a heap.
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "mc_build_info{") && !strings.HasSuffix(line, " 1") {
			t.Fatalf("build info series not constant 1: %q", line)
		}
		for _, name := range []string{"go_goroutines ", "go_heap_objects_bytes "} {
			if v, ok := strings.CutPrefix(line, name); ok && (v == "0" || strings.HasPrefix(v, "-")) {
				t.Fatalf("runtime gauge reads %q", line)
			}
		}
	}
}
