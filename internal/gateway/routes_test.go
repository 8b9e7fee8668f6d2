package gateway

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/service"
)

// TestGatewayMountsTheShardRouteTable: a client must not be able to tell
// the gateway from a shard, so Register here and service.API.Register must
// mount the same patterns. http.ServeMux does not list what it holds, so
// the two are compared by what they match: every method against every
// path of up to three segments drawn from the API's vocabulary must
// resolve to the same pattern on both, and the patterns seen must be the
// ten of the table. A route added to one tier only, dropped from one, or
// mounted under another method fails here; the one thing this cannot see
// is a route built from a word not listed below — add new words to it.
func TestGatewayMountsTheShardRouteTable(t *testing.T) {
	g, err := New(Options{Shards: [][]string{{"http://127.0.0.1:1"}}})
	if err != nil {
		t.Fatal(err)
	}
	gw, shard := http.NewServeMux(), http.NewServeMux()
	g.Register(gw)
	service.NewAPI(service.New(service.Options{})).Register(shard)

	words := []string{"jobs", "0123456789abcdef", "result", "events", "spans", "stats", "fleet", "tenants", "other"}
	paths := []string{"/"}
	for _, a := range words {
		paths = append(paths, "/"+a)
		for _, b := range words {
			paths = append(paths, "/"+a+"/"+b)
			for _, c := range words {
				paths = append(paths, "/"+a+"/"+b+"/"+c)
			}
		}
	}
	seen := map[string]bool{}
	for _, method := range []string{"GET", "HEAD", "POST", "PUT", "PATCH", "DELETE"} {
		for _, path := range paths {
			req := httptest.NewRequest(method, path, nil)
			_, gp := gw.Handler(req)
			_, sp := shard.Handler(req)
			if gp != sp {
				t.Errorf("%s %s: gateway matches %q, shard %q", method, path, gp, sp)
			}
			if sp != "" {
				seen[sp] = true
			}
		}
	}
	if len(seen) != 10 {
		t.Errorf("the probes reached %d patterns, want the API's 10: %v", len(seen), seen)
	}
}
