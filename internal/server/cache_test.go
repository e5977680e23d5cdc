package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"ccs/internal/gen"
)

// TestMineCacheBytes pins the compatibility of the retired cache_bytes
// field: counting keeps no prefix cache, the mine decoder does not reject
// unknown fields, so a request that still sends cache_bytes (positive,
// negative or zero) gets a 200 with exactly the answers of one that does
// not.
func TestMineCacheBytes(t *testing.T) {
	srv := httptest.NewServer(New(WithCacheBytes(8 << 20)))
	t.Cleanup(srv.Close)

	cfg := gen.DefaultMethod2(500, 9)
	cfg.NumItems = 40
	cfg.NumRules = 3
	db, _, err := gen.Method2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := srvFromHandler(t, srv)
	s.AddDataset("market", db)

	body := map[string]any{
		"dataset": "market",
		"algo":    "bms++",
		"query":   "max(price) <= 40",
		"alpha":   0.95,
	}
	mine := func(cacheBytes any) MineResponse {
		t.Helper()
		req := map[string]any{}
		for k, v := range body {
			req[k] = v
		}
		if cacheBytes != nil {
			req["cache_bytes"] = cacheBytes
		}
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/v1/mine", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mine (cache_bytes=%v): %d %s", cacheBytes, resp.StatusCode, out)
		}
		var mr MineResponse
		if err := json.Unmarshal(out, &mr); err != nil {
			t.Fatal(err)
		}
		return mr
	}

	plain := mine(nil)
	if len(plain.Answers) == 0 {
		t.Fatal("mining produced no answers; the comparison is vacuous")
	}
	for _, cb := range []any{1 << 20, -1, 0} {
		if got := mine(cb); !reflect.DeepEqual(plain.Answers, got.Answers) {
			t.Fatalf("cache_bytes=%v changed the answers:\n  without: %v\n  with:    %v",
				cb, plain.Answers, got.Answers)
		}
	}
}

// srvFromHandler recovers the *Server behind an httptest server started
// with New(...) so tests can seed datasets directly.
func srvFromHandler(t *testing.T, ts *httptest.Server) *Server {
	t.Helper()
	s, ok := ts.Config.Handler.(*Server)
	if !ok {
		t.Fatalf("handler is %T, want *Server", ts.Config.Handler)
	}
	return s
}
