package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hyperdom/internal/dataset"
	"hyperdom/internal/knn"
)

func TestParseFlagsDefaults(t *testing.T) {
	c, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.addr != ":8080" || c.shards != 2 || c.substrate != "sstree" ||
		c.algo != "hs" || c.oracle || c.noPushdown {
		t.Fatalf("defaults %+v", c)
	}
	if c.algorithm() != knn.HS || knn.QuantModeNow() != knn.QuantF32 {
		t.Fatalf("default algo/quant mapping wrong: %+v", c)
	}
}

func TestParseFlagsRejectsBadEnums(t *testing.T) {
	if _, err := parseFlags([]string{"-algo", "bfs"}); err == nil {
		t.Fatal("bad -algo accepted")
	}
	// The f32 tier is the only one served; there is no tier flag.
	if _, err := parseFlags([]string{"-quant", "f32"}); err == nil {
		t.Fatal("-quant accepted")
	}
}

func TestParseCollections(t *testing.T) {
	got, err := parseCollections("a=x.csv,b=y.csv")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != [2]string{"a", "x.csv"} || got[1] != [2]string{"b", "y.csv"} {
		t.Fatalf("got %v", got)
	}
	if _, err := parseCollections("broken"); err == nil {
		t.Fatal("missing = accepted")
	}
	if got, err := parseCollections(""); err != nil || got != nil {
		t.Fatalf("empty: %v %v", got, err)
	}
}

func TestParseCenter(t *testing.T) {
	got, err := parseCenter("1, 2.5,-3")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2.5 || got[2] != -3 {
		t.Fatalf("got %v", got)
	}
	if _, err := parseCenter(""); err == nil {
		t.Fatal("empty accepted")
	}
	if _, err := parseCenter("1,x"); err == nil {
		t.Fatal("junk accepted")
	}
}

// TestOracleRoundTrip drives the -oracle path end to end: write a corpus,
// query it, and check the printed IDs against an in-process search over
// the same items.
func TestOracleRoundTrip(t *testing.T) {
	items := syntheticCorpus(200, 3, 7)
	path := filepath.Join(t.TempDir(), "corpus.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteCSV(f, items); err != nil {
		t.Fatal(err)
	}
	f.Close()

	out := filepath.Join(t.TempDir(), "out.json")
	of, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	c := config{data: path, oracle: true, k: 5, query: "100,100,100", qradius: 0.5, algo: "hs"}
	if err := runOracle(c, of); err != nil {
		t.Fatal(err)
	}
	of.Close()
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		IDs []int `json:"ids"`
	}
	if err := json.Unmarshal(bytes.TrimSpace(raw), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.IDs) < 5 {
		t.Fatalf("oracle returned %d ids: %v", len(got.IDs), got.IDs)
	}
}

// TestHTTPServerTimeouts checks every server timeout is set, and that
// WriteTimeout sits far above the slowest benchmark request (wide-d4's p99
// is a few ms) and above the default 30 s pprof CPU profile.
func TestHTTPServerTimeouts(t *testing.T) {
	s := newHTTPServer(":0", http.NotFoundHandler())
	for name, d := range map[string]time.Duration{
		"ReadHeaderTimeout": s.ReadHeaderTimeout,
		"ReadTimeout":       s.ReadTimeout,
		"WriteTimeout":      s.WriteTimeout,
		"IdleTimeout":       s.IdleTimeout,
	} {
		if d <= 0 {
			t.Errorf("%s = %v, want > 0", name, d)
		}
	}
	const widestBenchP99 = 10 * time.Millisecond
	if s.WriteTimeout < 1000*widestBenchP99 || s.WriteTimeout <= 30*time.Second {
		t.Errorf("WriteTimeout = %v, want ≥ %v and > 30s", s.WriteTimeout, 1000*widestBenchP99)
	}
}
