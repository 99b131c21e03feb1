package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/regalloc"
	"repro/regalloc/service"
)

func moduleCorpus(name string) string {
	return filepath.Join("..", "..", "internal", "ir", "testdata", "modules", name)
}

func TestRunModuleFile(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-module", moduleCorpus("mixed.ir"), "-r", "2", "-jobs", "2"}, strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"func looped", "func branchy", "func multidef", "total 3 functions"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

func TestRunGeneratedModule(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-gen", "15", "-seed", "9", "-r", "4", "-jobs", "3", "-print"}, strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "total 15 functions") {
		t.Errorf("missing totals:\n%s", out.String())
	}
}

// TestRunModuleStdinDeterministic: the same module through 1 and 8 workers
// must print identical reports (the CLI-level echo of the pipeline
// determinism guarantee).
func TestRunModuleStdinDeterministic(t *testing.T) {
	src, err := os.ReadFile(moduleCorpus("mixed.ir"))
	if err != nil {
		t.Fatal(err)
	}
	var a, b strings.Builder
	if err := run([]string{"-r", "3", "-jobs", "1", "-print"}, strings.NewReader(string(src)), &a); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-r", "3", "-jobs", "8", "-print"}, strings.NewReader(string(src)), &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("jobs=1 and jobs=8 reports differ:\n%s\nvs\n%s", a.String(), b.String())
	}
}

func TestRunJSONL(t *testing.T) {
	in := strings.Join([]string{
		`{"id":"a","ir":"func f ssa {\nb0:\n  x = param 0\n  y = arith x, x\n  ret y\n}","registers":2}`,
		``,
		`{"id":"b","ir":"not ir at all"}`,
		`{"id":"c","ir":"func g ssa {\nb0:\n  x = param 0\n  ret x\n}","allocator":"NL","print":true}`,
	}, "\n") + "\n"
	var out strings.Builder
	if err := run([]string{"-jsonl", "-jobs", "2"}, strings.NewReader(in), &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d response lines, want 3:\n%s", len(lines), out.String())
	}
	// Responses come back in request order.
	var resp struct {
		ID        string `json:"id"`
		Func      string `json:"func"`
		Allocator string `json:"allocator"`
		Error     string `json:"error"`
		Rewritten string `json:"rewritten"`
	}
	for i, wantID := range []string{"a", "b", "c"} {
		if err := json.Unmarshal([]byte(lines[i]), &resp); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if resp.ID != wantID {
			t.Fatalf("line %d has id %q, want %q (ordering broken)", i, resp.ID, wantID)
		}
	}
	if err := json.Unmarshal([]byte(lines[1]), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Error == "" {
		t.Error("bad IR did not produce an error response")
	}
	if err := json.Unmarshal([]byte(lines[2]), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Allocator != "NL" || resp.Rewritten == "" {
		t.Errorf("request overrides not honoured: %+v", resp)
	}
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-module", "missing.ir"}, strings.NewReader(""), &out); err == nil {
		t.Error("missing module file accepted")
	}
	if err := run([]string{"-gen", "3", "-alloc", "bogus"}, strings.NewReader(""), &out); err == nil {
		t.Error("unknown allocator accepted")
	}
	if err := run([]string{}, strings.NewReader("not a module"), &out); err == nil {
		t.Error("bad stdin module accepted")
	}
	if err := run([]string{"-gen", "3", "-r", "1099511627776"}, strings.NewReader(""), &out); !errors.Is(err, regalloc.ErrInvalidConfig) {
		t.Errorf("-r 1099511627776: err = %v, want ErrInvalidConfig", err)
	}
}

// TestAllocHelp: `-alloc help` lists the registered allocator names.
func TestAllocHelp(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-alloc", "help"}, strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "BFPL") || !strings.Contains(out.String(), "Optimal") {
		t.Errorf("-alloc help output incomplete:\n%s", out.String())
	}
}

// TestRunBatchWithCache: the -cache flag must not change a byte of the
// report (only append the cache-stats line), and repeated passes inside
// one batch of duplicated functions produce hits.
func TestRunBatchWithCache(t *testing.T) {
	args := func(extra ...string) []string {
		return append([]string{"-gen", "30", "-seed", "4", "-r", "4", "-jobs", "2", "-print"}, extra...)
	}
	var off, on strings.Builder
	if err := run(args(), strings.NewReader(""), &off); err != nil {
		t.Fatal(err)
	}
	if err := run(args("-cache", "256"), strings.NewReader(""), &on); err != nil {
		t.Fatal(err)
	}
	onText := on.String()
	i := strings.Index(onText, "cache: ")
	if i < 0 {
		t.Fatalf("-cache run did not print the cache stats line:\n%s", onText)
	}
	if onText[:i] != off.String() {
		t.Fatal("-cache changed the report bytes before the stats line")
	}
}

// TestRunJSONLStatsAndCache: a shared -cache across JSONL requests serves
// the third sighting of a body (under a different name) from the cache,
// and a "stats":true request reports the engine table and cache counters.
func TestRunJSONLStatsAndCache(t *testing.T) {
	body := `func %s ssa {\nb0:\n  x = param 0\n  y = arith x, x\n  ret y\n}`
	mk := func(id, name string) string {
		return `{"id":"` + id + `","ir":"` + strings.ReplaceAll(body, "%s", name) + `","registers":3}`
	}
	in := strings.Join([]string{
		mk("1", "alpha"),
		mk("2", "beta"),
		mk("3", "gamma"),
		`{"id":"4","stats":true}`,
	}, "\n") + "\n"
	var out strings.Builder
	// jobs=1 keeps request processing sequential, so the hit count is exact.
	if err := run([]string{"-jsonl", "-jobs", "1", "-cache", "64"}, strings.NewReader(in), &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("%d response lines, want 4:\n%s", len(lines), out.String())
	}
	var funcResp struct {
		Func       string         `json:"func"`
		Assignment map[string]int `json:"assignment"`
		Error      string         `json:"error"`
	}
	var want string
	for i, name := range []string{"alpha", "beta", "gamma"} {
		if err := json.Unmarshal([]byte(lines[i]), &funcResp); err != nil {
			t.Fatal(err)
		}
		if funcResp.Error != "" || funcResp.Func != name {
			t.Fatalf("line %d: %+v", i, funcResp)
		}
		got, _ := json.Marshal(funcResp.Assignment)
		if i == 0 {
			want = string(got)
		} else if string(got) != want {
			t.Fatalf("cached response %d assignment differs: %s vs %s", i, got, want)
		}
	}
	var statsResp struct {
		ID    string `json:"id"`
		Stats *struct {
			Engines        int    `json:"engines"`
			EngineCapacity int    `json:"engineCapacity"`
			CacheHits      uint64 `json:"cacheHits"`
			CacheMisses    uint64 `json:"cacheMisses"`
			CacheEntries   int    `json:"cacheEntries"`
			CacheCapacity  int    `json:"cacheCapacity"`
		} `json:"stats"`
	}
	if err := json.Unmarshal([]byte(lines[3]), &statsResp); err != nil {
		t.Fatal(err)
	}
	s := statsResp.Stats
	if s == nil {
		t.Fatalf("stats request returned no stats payload: %s", lines[3])
	}
	if s.Engines != 1 || s.EngineCapacity != service.EngineCacheCap {
		t.Errorf("engine table stats wrong: %+v", s)
	}
	// alpha: miss (ghost), beta: miss (admit), gamma: hit.
	if s.CacheHits != 1 || s.CacheMisses != 2 || s.CacheEntries != 1 {
		t.Errorf("cache counters = %+v, want 1 hit / 2 misses / 1 entry", s)
	}
	if s.CacheCapacity != 64 {
		t.Errorf("cache capacity = %d, want 64", s.CacheCapacity)
	}
}

// lineReader hands runJSONL one request line per Read call and counts how
// many it has emitted, so a test can observe exactly how far intake got.
type lineReader struct {
	line    string
	total   int
	emitted atomic.Int64
}

func (r *lineReader) Read(p []byte) (int, error) {
	n := int(r.emitted.Load())
	if n >= r.total {
		return 0, io.EOF
	}
	if len(p) < len(r.line) {
		return 0, io.ErrShortBuffer
	}
	r.emitted.Add(1)
	return copy(p, r.line), nil
}

// failWriter fails every Write and counts the attempts.
type failWriter struct{ writes atomic.Int64 }

var errSinkClosed = errors.New("sink closed")

func (w *failWriter) Write(p []byte) (int, error) {
	w.writes.Add(1)
	return 0, errSinkClosed
}

// TestRunJSONLWriterErrorStopsIntake: once a response fails to encode
// (closed stdout, broken pipe), the service must stop consuming stdin and
// stop encoding into the dead sink instead of parsing and allocating the
// whole remaining stream; the write error surfaces as the run error.
func TestRunJSONLWriterErrorStopsIntake(t *testing.T) {
	const total = 400
	in := &lineReader{
		line:  `{"id":"x","ir":"func f ssa {\nb0:\n  x = param 0\n  y = arith x, x\n  ret y\n}","registers":2}` + "\n",
		total: total,
	}
	sink := &failWriter{}
	err := runJSONL(in, sink, 4, "", "", "", 2, 0)
	if !errors.Is(err, errSinkClosed) {
		t.Fatalf("run error = %v, want the writer's error", err)
	}
	if got := sink.writes.Load(); got != 1 {
		t.Errorf("writer saw %d encode attempts after failing, want exactly 1", got)
	}
	if got := in.emitted.Load(); got >= total/2 {
		t.Errorf("intake consumed %d of %d lines after the sink died, want an early stop", got, total)
	}
}
