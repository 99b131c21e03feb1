package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/regalloc/service"
)

const tinyFunc = "func f ssa {\nb0:\n  x = param 0\n  y = arith x, x\n  ret y\n}"

// syncBuffer lets the server goroutine log while the test reads.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestRunServeAndDrain boots the real command loop, serves one allocation
// and one metrics scrape over HTTP, then drains it with a SIGTERM — the
// full lifecycle a deployment sees.
func TestRunServeAndDrain(t *testing.T) {
	ready := make(chan string, 1)
	out := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-r", "3", "-cache", "64"}, out, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}

	body, err := json.Marshal(service.Request{ID: "t", IR: tinyFunc})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+addr+"/v1/allocate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var r service.Response
	err = json.NewDecoder(resp.Body).Decode(&r)
	resp.Body.Close()
	if err != nil || r.Error != "" || r.Func != "f" {
		t.Fatalf("allocate response: %+v (decode err %v)", r, err)
	}

	mresp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mbody), `allocserve_requests_total{code="200"} 1`) {
		t.Errorf("metrics scrape missing the served request:\n%s", mbody)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain exit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SIGTERM did not drain the server")
	}
	text := out.String()
	if !strings.Contains(text, "draining") || !strings.Contains(text, "drained in") {
		t.Errorf("drain lifecycle not logged:\n%s", text)
	}
	// The final metrics flush lands on stdout after the drain.
	if !strings.Contains(text, "allocserve_requests_total") {
		t.Errorf("final metrics flush missing:\n%s", text)
	}
}

func TestRunAllocHelp(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-alloc", "help"}, &out, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "BFPL") {
		t.Errorf("-alloc help incomplete:\n%s", out.String())
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-alloc", "bogus", "-addr", "127.0.0.1:0"}, &out, nil); err == nil {
		t.Error("unknown allocator accepted")
	}
}
