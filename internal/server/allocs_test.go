package server

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"repro/regalloc"
	"repro/regalloc/irx"
	"repro/regalloc/workload"
)

// TestServeSteadyStateAllocs pins the allocations of the service's request
// core on duplicated traffic: decoding the JSON body, a warmed Do and the
// response encoding, over four interleaved workload.GenDuplicated(·, 62,
// 0.8) streams served from a 16-entry outcome cache, so both cache hits and
// misses are counted.
func TestServeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	const streams = 4
	var bodies [][]byte
	mods := make([]*irx.Module, streams)
	for k := range mods {
		mods[k] = workload.GenDuplicated(int64(k+1), 62, 0.8)
	}
	for i := range mods[0].Funcs {
		for k, m := range mods {
			f := m.Funcs[i]
			body, err := json.Marshal(Request{ID: fmt.Sprintf("c%d.%s", k, f.Name), IR: f.String()})
			if err != nil {
				t.Fatal(err)
			}
			bodies = append(bodies, body)
		}
	}
	shared := regalloc.NewCache(16)
	engines := NewEngineCache(shared, 0)
	var enc responseEncoder
	var buf []byte
	serve := func() {
		for _, body := range bodies {
			var req Request
			if err := DecodeRequest(body, &req); err != nil {
				t.Fatal(err)
			}
			resp := Do(context.Background(), engines, req, nil, 4, "", "", "", nil)
			if resp.Error != "" {
				t.Fatalf("%s: %s", req.ID, resp.Error)
			}
			buf = enc.append(buf[:0], &resp)
		}
	}
	serve()
	before := shared.Stats()
	perPass := testing.AllocsPerRun(5, serve)
	after := shared.Stats()
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	perReq := perPass / float64(len(bodies))
	t.Logf("%d requests: %.1f allocs/request, hit ratio %.2f", len(bodies), perReq, float64(hits)/float64(hits+misses))
	// Measured: 22.3 allocs/request at a 0.84 hit ratio (the IR of each
	// request gets its own string, apart from the short fields).
	const ceiling = 23
	if perReq > ceiling {
		t.Errorf("%.1f allocs per warmed request, ceiling %d", perReq, ceiling)
	}
}
