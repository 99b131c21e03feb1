package server

import (
	"context"
	"fmt"
	"testing"

	"repro/regalloc"
	"repro/regalloc/irx"
	"repro/regalloc/workload"
)

// TestServeSteadyStateAllocs pins the allocations of the service's request
// core on duplicated traffic: a warmed Do plus the response encoding, over
// four interleaved workload.GenDuplicated(·, 62, 0.8) streams served from a
// 16-entry outcome cache, so both cache hits and misses are counted.
func TestServeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	const streams = 4
	var reqs []Request
	mods := make([]*irx.Module, streams)
	for k := range mods {
		mods[k] = workload.GenDuplicated(int64(k+1), 62, 0.8)
	}
	for i := range mods[0].Funcs {
		for k, m := range mods {
			f := m.Funcs[i]
			reqs = append(reqs, Request{ID: fmt.Sprintf("c%d.%s", k, f.Name), IR: f.String()})
		}
	}
	shared := regalloc.NewCache(16)
	engines := NewEngineCache(shared, 0)
	var enc responseEncoder
	var buf []byte
	serve := func() {
		for _, req := range reqs {
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
	perReq := perPass / float64(len(reqs))
	t.Logf("%d requests: %.1f allocs/request, hit ratio %.2f", len(reqs), perReq, float64(hits)/float64(hits+misses))
	// Measured: 30.5 allocs/request at a 0.70 hit ratio.
	const ceiling = 34
	if perReq > ceiling {
		t.Errorf("%.1f allocs per warmed request, ceiling %d", perReq, ceiling)
	}
}
