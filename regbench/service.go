package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/fingerprint"
	"repro/internal/outcache"
	"repro/internal/spillcost"
	"repro/regalloc"
	"repro/regalloc/irx"
	"repro/regalloc/service"
	"repro/regalloc/workload"
)

const (
	// refRate is the open-loop reference rate at which request latency is
	// reported.
	refRate = 2000
	// conns is the client's worker and connection count: one per CPU of
	// the 2-CPU reference machine.
	conns = 2
	// spinFor is how long before a request's due time the sender stops
	// sleeping and spins, keeping generator lateness small: nanosleep
	// wakes 60–140 µs late on a 2-CPU Linux box.
	spinFor = 150 * time.Microsecond
	// serviceRegs and serviceCache are the server's register count and
	// outcome-cache capacity.
	serviceRegs  = 4
	serviceCache = 256
)

// reply is what the check needs of one response.
type reply struct {
	body    int32
	ok      bool // transport succeeded, HTTP 200, no in-band error
	spilled uint64
	cost    float64
}

// serviceBench is the allocation service on loopback with its pre-rendered
// traffic: an in-process server, and a client with conns keep-alive
// HTTP/1.1 connections.
type serviceBench struct {
	bodies  [][]byte
	reqs    []service.Request
	values  []int
	srv     *service.Server
	served  chan error
	url     string
	client  *http.Client
	replies []reply
}

// streams is the number of independent clients in the service traffic.
const streams = 64

// setupService: 3968 single-function requests from 64 interleaved
// workload.GenDuplicated(·, 62, 0.8) streams, served by
// service.New{Registers: 4, CacheSize: 256}; the set-up ends with one
// closed-loop pass over every request. Each stream is one client whose
// functions are 80% alpha-renamed repeats of its own earlier ones; 64 of
// them give about 850 distinct shapes, more than the cache holds. One
// stream's traffic hinges on its first few functions, so across seeds its
// mean request size varies by 22% (coefficient of variation); over 64
// streams by 4%.
func setupService(seed int64, scale float64) (bench, error) {
	per := scaled(4000/streams, scale, 2)
	rng := rand.New(rand.NewSource(seed))
	mods := make([]*irx.Module, streams)
	for k := range mods {
		mods[k] = workload.GenDuplicated(rng.Int63(), per, 0.8)
	}
	s := &serviceBench{}
	for i := 0; i < per; i++ {
		for k, mod := range mods {
			f := mod.Funcs[i]
			req := service.Request{ID: fmt.Sprintf("c%d.%s", k, f.Name), IR: f.String()}
			body, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			s.bodies = append(s.bodies, body)
			s.reqs = append(s.reqs, req)
			s.values = append(s.values, f.NumValues)
		}
	}
	srv, err := service.New(service.Config{Registers: serviceRegs, CacheSize: serviceCache})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.srv, s.served = srv, make(chan error, 1)
	go func() { s.served <- srv.Serve(ln) }()
	s.url = "http://" + ln.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
	if cold := s.closedLoop(0, len(s.bodies)); cold.failed > 0 {
		s.close()
		return nil, fmt.Errorf("cold pass: %d of %d requests failed", cold.failed, len(s.bodies))
	}
	return s, nil
}

// close drains the server and waits for it to stop serving.
func (s *serviceBench) close() {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.srv.Drain(ctx) // the run is over; a slow drain changes no result
	<-s.served
}

// post sends request body i and decodes what the check needs.
func (s *serviceBench) post(i int) reply {
	r := reply{body: int32(i)}
	resp, err := s.client.Post(s.url+"/v1/allocate", "application/json", bytes.NewReader(s.bodies[i]))
	if err != nil {
		return r
	}
	defer resp.Body.Close()
	var out struct {
		Spilled   []string `json:"spilled"`
		SpillCost float64  `json:"spillCost"`
		Error     string   `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	_, _ = io.Copy(io.Discard, resp.Body) // drain for keep-alive
	r.ok = err == nil && resp.StatusCode == http.StatusOK && out.Error == ""
	r.spilled, r.cost = digest(out.Spilled), out.SpillCost
	return r
}

// digest fingerprints a sorted spilled-name list.
func digest(names []string) uint64 {
	h := fnv.New64a()
	for _, n := range names {
		h.Write([]byte(n))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// loadStats summarises one load phase.
type loadStats struct {
	elapsed      time.Duration
	sent, failed int64
	values       int64
	lat          []time.Duration // from each request's due time
	rtt          []time.Duration // from each request's send
	late         []time.Duration // sender lateness of requests due while it was idle
	replies      []reply
	rt           runtimeDelta
}

// closedLoop sends n requests starting at request from (wrapping), each
// worker sending its next request as soon as its previous one returns.
func (s *serviceBench) closedLoop(from, n int) loadStats {
	return s.run(from, func(k int) (time.Time, bool) { return time.Time{}, k < n })
}

// closedLoopFor is closedLoop bounded by time instead of count.
func (s *serviceBench) closedLoopFor(from int, d time.Duration) loadStats {
	end := time.Now().Add(d)
	return s.run(from, func(int) (time.Time, bool) { return time.Time{}, time.Now().Before(end) })
}

// openLoop sends requests on a fixed schedule of rate per second for d,
// whether or not earlier ones have returned; latency counts from each
// request's due time, so a stall is charged to every request it delays.
func (s *serviceBench) openLoop(from int, rate float64, d time.Duration) loadStats {
	start := time.Now().Add(time.Millisecond)
	n := int(rate * d.Seconds())
	return s.run(from, func(k int) (time.Time, bool) {
		return start.Add(time.Duration(float64(k) / rate * float64(time.Second))), k < n
	})
}

// run drives conns workers over a shared request counter. schedule(k)
// gives request k's due time (zero: send at once) and whether to send it.
func (s *serviceBench) run(from int, schedule func(k int) (time.Time, bool)) loadStats {
	var st loadStats
	var next atomic.Int64
	type local struct {
		lat, rtt, late []time.Duration
		replies        []reply
		values         int64
	}
	locals := make([]local, conns)
	before := sampleRuntime()
	start := time.Now()
	var wg sync.WaitGroup
	for w := range locals {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := &locals[w]
			for {
				k := int(next.Add(1) - 1)
				due, send := schedule(k)
				if !send {
					return
				}
				idle := false
				if !due.IsZero() {
					idle = waitUntil(due)
				}
				sent := time.Now()
				if due.IsZero() {
					due = sent
				}
				if idle {
					l.late = append(l.late, sent.Sub(due))
				}
				i := (from + k) % len(s.bodies)
				r := s.post(i)
				done := time.Now()
				l.lat = append(l.lat, done.Sub(due))
				l.rtt = append(l.rtt, done.Sub(sent))
				l.replies = append(l.replies, r)
				l.values += int64(s.values[i])
			}
		}()
	}
	wg.Wait()
	st.elapsed = time.Since(start)
	st.rt = sampleRuntime().since(before)
	for _, l := range locals {
		st.lat = append(st.lat, l.lat...)
		st.rtt = append(st.rtt, l.rtt...)
		st.late = append(st.late, l.late...)
		st.replies = append(st.replies, l.replies...)
		st.values += l.values
	}
	st.sent = int64(len(st.replies))
	for _, r := range st.replies {
		if !r.ok {
			st.failed++
		}
	}
	return st
}

// waitUntil sleeps until shortly before due and spins the rest of the way.
// It reports whether the caller was idle, i.e. due was still ahead. It
// sleeps in nanosleep rather than time.Sleep, which wakes up to a
// millisecond late while the process is otherwise idle (the runtime's
// poller then waits in whole milliseconds).
func waitUntil(due time.Time) bool {
	d := time.Until(due)
	if d <= 0 {
		return false
	}
	if d > spinFor {
		ts := syscall.NsecToTimespec(int64(d - spinFor))
		_ = syscall.Nanosleep(&ts, nil) // interrupted early: the spin finishes the wait
	}
	for time.Now().Before(due) {
	}
	return true
}

func (s *serviceBench) measure(d time.Duration, m *metricSet, cal *calibration) (attempted, failed int64) {
	// 60% of the phase measures latency at the reference rate, the rest
	// the throughput of a closed loop on the same connections.
	var ws windowSet
	var rt runtimeDelta
	var samples, late []time.Duration
	next := 0
	phase := func(st loadStats) float64 {
		slow := cal.slowdown()
		s.replies = append(s.replies, st.replies...)
		rt = rt.plus(st.rt)
		attempted += st.sent
		failed += st.failed
		next += int(st.sent)
		return slow
	}
	cal.slowdown()
	for w := 0; w < windows; w++ {
		st := s.openLoop(next, refRate, d*6/10/windows)
		ws.addLatency(st.lat, phase(st))
		samples = append(samples, st.lat...)
		late = append(late, st.late...)
	}
	for w := 0; w < windows; w++ {
		st := s.closedLoopFor(next, d*4/10/windows)
		ws.addRate(st.values, st.sent, st.elapsed, phase(st))
	}
	ws.report(m)
	m.set("allocs_per_func", float64(rt.mallocs)/float64(attempted))
	m.set("bytes_per_func", float64(rt.bytes)/float64(attempted))
	m.note("latency samples: %d requests at %d/s, about %d per window; sender lateness p99 %.1f µs over %d requests",
		len(samples), refRate, len(samples)/windows, us(percentile(late, 0.99)), len(late))
	return attempted, failed
}

// expected is the reference answer for one request body: an uncached
// in-process engine's spilled-name digest and spill cost.
type expected struct {
	spilled uint64
	cost    float64
}

func (s *serviceBench) expectations() ([]expected, error) {
	eng, err := regalloc.New(regalloc.WithRegisters(serviceRegs))
	if err != nil {
		return nil, err
	}
	want := make([]expected, len(s.reqs))
	for i, req := range s.reqs {
		f, err := irx.Parse(req.IR)
		if err != nil {
			return nil, err
		}
		out, err := eng.AllocateFunc(context.Background(), f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f.Name, err)
		}
		want[i] = expected{spilledDigest(f, out), out.SpillCost}
	}
	return want, nil
}

func spilledDigest(f *irx.Func, out *regalloc.Outcome) uint64 {
	names := make([]string, len(out.SpilledValues))
	for k, v := range out.SpilledValues {
		names[k] = f.NameOf(v)
	}
	sort.Strings(names)
	return digest(names)
}

// check compares every response of the measured phase, cache hit or miss,
// with the uncached in-process engine's answer for its request.
func (s *serviceBench) check(m *metricSet) (attempted, failed int64) {
	want, err := s.expectations()
	if err != nil {
		m.note("CHECK FAILED: reference engine: %v", err)
		return 1, 1
	}
	return s.checkReplies(s.replies, want, m)
}

// checkReplies counts the successful replies that differ from want; failed
// requests were counted when they failed.
func (s *serviceBench) checkReplies(replies []reply, want []expected, m *metricSet) (attempted, failed int64) {
	bad := 0
	for _, r := range replies {
		attempted++
		if !r.ok {
			continue
		}
		if w := want[r.body]; r.spilled != w.spilled || r.cost != w.cost {
			failed++
			if bad++; bad <= 5 {
				m.note("CHECK FAILED: request %s: response differs from the reference engine", s.reqs[r.body].ID)
			}
		}
	}
	return attempted, failed
}

// trace is the service's traced run: the open loop at the reference rate
// for a third of d, with the server's stage histograms scraped around it;
// the in-process request core (service.Do) for a sixth; the replay,
// untraced and traced, for the rest.
func (s *serviceBench) trace(d time.Duration, t *tracer, m *metricSet) (attempted, failed int64) {
	before, err := s.scrape()
	if err != nil {
		m.note("scraping /metrics: %v", err)
		return 1, 1
	}
	open := s.openLoop(0, refRate, d/3)
	after, err := s.scrape()
	if err != nil {
		m.note("scraping /metrics: %v", err)
		return 1, 1
	}
	attempted, failed = open.sent, open.failed
	setGC(m, open.rt, open.sent)
	var stages float64
	for _, st := range []string{service.StageDecode, service.StageParse, service.StageAllocate, service.StageEncode} {
		n := after.count[st] - before.count[st]
		v := 0.0
		if n > 0 {
			v = (after.sum[st] - before.sum[st]) / n * 1e6
		}
		m.set("server."+st+"_us", v)
		stages += v
	}
	var rtt time.Duration
	for _, d := range open.rtt {
		rtt += d
	}
	m.set("server.http_us", us(rtt)/float64(len(open.rtt))-stages)
	m.set("loadgen.late_p50_us", us(percentile(open.late, 0.50)))
	m.set("loadgen.late_p99_us", us(percentile(open.late, 0.99)))
	m.note("sender lateness over %d of %d requests", len(open.late), open.sent)

	want, err := s.expectations()
	if err != nil {
		m.note("CHECK FAILED: reference engine: %v", err)
		return attempted + 1, failed + 1
	}
	_, cf := s.checkReplies(open.replies, want, m)
	failed += cf
	do := s.doLoop(d / 6)
	// Each replay answers from its own cache of the server's capacity and
	// must match the reference engine on its warm-up pass.
	fold := fingerprint.NewConfig(serviceRegs, "", spillcost.Model{}, true, nil, 0)
	reps := [2]*replayer{newReplayer(serviceRegs, nil), newReplayer(serviceRegs, t)}
	caches := [2]*outcache.Cache{outcache.New(serviceCache), outcache.New(serviceCache)}
	untraced, traced, n, rf := replayPasses(len(s.reqs), t, "request", d/2, func(traced bool, pass, i int) bool {
		side := 0
		if traced {
			side = 1
		}
		out, err := reps[side].serve(s.reqs[i].IR, caches[side], fold)
		return err == nil && (pass > 0 || spilledDigest(out.F, out) == want[i].spilled && out.SpillCost == want[i].cost)
	})
	attempted += n
	failed += rf
	m.set("regalloc.overhead_us", do-untraced)
	m.set("trace.overhead_share", traced/untraced-1)
	setLayers(m, t)
	st := caches[1].Stats()
	m.set("outcache.hit_ratio", st.HitRate())
	m.set("outcache.admitted", float64(st.Admitted)/float64(t.roots))
	m.set("outcache.evicted", float64(st.Evicted)/float64(t.roots))
	return attempted, failed
}

// doLoop runs the service's in-process request core over the decoded
// requests for d (at least one pass) and returns µs per request.
func (s *serviceBench) doLoop(d time.Duration) float64 {
	engines := service.NewEngineCache(regalloc.NewCache(serviceCache), 0)
	n := 0
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < d; pass++ {
		for _, req := range s.reqs {
			service.Do(context.Background(), engines, req, nil, serviceRegs, "", "", "", nil)
			n++
		}
	}
	return float64(time.Since(start).Microseconds()) / float64(n)
}

// stageHist is the per-stage latency histogram state of /metrics.
type stageHist struct{ sum, count map[string]float64 }

// scrape reads the server's stage-latency histogram sums and counts.
func (s *serviceBench) scrape() (stageHist, error) {
	h := stageHist{sum: map[string]float64{}, count: map[string]float64{}}
	resp, err := s.client.Get(s.url + "/metrics")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		var dst map[string]float64
		switch {
		case strings.HasPrefix(line, "allocserve_stage_seconds_sum{"):
			dst = h.sum
		case strings.HasPrefix(line, "allocserve_stage_seconds_count{"):
			dst = h.count
		default:
			continue
		}
		// allocserve_stage_seconds_sum{stage="decode"} 0.123
		_, rest, _ := strings.Cut(line, `stage="`)
		stage, rest, _ := strings.Cut(rest, `"}`)
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			return h, fmt.Errorf("parsing %q: %w", line, err)
		}
		dst[stage] = v
	}
	return h, sc.Err()
}
