// Command allocbatch is the module-level batch front-end of the allocator:
// it fans the functions of a compilation unit out over the regalloc
// engine's worker pool and reports the allocation decisions per function.
//
// Modes:
//
//	allocbatch -r 4 -alloc BFPL -jobs 4 -module m.ir        # batch a module file
//	allocbatch -r 4 -gen 500 -seed 7                        # batch a generated module
//	allocbatch -r 4 -gen 500 -cache 1024                    # batch with the outcome cache
//	allocbatch -jsonl -jobs 8 -cache 4096                   # JSONL service, shared outcome cache
//
// Throughput is measured by the regbench module (bash regbench/run.sh).
//
// In JSONL mode every stdin line is one request and every stdout line one
// response, emitted in request order, so the tool can be driven as a
// service by any line-oriented client:
//
//	{"id":"1","ir":"func f ssa { ... }","registers":4,"allocator":"BFPL","print":true}
//	{"id":"1","func":"f","allocator":"BFPL","registers":4,"values":9,"maxlive":3,
//	 "spilled":["a"],"spillCost":12.5,"assignment":{"b":0},"rewritten":"func f ssa {...}"}
//
// Requests may omit registers/allocator to inherit the command-line
// defaults; failures come back as {"id":..., "error": "..."} without
// stopping the stream. `-alloc help` lists the registered allocator names.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"

	"repro/regalloc"
	"repro/regalloc/irx"
	"repro/regalloc/service"
	"repro/regalloc/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "allocbatch:", err)
		os.Exit(1)
	}
}

func run(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("allocbatch", flag.ContinueOnError)
	regs := fs.Int("r", 4, "register count")
	allocName := fs.String("alloc", "", "allocator name, or 'help' to list (default BFPL/LH)")
	machine := fs.String("machine", "", "target machine name for machine-constrained allocation, or 'help' to list (default unconstrained)")
	coalesceName := fs.String("coalesce", "", "coalescing policy: off, aggressive, conservative (default off)")
	jobs := fs.Int("jobs", 0, "worker count (0 = GOMAXPROCS)")
	module := fs.String("module", "", "textual IR module file ('-' = stdin)")
	gen := fs.Int("gen", 0, "generate a module of this many functions instead of reading one")
	seed := fs.Int64("seed", 1, "generator seed for -gen")
	print := fs.Bool("print", false, "per-function detail: assignment and rewritten body")
	jsonl := fs.Bool("jsonl", false, "JSONL service mode: one request per stdin line, one response per stdout line")
	cacheSize := fs.Int("cache", 0, "outcome-cache capacity in entries (0 = off); batch mode gets a private cache, JSONL mode one cache shared across request configurations")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *allocName == "help" {
		fmt.Fprintln(out, strings.Join(regalloc.Allocators(), "\n"))
		return nil
	}
	if *machine == "help" {
		fmt.Fprintln(out, strings.Join(regalloc.MachineNames(), "\n"))
		return nil
	}

	if *jsonl {
		return runJSONL(in, out, *regs, *allocName, *machine, *coalesceName, *jobs, *cacheSize)
	}
	m, err := loadModule(*module, *gen, *seed, in)
	if err != nil {
		return err
	}
	return runBatch(out, m, *regs, *allocName, *machine, *coalesceName, *jobs, *print, *cacheSize)
}

func loadModule(path string, gen int, seed int64, in io.Reader) (*irx.Module, error) {
	if gen > 0 {
		return workload.GenerateModule(seed, gen), nil
	}
	var src []byte
	var err error
	if path == "" || path == "-" {
		src, err = io.ReadAll(in)
	} else {
		src, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	return irx.ParseModule(string(src))
}

// newEngine assembles the engine for one (registers, allocator, machine,
// coalescing, jobs) configuration; shared by the batch and JSONL modes. A
// non-nil shared cache attaches to the engine; cacheSize > 0 gives it a
// private one.
func newEngine(regs int, allocName, machine, coalesceName string, jobs, cacheSize int, shared *regalloc.Cache) (*regalloc.Engine, error) {
	opts := []regalloc.Option{regalloc.WithRegisters(regs), regalloc.WithJobs(jobs)}
	if allocName != "" {
		opts = append(opts, regalloc.WithAllocator(allocName))
	}
	if machine != "" {
		opts = append(opts, regalloc.WithMachine(machine))
	}
	if coalesceName != "" {
		pol, err := regalloc.CoalescePolicyByName(coalesceName)
		if err != nil {
			return nil, err
		}
		opts = append(opts, regalloc.WithCoalescing(pol))
	}
	switch {
	case shared != nil:
		opts = append(opts, regalloc.WithSharedCache(shared))
	case cacheSize > 0:
		opts = append(opts, regalloc.WithCache(cacheSize))
	}
	return regalloc.New(opts...)
}

func runBatch(out io.Writer, m *irx.Module, regs int, allocName, machine, coalesceName string, jobs int, detail bool, cacheSize int) error {
	eng, err := newEngine(regs, allocName, machine, coalesceName, jobs, cacheSize, nil)
	if err != nil {
		return err
	}
	results, err := eng.AllocateModule(context.Background(), m)
	if err != nil {
		return err
	}
	fmt.Fprint(out, regalloc.FormatResults(results, detail))
	t := regalloc.Summarize(results)
	fmt.Fprintf(out, "total %d functions, %d spilled values (cost %.1f), %d errors\n",
		t.Funcs, t.Spilled, t.SpillCost, t.Errors)
	if cacheSize > 0 {
		s := eng.CacheStats()
		fmt.Fprintf(out, "cache: %d hits, %d misses, %d resident entries (capacity %d), %d evicted\n",
			s.Hits, s.Misses, s.Entries, s.Capacity, s.Evicted)
	}
	if t.Errors > 0 {
		return fmt.Errorf("%d of %d functions failed", t.Errors, t.Funcs)
	}
	return nil
}

// ------------------------------------------------------------- JSONL mode

// The request/response schema, the bounded per-configuration engine table
// and the single-request serving logic live in regalloc/service, shared
// verbatim with the HTTP allocation server (cmd/allocserve).

// runJSONL streams requests through a fixed worker pool and emits
// responses in request order with a bounded in-flight window. With
// cacheSize > 0 every engine shares one outcome cache, so repeated
// function bodies — even under different names or from different request
// configurations — cost a fingerprint plus a copy after the first runs.
//
// The first response-encoding failure (closed stdout, broken pipe) stops
// intake promptly: the reader stops consuming stdin and the pool drains
// what is already in flight without allocating into a dead sink; runJSONL
// then returns that write error.
func runJSONL(in io.Reader, out io.Writer, defRegs int, defAlloc, defMachine, defCoalesce string, jobs, cacheSize int) error {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	type slot struct {
		req  service.Request
		err  error // request decode error
		done chan service.Response
	}
	// Both queues are buffered so intake, the workers and the ordered
	// writer only serialize on genuine capacity, not on every handoff.
	work := make(chan *slot, jobs*4)
	pending := make(chan *slot, jobs*4)

	var writeErr error
	writeFailed := make(chan struct{}) // closed on the first encode error
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		enc := json.NewEncoder(out)
		for s := range pending {
			resp := <-s.done
			if writeErr != nil {
				continue // keep draining, stop encoding into a dead sink
			}
			if err := enc.Encode(resp); err != nil {
				writeErr = err
				close(writeFailed)
			}
		}
	}()

	var shared *regalloc.Cache
	if cacheSize > 0 {
		shared = regalloc.NewCache(cacheSize)
	}
	engines := service.NewEngineCache(shared, 0)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range work {
				s.done <- service.Do(context.Background(), engines, s.req, s.err, defRegs, defAlloc, defMachine, defCoalesce, nil)
			}
		}()
	}

	// bufio.Reader rather than a Scanner: a Scanner's line cap would kill
	// the whole stream on one oversized request, breaking the
	// errors-are-per-request contract.
	br := bufio.NewReaderSize(in, 1<<20)
	var readErr error
intake:
	for {
		select {
		case <-writeFailed:
			// No response can reach the client anymore; parsing and
			// allocating the rest of stdin would be pure waste.
			break intake
		default:
		}
		line, err := br.ReadBytes('\n')
		if trimmed := bytes.TrimSpace(line); len(trimmed) > 0 {
			s := &slot{done: make(chan service.Response, 1)}
			s.err = service.DecodeRequest(trimmed, &s.req)
			pending <- s
			work <- s
		}
		if err != nil {
			if err != io.EOF {
				readErr = err
			}
			break
		}
	}
	close(work)
	wg.Wait()
	close(pending)
	<-writerDone
	if readErr != nil {
		return readErr
	}
	return writeErr
}
