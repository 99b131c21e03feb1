// Command allocserve runs the register allocator as a long-lived network
// service: HTTP/1.1 + h2c (cleartext HTTP/2), stdlib-only.
//
//	allocserve -addr :8080 -r 4 -alloc BFPL -cache 4096
//	allocserve -addr :8080 -max-inflight 256 -timeout 10s
//
// Service throughput and latency are measured by the regbench module
// (bash regbench/run.sh, workload service-dup).
//
// Endpoints:
//
//	POST /v1/allocate   one JSON request (the allocbatch JSONL schema:
//	                    "ir" for a single function or "module" for a
//	                    compilation unit), one JSON response
//	GET  /metrics       Prometheus text metrics
//	GET  /healthz       liveness: 200 while the process serves at all
//	GET  /readyz        readiness: 503 while draining or saturated
//
// Admission is bounded: at most -max-inflight requests are served
// concurrently and the rest are rejected immediately with 429 +
// Retry-After. Every request runs under the -timeout deadline. On SIGTERM
// or SIGINT the server drains gracefully: it stops accepting (/readyz
// flips to 503, /healthz stays 200), finishes the in-flight requests
// (bounded by -drain-timeout) and flushes a final metrics snapshot to
// stdout.
//
// Resource governance: -budget-steps, -budget-deadline, -max-values and
// -max-blocks bound every allocation's work; with -degrade, over-budget
// functions are served from the degradation ladder (the response carries
// the rung under "degraded") instead of failing:
//
//	allocserve -budget-steps 2000000 -budget-deadline 50ms -degrade
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/regalloc"
	"repro/regalloc/service"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "allocserve:", err)
		os.Exit(1)
	}
}

// run is the testable entry point. A non-nil ready channel receives the
// bound listen address once the server accepts connections (tests use it
// to race-freely learn the port of addr ":0").
func run(args []string, out io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("allocserve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	regs := fs.Int("r", 4, "default register count for requests that omit one")
	allocName := fs.String("alloc", "", "default allocator name, or 'help' to list (default BFPL/LH)")
	machine := fs.String("machine", "", "default target machine for machine-constrained allocation, or 'help' to list (default unconstrained)")
	coalesceName := fs.String("coalesce", "", "default coalescing policy: off, aggressive, conservative (default off)")
	jobs := fs.Int("jobs", 0, "worker count for module requests (0 = GOMAXPROCS)")
	cacheSize := fs.Int("cache", 0, "outcome-cache capacity in entries, shared across request configurations (0 = off)")
	maxInFlight := fs.Int("max-inflight", service.DefaultMaxInFlight, "admission bound: concurrent requests beyond it get 429")
	timeout := fs.Duration("timeout", service.DefaultRequestTimeout, "per-request allocation deadline (negative = none)")
	drainTimeout := fs.Duration("drain-timeout", service.DefaultDrainTimeout, "graceful-drain bound for in-flight requests on SIGTERM")
	budgetSteps := fs.Int64("budget-steps", 0, "per-function work-step budget (0 = unbounded)")
	budgetDeadline := fs.Duration("budget-deadline", 0, "per-function wall-clock allocation deadline (0 = none)")
	maxValues := fs.Int("max-values", 0, "admission gate: reject/degrade functions above this value count (0 = none)")
	maxBlocks := fs.Int("max-blocks", 0, "admission gate: reject/degrade functions above this block count (0 = none)")
	degrade := fs.Bool("degrade", false, "serve over-budget functions from the degradation ladder instead of failing them")
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
	cfg := service.Config{
		Registers:      *regs,
		Allocator:      *allocName,
		Machine:        *machine,
		Coalesce:       *coalesceName,
		Jobs:           *jobs,
		CacheSize:      *cacheSize,
		MaxInFlight:    *maxInFlight,
		RequestTimeout: *timeout,
		DrainTimeout:   *drainTimeout,
		Budget: regalloc.Budget{
			Steps:     *budgetSteps,
			Deadline:  *budgetDeadline,
			MaxValues: *maxValues,
			MaxBlocks: *maxBlocks,
		},
		Degrade: *degrade,
	}
	srv, err := service.New(cfg)
	if err != nil {
		return err
	}
	bound, done, err := srv.ListenAndServe(*addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "allocserve: listening on %s (R=%d alloc=%s max-inflight=%d timeout=%v cache=%d)\n",
		bound, *regs, defaultName(*allocName), *maxInFlight, *timeout, *cacheSize)
	if ready != nil {
		ready <- bound.String()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case err := <-done:
		return err
	case got := <-sig:
		fmt.Fprintf(out, "allocserve: received %v, draining (bound %v)\n", got, *drainTimeout)
		start := time.Now()
		drainErr := srv.Drain(context.Background())
		<-done
		if drainErr != nil {
			fmt.Fprintf(out, "allocserve: drain incomplete after %v: %v\n", time.Since(start).Round(time.Millisecond), drainErr)
		} else {
			fmt.Fprintf(out, "allocserve: drained in %v\n", time.Since(start).Round(time.Millisecond))
		}
		// Final metrics flush: the last scrape a collector would have seen,
		// plus whatever the drain window finished.
		fmt.Fprint(out, srv.MetricsText())
		return drainErr
	}
}

func defaultName(name string) string {
	if name == "" {
		return "default"
	}
	return name
}
