package bench

import (
	"fmt"
	"testing"

	"repro/internal/core"
)

// BenchmarkGiantScaling is the scaling probe of the single-function JIT
// case: a warmed core.Runner allocating GenGiant(v, v/50) at R=8, reported
// in ns per value. A pipeline linear in the function size keeps ns/value
// flat from 4k to 64k values; a hidden quadratic term makes it climb. Run
// with
//
//	go test ./internal/bench -run '^$' -bench GiantScaling -benchtime 5x
func BenchmarkGiantScaling(b *testing.B) {
	for _, v := range []int{4000, 16000, 64000} {
		b.Run(fmt.Sprintf("values=%d", v), func(b *testing.B) {
			f := GenGiant("giant", 1, v, v/50)
			runner := core.NewRunner()
			cfg := core.Config{Registers: 8, TrustedCostModel: true}
			if _, err := runner.Run(f, cfg); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := runner.Run(f, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*f.NumValues), "ns/value")
		})
	}
}
