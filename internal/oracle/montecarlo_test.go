package oracle

import (
	"fmt"
	"testing"

	"repro/internal/paper"
	"repro/internal/target"
)

// BenchmarkMonteCarloImpact pins the Monte Carlo estimator's sampling
// throughput after the scratch-hoisting and worker-pool rework, at the
// volume the cyclic validation uses.
func BenchmarkMonteCarloImpact(b *testing.B) {
	p := paper.Table1()
	const samples = 100_000
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := MonteCarloImpactWorkers(p, target.SigPACNT, target.SigTOC2, samples, 1, workers); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(samples*b.N)/b.Elapsed().Seconds(), "samples/s")
		})
	}
}
