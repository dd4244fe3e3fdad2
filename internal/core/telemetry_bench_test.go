package core

import (
	"context"
	"testing"
)

// BenchmarkSearchTelemetry is the A/B pair behind the telemetry
// overhead budget (<3% on the query path): the same index and query
// mix with the collector on (the default) and off. Run the two cases
// interleaved to cancel machine drift:
//
//	for i in 1 2 3; do
//	  go test -bench 'BenchmarkSearchTelemetry/on' -benchtime 2000x -run '^$' ./internal/core/
//	  go test -bench 'BenchmarkSearchTelemetry/off' -benchtime 2000x -run '^$' ./internal/core/
//	done
func BenchmarkSearchTelemetry(b *testing.B) {
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"on", false}, {"off", true}} {
		b.Run(mode.name, func(b *testing.B) {
			p := Params{Tau: 4, Omega: 8, M: 8, Alpha: 512, Gamma: 128, Seed: 1,
				DisableTelemetry: mode.disable}
			ix, _, queries := buildSmall(b, 4000, p)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := ix.Query(context.Background(), queries[i%len(queries)], 10, SearchOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSearchBatchTelemetry is the batch-path counterpart.
func BenchmarkSearchBatchTelemetry(b *testing.B) {
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"on", false}, {"off", true}} {
		b.Run(mode.name, func(b *testing.B) {
			p := Params{Tau: 4, Omega: 8, M: 8, Alpha: 512, Gamma: 128, Seed: 1,
				DisableTelemetry: mode.disable}
			ix, ds, _ := buildSmall(b, 4000, p)
			queries := ds.PerturbedQueries(64, 0.01, 99)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := ix.QueryBatch(context.Background(), queries, 10, SearchOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
