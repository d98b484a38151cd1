package rsm

import (
	"testing"

	"heardof/internal/adversary"
	"heardof/internal/core"
	"heardof/internal/otr"
	"heardof/internal/xrand"
)

// The BenchmarkRSM_* suite is the service-layer perf trajectory:
// scripts/bench.sh parses the cmds/sec and slots/cmd metrics into
// BENCH_kv.json (schema bench_kv/v1). One iteration is one complete
// drain or workload, so cmds/sec reads as end-to-end replicated-command
// throughput of the simulated service.

func benchEngine(b *testing.B, provider func(int) core.HOProvider, tune Tuning) *Engine[string] {
	b.Helper()
	e, err := New(Config{
		N: 5, Algorithm: otr.Algorithm{}, Provider: provider, MaxRounds: 500,
		BatchSize: tune.BatchSize, Pipeline: tune.Pipeline, Parallel: tune.Parallel,
	}, func(int, string) {})
	if err != nil {
		b.Fatal(err)
	}
	return e
}

func reportServiceMetrics(b *testing.B, cmds int, st Stats) {
	b.Helper()
	b.ReportMetric(float64(cmds*b.N)/b.Elapsed().Seconds(), "cmds/sec")
	if st.Committed > 0 {
		b.ReportMetric(float64(st.Slots)/float64(st.Committed), "slots/cmd")
	}
}

// BenchmarkRSM_DrainBatched drains a 200-command burst through 63-wide
// batches in a fault-free environment (the pure batch-codec fast path).
func BenchmarkRSM_DrainBatched(b *testing.B) {
	const cmds = 200
	var st Stats
	for i := 0; i < b.N; i++ {
		e := benchEngine(b, func(int) core.HOProvider { return adversary.Full{} }, Tuning{})
		for j := 0; j < cmds; j++ {
			e.Submit(ClientID(j%8), uint64(j/8+1), "put k=v")
		}
		if _, err := e.Drain(cmds); err != nil {
			b.Fatal(err)
		}
		st = e.Stats()
	}
	reportServiceMetrics(b, cmds, st)
}

// BenchmarkRSM_DrainPipelinedLossy drains 120 commands through 8-wide
// batches, 4 slots in flight, under 20% transmission loss.
func BenchmarkRSM_DrainPipelinedLossy(b *testing.B) {
	const cmds = 120
	var st Stats
	for i := 0; i < b.N; i++ {
		rng := xrand.New(uint64(i) + 1)
		e := benchEngine(b, func(int) core.HOProvider {
			return &adversary.TransmissionLoss{Rate: 0.2, RNG: rng.Fork()}
		}, Tuning{BatchSize: 8, Pipeline: 4})
		for j := 0; j < cmds; j++ {
			e.Submit(ClientID(j%8), uint64(j/8+1), "put k=v")
		}
		if _, err := e.Drain(cmds); err != nil {
			b.Fatal(err)
		}
		st = e.Stats()
	}
	reportServiceMetrics(b, cmds, st)
}
