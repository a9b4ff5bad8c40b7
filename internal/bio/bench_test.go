package bio

import "testing"

// Benchmarks for the simulation inner loop, with b.ReportAllocs. Three
// variants:
//
//   - TreeRun: tree interpretation with warm scratch — the uncompiled Fig 10
//     baseline that runtime compilation replaces.
//   - SegRun: the segmented register VM through its convenience entry
//     point, which builds the exogenous plan per call — what an evaluation
//     pays without the structure cache.
//   - SegKernel: Prologue+Kernel over a prebuilt plan with warm scratch,
//     allocation-free — what a cached structure pays per candidate.

func BenchmarkTreeRun(b *testing.B) {
	phy, zoo, params, forcing := manualWorkload(b)
	sys := NewTreeSystem(phy, zoo)
	cfg := SimConfig{Phy0: 10, Zoo0: 1}
	var sc SimScratch
	sys.RunBuf(forcing, params, cfg, &sc, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.RunBuf(forcing, params, cfg, &sc, nil)
	}
}

func BenchmarkSegRun(b *testing.B) {
	phy, zoo, params, forcing := manualWorkload(b)
	seg, err := NewSegSystem(phy, zoo)
	if err != nil {
		b.Fatal(err)
	}
	cfg := SimConfig{Phy0: 10, Zoo0: 1}
	var sc SimScratch
	seg.Run(forcing, params, cfg, &sc, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seg.Run(forcing, params, cfg, &sc, nil)
	}
}

func BenchmarkSegKernel(b *testing.B) {
	phy, zoo, params, forcing := manualWorkload(b)
	seg, err := NewSegSystem(phy, zoo)
	if err != nil {
		b.Fatal(err)
	}
	cfg := SimConfig{Phy0: 10, Zoo0: 1}
	plan := seg.BuildExogPlan(forcing)
	var sc SimScratch
	seg.Prologue(params, &sc)
	seg.Kernel(plan, cfg, &sc, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seg.Prologue(params, &sc)
		seg.Kernel(plan, cfg, &sc, nil)
	}
}
