package translate_test

// Translation benchmarks on two shapes of the benchmark ladder: the
// 240-router protected zoo (zoo-240) and the small NORDUnet configuration
// (nordunet). BenchmarkBuild covers rule emission, reduction and index
// freeze, sliced and unsliced; BenchmarkReduce and BenchmarkFreeze time the
// last two on their own; BenchmarkInitAuto the initial P-automaton. All
// report allocations, which at paper scale cost as much as the work.

import (
	"testing"

	"aalwines/internal/gen"
	"aalwines/internal/network"
	"aalwines/internal/pds"
	"aalwines/internal/query"
	"aalwines/internal/translate"
)

// ladderShape returns a ladder network and its compiled query set.
func ladderShape(tb testing.TB, name string) (*network.Network, []*query.Query) {
	tb.Helper()
	var s *gen.Synth
	var texts []string
	switch name {
	case "zoo-240":
		s = gen.Zoo(gen.ZooOpts{Routers: 240, Seed: 1, Protection: true})
		for _, q := range s.Queries(12, 1) {
			texts = append(texts, q.Text)
		}
	case "nordunet":
		s = gen.Nordunet(gen.NordOpts{Services: 2, EdgeRouters: 10, Seed: 1})
		for _, q := range s.Table1Queries() {
			texts = append(texts, q.Text)
		}
	default:
		tb.Fatalf("unknown ladder shape %q", name)
	}
	qs := make([]*query.Query, len(texts))
	for i, text := range texts {
		q, err := query.Parse(text, s.Net)
		if err != nil {
			tb.Fatalf("%q: %v", text, err)
		}
		qs[i] = q
	}
	return s.Net, qs
}

var ladderShapes = []string{"zoo-240", "nordunet"}

// BenchmarkBuild translates every query of a shape into its
// over-approximation per iteration.
func BenchmarkBuild(b *testing.B) {
	for _, shape := range ladderShapes {
		net, qs := ladderShape(b, shape)
		for _, sliced := range []bool{true, false} {
			b.Run(sliceName(shape, sliced), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for _, q := range qs {
						if sys := translate.Build(net, q, translate.Options{Slice: sliced}); len(sys.PDS.Rules) == 0 {
							b.Fatal("empty system")
						}
					}
				}
			})
		}
	}
}

// sliceName names the sliced or unsliced variant of a shape.
func sliceName(shape string, sliced bool) string {
	if sliced {
		return shape + "/sliced"
	}
	return shape + "/unsliced"
}

// ruleCopy returns an unindexed PDS holding a copy of p's rules.
func ruleCopy(p *pds.PDS) *pds.PDS {
	c := pds.New(p.NumStates, p.NumSyms)
	c.Rules = append(c.Rules, p.Rules...)
	return c
}

// BenchmarkReduce runs the top-of-stack reduction, including the head
// index it walks, on every query's unreduced system per iteration. Copying
// the unreduced rules is not timed.
func BenchmarkReduce(b *testing.B) {
	for _, shape := range ladderShapes {
		net, qs := ladderShape(b, shape)
		for _, sliced := range []bool{true, false} {
			systems := make([]*translate.System, len(qs))
			for i, q := range qs {
				systems[i] = translate.Build(net, q, translate.Options{Slice: sliced, NoReductions: true})
			}
			work := make([]translate.System, len(systems))
			b.Run(sliceName(shape, sliced), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					for j, sys := range systems {
						work[j] = *sys
						work[j].PDS = ruleCopy(sys.PDS)
					}
					b.StartTimer()
					for j := range work {
						translate.Reduce(&work[j])
					}
				}
			})
		}
	}
}

// BenchmarkFreeze builds the rule indexes of every query's reduced system
// per iteration, as the last step of Build does. Copying the rules is not
// timed.
func BenchmarkFreeze(b *testing.B) {
	for _, shape := range ladderShapes {
		net, qs := ladderShape(b, shape)
		for _, sliced := range []bool{true, false} {
			systems := make([]*pds.PDS, len(qs))
			for i, q := range qs {
				systems[i] = translate.Build(net, q, translate.Options{Slice: sliced}).PDS
			}
			work := make([]*pds.PDS, len(systems))
			b.Run(sliceName(shape, sliced), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					for j, p := range systems {
						work[j] = ruleCopy(p)
					}
					b.StartTimer()
					for _, p := range work {
						p.Freeze()
					}
				}
			})
		}
	}
}

// BenchmarkInitAuto builds the initial automaton of every query of a shape
// per iteration, over pre-built sliced systems.
func BenchmarkInitAuto(b *testing.B) {
	for _, shape := range ladderShapes {
		net, qs := ladderShape(b, shape)
		systems := make([]*translate.System, len(qs))
		for i, q := range qs {
			systems[i] = translate.Build(net, q, translate.Options{Slice: true})
		}
		b.Run(shape, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, sys := range systems {
					if a := sys.InitAuto(); a.NumTrans() == 0 {
						b.Fatal("empty initial automaton")
					}
				}
			}
		})
	}
}
