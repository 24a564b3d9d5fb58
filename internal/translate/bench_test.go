package translate_test

// Translation benchmarks on two shapes of the benchmark ladder: the
// 240-router protected zoo (zoo-240) and the small NORDUnet configuration
// (nordunet). BenchmarkBuild covers rule emission, reduction and index
// freeze, sliced and unsliced; BenchmarkInitAuto the initial P-automaton.
// Both report allocations, which at paper scale cost as much as the work.

import (
	"testing"

	"aalwines/internal/gen"
	"aalwines/internal/network"
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
			name := shape + "/unsliced"
			if sliced {
				name = shape + "/sliced"
			}
			b.Run(name, func(b *testing.B) {
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
