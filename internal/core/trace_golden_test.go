package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"gcsim/internal/gc"
	"gcsim/internal/traceio"
	"gcsim/internal/vm"
	"gcsim/internal/workloads"
)

// TestTraceStreamGolden pins the exact v2 reference stream each workload
// records under Cheney: the interpreter, superinstruction fusion, cost
// accounting, the collector and the trace encoder must together reproduce
// these bytes. The default-scale tc hash equals the sha256 of a fresh
// `gctrace -capture -workload tc` file.
func TestTraceStreamGolden(t *testing.T) {
	golden := []struct {
		workload string
		small    bool // SmallScale; otherwise the default scale
		sha256   string
	}{
		{"tc", false, "e386dee7b24da0009b885d16ec02863cb340907785a59a50247c6447abfd24de"},
		{"tc", true, "5c09b138d856eee470677c082f2b8f6f6b749ab31281bf67c868af180393075a"},
		{"prover", true, "2772e42b5dec47d7122c9a1611f66c66498e701cf0d3906c5e49f4e577ed11e1"},
		{"lambda", true, "91a96c706e7710a60670967e50f46da65de46df63f8d3428d0ac965cbc6e9d35"},
		{"nbody", true, "4dcaa9195e68ad81f3d6c6ed7275125f740ad9b6cd1acb0d9c858eb25466cd72"},
		{"match", true, "2f4069c7c7f6470987ab99c71227e2ac7031b38266b4bc86930002fa468eacc7"},
	}
	for _, g := range golden {
		w, err := workloads.ByName(g.workload)
		if err != nil {
			t.Fatal(err)
		}
		scale := 0
		if g.small {
			scale = w.SmallScale
		}
		h := sha256.New()
		bw, err := traceio.NewBatchWriter(h, traceio.WriterOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(context.Background(), RunSpec{
			Workload:  w,
			Scale:     scale,
			Collector: gc.NewCheney(0),
			Tracer:    bw,
			OnMachine: func(m *vm.Machine) { bw.SetClock(m.Insns) },
		}); err != nil {
			t.Fatalf("%s scale %d: %v", g.workload, scale, err)
		}
		if err := bw.Close(); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != g.sha256 {
			t.Errorf("%s scale %d: trace sha256 %s, pinned %s\n"+
				"(the reference stream changed; if deliberate, bump vm.CodeShapeVersion and refresh these pins)",
				g.workload, scale, got, g.sha256)
		}
	}
}
