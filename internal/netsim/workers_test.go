package netsim

import (
	"reflect"
	"runtime"
	"testing"
)

// TestGenerateWorkersByteIdentical pins the sharded-RNG generation
// contract: the same seed must produce an identical world for every
// worker count, because all randomness is keyed by (seed, stage,
// entity) and shared-resource assignment is a serial realization pass.
// The comparison walks every entity field of World.Parts.
func TestGenerateWorkersByteIdentical(t *testing.T) {
	cfgs := map[string]Config{"tiny": TinyConfig(), "default": DefaultConfig()}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			var ref *WorldParts
			for _, workers := range []int{1, 4, runtime.NumCPU()} {
				w, err := Generate(cfg, workers)
				if err != nil {
					t.Fatal(err)
				}
				p := w.Parts()
				if ref == nil {
					ref = &p
				} else if !reflect.DeepEqual(*ref, p) {
					t.Fatalf("workers=%d world differs from workers=1", workers)
				}
			}
		})
	}
}

// TestGenerateWorkersSeedSensitivity guards against a degenerate
// stream-keying bug (every entity on one stream): different seeds must
// produce different worlds.
func TestGenerateWorkersSeedSensitivity(t *testing.T) {
	cfg := TinyConfig()
	w1, err := Generate(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 2
	w2, err := Generate(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	p1, p2 := w1.Parts(), w2.Parts()
	// Equal seeds in the compared config: the entities must differ.
	p2.Cfg.Seed = p1.Cfg.Seed
	if reflect.DeepEqual(p1, p2) {
		t.Fatal("seeds 1 and 2 generated identical worlds")
	}
}
