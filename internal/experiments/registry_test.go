package experiments

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestRegistrySeededRunsByteIdentical is the bit-reproducibility bar for
// -seed: every registered sweep's quick config, run twice with seed 42,
// must produce byte-identical BENCH JSON, with nothing (wall clock, map
// order, global RNG state) leaking into the artifact.
func TestRegistrySeededRunsByteIdentical(t *testing.T) {
	for _, s := range Registry {
		t.Run(s.Name, func(t *testing.T) {
			first, second := seededBench(t, s), seededBench(t, s)
			if !bytes.Equal(first, second) {
				t.Fatalf("identically-seeded runs differ:\n--- first ---\n%s\n--- second ---\n%s", first, second)
			}
		})
	}
}

// seededBench runs s's quick config with seed 42 and returns its BENCH
// bytes, failing if a config with a Seed field did not receive it.
func seededBench(t *testing.T, s Sweep) []byte {
	t.Helper()
	res := s.Run(true, 42)
	data, err := marshalBench(s.Name, res.Config, res.Points)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Config struct{ Seed *int64 } `json:"config"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Config.Seed != nil && *doc.Config.Seed != 42 {
		t.Fatalf("config Seed = %d, want the -seed value 42", *doc.Config.Seed)
	}
	return data
}
