package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// BenchSchemaVersion identifies the BENCH_*.json layout. Bump it when a
// point struct changes incompatibly.
const BenchSchemaVersion = 1

// benchFile is the on-disk shape of a BENCH_<experiment>.json artifact:
//
//	{
//	  "experiment":     "scaling" | "pressure" | ...,
//	  "schema_version": 1,
//	  "config":         the experiment config that produced the points,
//	  "points":         the measurement points, one object per cell
//	}
//
// Points marshal their Go structs directly: time.Duration fields are
// nanosecond integers. The per-experiment field meanings are documented
// on the point structs (ScalingPoint, PressurePoint).
type benchFile struct {
	Experiment    string `json:"experiment"`
	SchemaVersion int    `json:"schema_version"`
	Config        any    `json:"config"`
	Points        any    `json:"points"`
}

// WriteBenchJSON writes one experiment's machine-readable results to
// path, creating its directory if needed, seeding the perf trajectory a
// later run can be compared against.
func WriteBenchJSON(path, experiment string, cfg, points any) error {
	data, err := marshalBench(experiment, cfg, points)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// marshalBench encodes one experiment's artifact exactly as it lands on
// disk; the determinism tests compare these bytes.
func marshalBench(experiment string, cfg, points any) ([]byte, error) {
	data, err := json.MarshalIndent(benchFile{
		Experiment:    experiment,
		SchemaVersion: BenchSchemaVersion,
		Config:        cfg,
		Points:        points,
	}, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("experiments: marshal %s bench: %w", experiment, err)
	}
	return append(data, '\n'), nil
}
