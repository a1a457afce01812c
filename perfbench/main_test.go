package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"ariesrh/internal/wal"
)

// TestBenchmarkJSON checks that BENCHMARK.json is what the workload and
// metric tables generate (go run . --spec).
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file, want any
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatal(err)
	}
	gen, err := json.Marshal(benchmarkSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(gen, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file, want) {
		t.Fatalf("BENCHMARK.json differs from the tables; regenerate it with: go run . --spec > ../BENCHMARK.json")
	}
}

// TestWorkloadsTiny runs every workload at a tiny size, untraced and
// traced, and checks that each metric BENCHMARK.json names is reported
// with its unit and that the exactness oracle ran.
func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, sp := range specs {
		for _, trace := range []bool{false, true} {
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			res, record, err := execute(config{workload: sp.name, seed: 7, seconds: 0.4, trace: trace, scale: 0.02, data: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", sp.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", sp.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if record["oracle"] != "passed" {
				t.Errorf("%s trace=%v: oracle did not run", sp.name, trace)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", sp.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", sp.name, trace, d.name, m, d.unit)
				}
			}
			if !trace {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", sp.name, name, m.Value)
					}
				}
			}
		}
	}
}

// TestOracleCatchesLostWrite checks that the oracle fails a run whose
// recovered state lacks an acknowledged write.
func TestOracleCatchesLostWrite(t *testing.T) {
	st, err := openEngine(memDevices(), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	m := &model{vals: map[wal.ObjectID]write{}}
	x, err := st.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Update(1, value(0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	m.commit([]write{{obj: 1, stamp: 1, val: value(0, 1, 1)}})
	if err := verify(st, m); err != nil {
		t.Fatalf("committed state: %v", err)
	}
	m.commit([]write{{obj: 1, stamp: 2, val: value(0, 2, 1)}})
	if err := verify(st, m); err == nil {
		t.Fatal("verify accepted a state missing an acknowledged write")
	}
}
