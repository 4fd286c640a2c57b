package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"floc/internal/dataplane"
	"floc/internal/telemetry"
	"floc/internal/wire"
)

// smallMix is a short capture with every class: the steady core plus a
// churn tail, so first sightings and intern barriers are exercised.
func smallMix() mix {
	m := steady(12)
	m.tailPaths, m.tailPkts, m.tailGap = 300, 3, 0.05
	return m
}

// TestReplayMatchesFlocd pins the harness to the daemon: on a small
// seeded capture at one shard and batch 1 (where verdicts do not depend
// on batch timing), the benchmark's ingest loop must leave the engine in
// exactly the state flocd -replay -snapshot reports.
func TestReplayMatchesFlocd(t *testing.T) {
	capture, err := generate(smallMix(), 3).capture()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "capture.ndjson")
	if err := os.WriteFile(path, capture, 0o644); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "flocd")
	if out, err := exec.Command("go", "build", "-o", bin, "floc/cmd/flocd").CombinedOutput(); err != nil {
		t.Fatalf("building flocd: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-replay", path, "-shards", "1", "-batch", "1", "-snapshot")
	var want, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &want, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("flocd -replay: %v\n%s", err, stderr.String())
	}

	cfg := engineConfig(8e6, 1, telemetry.NewRegistry(), nil) // flocd's -link default
	cfg.Batch = 1
	cfg.TraceCapacity = traceCap
	e, err := dataplane.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := newIngestor(e, nil)
	end, err := g.feedCapture(bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	e.Advance(end)
	e.Drain()
	snap := e.Snapshot()
	e.Close()
	st := e.Stats()
	got := snap.String() + fmt.Sprintf("dataplane: accepted=%d ring-drops=%d processed=%d\n",
		st.Accepted, st.RingDrops, st.Processed)
	if got != want.String() {
		t.Errorf("benchmark ingest and flocd -replay disagree\n--- benchmark\n%s--- flocd\n%s", got, want.String())
	}
	if g.internCalls < 300 {
		t.Errorf("only %d intern calls; the capture should exercise first sightings", g.internCalls)
	}
}

// TestGenerateDeterministic checks that the seed alone fixes the input.
func TestGenerateDeterministic(t *testing.T) {
	a, err := generate(smallMix(), 5).capture()
	if err != nil {
		t.Fatal(err)
	}
	b, err := generate(smallMix(), 5).capture()
	if err != nil {
		t.Fatal(err)
	}
	c, err := generate(smallMix(), 6).capture()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("same seed, different captures")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds, same capture")
	}
}

// TestGenerateLabels checks the class labels: flood packets carry
// FlagAttack, the classes partition the packets, and no legitimate path
// is flagged Attack by a one-shard engine.
func TestGenerateLabels(t *testing.T) {
	tr := generate(smallMix(), 9)
	var total int64
	for _, n := range tr.offered {
		if n == 0 {
			t.Errorf("a class has no packets: %v", tr.offered)
		}
		total += n
	}
	if total != int64(len(tr.pkts)) {
		t.Errorf("classes cover %d of %d packets", total, len(tr.pkts))
	}
	d, err := tr.datagrams()
	if err != nil {
		t.Fatal(err)
	}
	var h wire.Header
	for i := 0; i < d.len(); i++ {
		if _, err := wire.Decode(d.frame(i), &h); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		flood := h.Flags&wire.FlagAttack != 0
		if want := classOfSrc(h.Src) == classFlood; flood != want {
			t.Fatalf("frame %d: attack flag %v, class flood %v", i, flood, want)
		}
	}
	if flagged := legitFlagged(tr, 8e6); len(flagged) > 0 {
		t.Errorf("legitimate paths flagged Attack: %v", flagged)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metric table
// and the workload list.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames())
	}
	var listed []metricDef
	for _, m := range bj.EndToEnd {
		listed = append(listed, metricDef{m.Name, m.Unit, m.Better, true})
	}
	for _, m := range bj.PerLayer {
		listed = append(listed, metricDef{m.Name, m.Unit, m.Better, false})
	}
	if fmt.Sprint(listed) != fmt.Sprint(metricTable) {
		t.Errorf("BENCHMARK.json metrics differ from metricTable:\n%v\n%v", listed, metricTable)
	}
}

// TestRunSmoke runs a short traced benchmark run end to end.
func TestRunSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("generates and replays a full workload")
	}
	w := *lookup("datagram_sealed")
	w.mix = smallMix()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	res, err := runWorkload(&w, 1, 0.1, true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("run not correct: %+v", res)
	}
	if got := res.Metrics["ledger.verify_s"].Value; got <= 0 {
		t.Errorf("ledger.verify_s = %v, want > 0", got)
	}
}
