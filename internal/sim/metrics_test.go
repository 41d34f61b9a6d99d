package sim

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"ndpgpu/internal/config"
	"ndpgpu/internal/vm"
	"ndpgpu/internal/workloads"
)

// metricsLeg is one VADD run at the audit configuration, optionally with the
// metrics collector enabled: the machine plus everything the equivalence
// checks compare.
type metricsLeg struct {
	m      *Machine
	res    *Result
	mem    []byte
	export []byte // metrics JSON, nil when disabled
}

func runMetricsLeg(t *testing.T, cfg config.Config, mode Mode, enable bool) metricsLeg {
	t.Helper()
	mem := vm.New(cfg)
	w, err := workloads.Build("VADD", mem, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Launch(cfg, w.Kernel, mem, mode)
	if err != nil {
		t.Fatal(err)
	}
	if enable {
		m.EnableMetrics(0)
	}
	res, err := m.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Verify(); err != nil {
		t.Fatalf("verification failed: %v", err)
	}
	leg := metricsLeg{m: m, res: res, mem: mem.Snapshot()}
	if enable {
		var buf bytes.Buffer
		if err := m.Metrics().Snapshot().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		leg.export = buf.Bytes()
	}
	return leg
}

// TestMetricsDisabledNoOp pins the zero-cost-when-disabled contract: a run
// with the collector attached is bit-identical — cycles, elapsed time, the
// full statistics bundle, and the final memory image — to a run without it.
func TestMetricsDisabledNoOp(t *testing.T) {
	cfg := AuditConfig()
	off := runMetricsLeg(t, cfg, DynNDP, false)
	on := runMetricsLeg(t, cfg, DynNDP, true)

	if off.res.Cycles != on.res.Cycles {
		t.Errorf("cycles differ: off=%d on=%d", off.res.Cycles, on.res.Cycles)
	}
	if off.res.TimePS != on.res.TimePS {
		t.Errorf("elapsed time differs: off=%d on=%d", off.res.TimePS, on.res.TimePS)
	}
	if !reflect.DeepEqual(off.res.Stats, on.res.Stats) {
		t.Errorf("statistics bundles differ with metrics enabled")
	}
	if !bytes.Equal(off.mem, on.mem) {
		t.Errorf("final memory images differ with metrics enabled")
	}
	if len(on.export) == 0 {
		t.Fatal("enabled run produced no export")
	}
}

// TestMetricsExportDeterministic requires two runs of the same leg to export
// byte-identical JSON — samples, timestamps, span order, everything.
func TestMetricsExportDeterministic(t *testing.T) {
	cfg := AuditConfig()
	for _, mode := range []Mode{NaiveNDP, DynNDP} {
		a := runMetricsLeg(t, cfg, mode, true)
		b := runMetricsLeg(t, cfg, mode, true)
		if !bytes.Equal(a.export, b.export) {
			t.Errorf("%s: metrics export differs between identical runs", mode.Name)
		}
		if !bytes.Equal(a.mem, b.mem) {
			t.Errorf("%s: memory differs between identical runs", mode.Name)
		}
	}
}

// TestMetricsChromeTraceValid schema-checks the Chrome trace-event export of
// a VADD DynNDP run: process metadata, counter events on every series, and
// one complete-duration event per offload round trip with tid = issuing SM.
func TestMetricsChromeTraceValid(t *testing.T) {
	cfg := AuditConfig()
	leg := runMetricsLeg(t, cfg, DynNDP, true)

	var buf bytes.Buffer
	if err := leg.m.Metrics().Snapshot().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			PID  int      `json:"pid"`
			TID  int      `json:"tid"`
			TS   float64  `json:"ts"`
			Dur  *float64 `json:"dur"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit == "" {
		t.Error("missing displayTimeUnit")
	}
	var meta, counters, spans int
	for _, ev := range doc.TraceEvents {
		if ev.Name == "" || ev.Ph == "" {
			t.Fatalf("event missing name/ph: %+v", ev)
		}
		switch ev.Ph {
		case "M":
			meta++
		case "C":
			counters++
			if ev.TS < 0 {
				t.Fatalf("counter with negative ts: %+v", ev)
			}
		case "X":
			spans++
			if ev.Dur == nil || *ev.Dur <= 0 {
				t.Fatalf("span without positive dur: %+v", ev)
			}
			if ev.TID < 0 || ev.TID >= cfg.GPU.NumSMs {
				t.Fatalf("span tid %d outside SM range", ev.TID)
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if meta < 2 {
		t.Errorf("want >= 2 process_name metadata events, got %d", meta)
	}
	if counters == 0 {
		t.Error("no counter events in the chrome export")
	}
	// DynNDP VADD offloads blocks, so round trips must appear, one per ack.
	if want := leg.res.Stats.AckLatencyCount; int64(spans) != want {
		t.Errorf("span events = %d, want one per ack (%d)", spans, want)
	}
}

// TestMetricsSampleTimesPinEpochs checks the default sampler lands exactly on
// the Algorithm-1 epoch boundaries the GPU already pins, plus one final
// sample at quiescence.
func TestMetricsSampleTimesPinEpochs(t *testing.T) {
	cfg := AuditConfig()
	leg := runMetricsLeg(t, cfg, DynNDP, true)
	r := leg.m.Metrics().Snapshot()
	if r.IntervalCycles != cfg.NDP.EpochCycles {
		t.Fatalf("default interval = %d, want epoch %d", r.IntervalCycles, cfg.NDP.EpochCycles)
	}
	if len(r.TimesPS) == 0 {
		t.Fatal("no samples")
	}
	epochPS := r.IntervalCycles * r.PeriodPS
	for i, ts := range r.TimesPS[:len(r.TimesPS)-1] {
		if ts%epochPS != 0 {
			t.Fatalf("sample %d at %d ps is not an epoch boundary (epoch %d ps)", i, ts, epochPS)
		}
	}
	if last := r.TimesPS[len(r.TimesPS)-1]; last != int64(leg.res.TimePS) {
		t.Fatalf("final sample at %d, want run end %d", last, leg.res.TimePS)
	}
}
