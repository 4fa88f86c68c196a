package bench

import (
	"flag"
	"strings"
	"testing"
	"time"
)

// Every value that used to panic in a generator, silently fall back to
// a default, or print an all-zero result is rejected by Validate.
func TestValidateRejectsHostileValues(t *testing.T) {
	cases := []struct {
		sets []string // key, value pairs applied to DefaultRun
		want string
	}{
		{[]string{"workload", "ycsb", "n", "-1"}, "records per transaction must be positive, got -1"},
		{[]string{"workload", "ycsb", "n", "0"}, "records per transaction must be positive, got 0"},
		{[]string{"warehouses", "-2"}, "warehouses must be positive, got -2"},
		{[]string{"warehouses", "0"}, "warehouses must be positive, got 0"},
		{[]string{"coords", "0"}, "coordinators must be positive, got 0"},
		{[]string{"coords", "-3"}, "coordinators must be positive, got -3"},
		{[]string{"duration", "1ms"}, "duration 1ms leaves nothing to measure after warmup 4ms"},
		{[]string{"duration", "0"}, "duration 0s leaves nothing to measure"},
		{[]string{"duration", "3ms", "warmup", "3ms"}, "leaves nothing to measure"},
		{[]string{"duration", "3ms", "warmup", "-2ms"}, "warmup must not be negative, got -2ms"},
		{[]string{"warmup", "0s"}, "warmup 0 means unset and takes DefaultRun's 4ms"},
		{[]string{"warmup", "0s", "duration", "2ms"}, "warmup 0 means unset and takes DefaultRun's 4ms"},
		{[]string{"seed", "0"}, "seed 0 means unset and takes DefaultRun's 1"},
		{[]string{"workload", "ycsb", "writes", "1.5"}, "write ratio must be in [0, 1], got 1.5"},
		{[]string{"workload", "ycsb", "writes", "-0.1"}, "write ratio must be in [0, 1], got -0.1"},
		{[]string{"workload", "smallbank", "theta", "-1"}, "theta must not be negative, got -1"},
		{[]string{"shards", "0"}, "shards must be in 1..64, got 0"},
		{[]string{"shards", "65"}, "shards must be in 1..64, got 65"},
		{[]string{"system", "oracle"}, `unknown system "oracle" (crest, crest-cell, crest-base, ford, motor)`},
		{[]string{"workload", "tcp-c"}, `unknown workload "tcp-c" (tpcc, smallbank, ycsb)`},
		{[]string{"placement", "striped"}, `unknown placement "striped" (hash, hotspot, modulo, range)`},
	}
	for _, tc := range cases {
		spec := DefaultRun()
		for i := 0; i < len(tc.sets); i += 2 {
			if err := spec.Set(tc.sets[i], tc.sets[i+1]); err != nil {
				t.Fatal(err)
			}
		}
		err := spec.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: Validate() = %v, want %q", tc.sets, err, tc.want)
		}
	}
	if err := DefaultRun().Validate(); err != nil {
		t.Fatalf("DefaultRun does not validate: %v", err)
	}
	// Resolve validates too, after resolving zero fields to defaults.
	if _, _, err := (RunSpec{Coordinators: -3}).Resolve(); err == nil {
		t.Fatal("Resolve accepted -3 coordinators")
	}
	var spec RunSpec
	if err := spec.Set("cores", "4"); err == nil {
		t.Fatal("unknown key accepted")
	}
	if err := spec.Set("coords", "many"); err == nil {
		t.Fatal("unparsable value accepted")
	}
}

// Every key Set from its own rendered value (the flag default -h shows)
// is the identity, so a preset installed as flag defaults and read back
// through Set is the preset.
func TestRunKeysRoundTrip(t *testing.T) {
	preset := DefaultRun()
	fs := flag.NewFlagSet("", flag.ContinueOnError)
	preset.Flags(fs)
	got := RunSpec{MemNodes: preset.MemNodes, CompNodes: preset.CompNodes}
	for name := range runKeys {
		if err := got.Set(name, fs.Lookup(name).DefValue); err != nil {
			t.Fatal(err)
		}
	}
	if got != preset {
		t.Fatalf("round trip changed the preset:\n got %+v\nwant %+v", got, preset)
	}
}

// Zero fields resolve to DefaultRun's; workload knobs resolve as a group,
// so a workload with any knob set is literal.
func TestRunSpecDefaults(t *testing.T) {
	want := DefaultRun()
	if got := (RunSpec{}).defaulted(); got != want {
		t.Fatalf("zero spec resolved to %+v", got)
	}
	want.Workload.Kind, want.Coordinators, want.Duration = WLYCSB, 24, 5*time.Millisecond
	got := RunSpec{Workload: WorkloadSpec{Kind: WLYCSB}, Coordinators: 24, Duration: 5 * time.Millisecond}.defaulted()
	if got != want {
		t.Fatalf("kind-only workload resolved to %+v", got)
	}
	uniform := RunSpec{Workload: YCSBSpec(0, 0.5, 4)}.defaulted()
	if uniform.Workload != YCSBSpec(0, 0.5, 4) {
		t.Fatalf("literal workload was defaulted: %+v", uniform.Workload)
	}
}
