package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"repro/internal/services"
	"repro/internal/trace"
)

// scenarioDigest hashes everything GenerateScenario emits for one
// fleet: every spec field, the float64 bits, length and capacity of
// every learn and run sample window, and the Interference and MixFn
// schedules read at each run hour.
func scenarioDigest(t *testing.T, cfg ScenarioConfig) string {
	t.Helper()
	specs, err := GenerateScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	num := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	str := func(s string) {
		num(uint64(len(s)))
		h.Write([]byte(s))
	}
	mix := func(m services.Mix) {
		str(m.Name)
		for _, f := range []float64{m.ReadFraction, m.CPUWeight, m.FPWeight, m.MemWeight, m.IOWeight, m.DemandFactor} {
			num(math.Float64bits(f))
		}
	}
	window := func(tr *trace.Trace) {
		str(tr.Name)
		num(uint64(tr.Step))
		num(uint64(len(tr.Loads)))
		num(uint64(cap(tr.Loads)))
		for _, l := range tr.Loads {
			num(math.Float64bits(l))
		}
	}
	num(uint64(len(specs)))
	for _, s := range specs {
		str(s.Name)
		str(s.Service.Name())
		window(s.LearnTrace)
		window(s.RunTrace)
		mix(s.Mix)
		num(uint64(len(s.MixShifts)))
		for _, m := range s.MixShifts {
			num(uint64(m.At))
			mix(m.Mix)
		}
		num(math.Float64bits(s.HostCapacity))
		num(uint64(s.JoinAt))
		num(uint64(s.LeaveAt))
		num(uint64(s.Seed))
		// Each function field: whether it is set, then its value at
		// every run hour.
		num(boolBit(s.Interference != nil))
		num(boolBit(s.MixFn != nil))
		for hr := 0; hr < cfg.Days*24; hr++ {
			at := time.Duration(hr) * time.Hour
			if s.Interference != nil {
				num(math.Float64bits(s.Interference(at)))
			}
			if s.MixFn != nil {
				mix(s.MixFn(at))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// TestGenerateScenarioOracle pins GenerateScenario's whole output at
// seed 42 — every kind, Days 1 and 6, interference and homogeneity
// each off and on — to the digests recorded at the commit before the
// generator was rewritten to fill one fleet-wide arena, so the rewrite
// is held to bit-identical output. Each digest covers the four
// interference × homogeneity fleets of one kind and Days, hashed in
// that order; the last one covers a fleet large enough for four-digit
// VM names.
func TestGenerateScenarioOracle(t *testing.T) {
	golden := map[string]string{
		"baseline/days=1":         "594052844ebd49de66c5a3d275b67ccf2da2451e27303003d8f4f57cae80bcd2",
		"baseline/days=6":         "e644bf0111a71ac4cb21987322f44b8c82494e3f68e0e002089652e347d39a18",
		"flash-crowd/days=1":      "ce5976cd6d2898110386898d1f27e331dd766ed4a632409b5fe1f59383dec6cf",
		"flash-crowd/days=6":      "735b1db756d13462c862d9229c88f63aaaa1daf3a3c30f7bc2ab5a1d2c13a542",
		"churn/days=1":            "36fe4d815ae111328f3624dd9abeea2bea7bf7c266f90586bb602629cf93f1ac",
		"churn/days=6":            "57664a65a51e017e54c4f89dd4c31e0446a5edf3aa2504d484358d78bfaa5ea9",
		"workload-shift/days=1":   "2f97e29cd38a17af17c95216eb80d36e7f9098214238897da05a2e402929ee24",
		"workload-shift/days=6":   "f6d73b34305bdfe247cd8b11bf626b91dac4537cc20f75eb98bd99f9f6d6bb54",
		"hardware-gen/days=1":     "19e5aa01c35aeb9e49e1d9cca3694899910c4a76942ad6ea81f0f8b307767746",
		"hardware-gen/days=6":     "d1ced2b7ab86c4330c54db0d1b24db16f948e481d309fbe70508532b2523a658",
		"trace-replay/days=1":     "2395b7e300e23eb19707a19607ae5c6ebfaff46a5758b52c59ceb4aa11253454",
		"trace-replay/days=6":     "4bb2cb00c3be0061c8c9a7205da8d229fcd773845f107838d5a52b88c9942b94",
		"workload-shift/vms=1003": "78460dd9b7ccb66fb9a2f27dff49efeb5747ca89fb3ee02e157d97793a0d58c0",
	}
	for _, kind := range append([]ScenarioKind{KindBaseline}, AdversarialKinds()...) {
		for _, days := range []int{1, 6} {
			name := kind.String() + "/days=" + strconv.Itoa(days)
			h := sha256.New()
			for _, interference := range []bool{false, true} {
				for _, homogeneous := range []bool{false, true} {
					h.Write([]byte(scenarioDigest(t, ScenarioConfig{
						Rng:          rand.New(rand.NewSource(42)),
						Kind:         kind,
						VMs:          13,
						Days:         days,
						Interference: interference,
						Homogeneous:  homogeneous,
					})))
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != golden[name] {
				t.Errorf("%s: digest %s, recorded %s", name, got, golden[name])
			}
		}
	}
	got := scenarioDigest(t, ScenarioConfig{Rng: rand.New(rand.NewSource(42)), Kind: KindWorkloadShift, VMs: 1003, Days: 1, Interference: true})
	if want := golden["workload-shift/vms=1003"]; got != want {
		t.Errorf("workload-shift/vms=1003: digest %s, recorded %s", got, want)
	}
}
