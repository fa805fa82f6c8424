package trace

import (
	"math"
	"math/rand"
	"time"
)

// messengerDayShape is the hour-of-day load profile (percent of peak)
// of the synthetic Messenger trace. Interactive messaging traffic has a
// deep night trough, a steep morning ramp, a sustained afternoon
// plateau, and an evening peak — four distinct operating levels, which
// is why the paper's initial tuning "produces 4 different workload
// classes" for this trace.
var messengerDayShape = [24]float64{
	13, 12, 11, 11, 12, 12, 13, 14, // 00-07 night trough
	35, 36, 34, 35, 36, 35, // 08-13 morning/midday shoulder
	64, 66, 65, 64, // 14-17 afternoon plateau
	95, 97, 96, 94, // 18-21 evening peak
	36, 34, // 22-23 wind-down (back to the shoulder level)
}

// hotmailDayShape is the hour-of-day profile of the synthetic HotMail
// trace: a night trough, a long working-day plateau, and a midday
// peak — three operating levels (the paper: "the initial profiling
// identified 3 workload classes for the HotMail traces, instead of 4
// for the Messenger traces"; and in the scale-up study "only during
// the peak load (two hours per day in the worst case)" is the
// extra-large type needed).
var hotmailDayShape = [24]float64{
	19, 18, 18, 17, 18, 19, 20, // 00-06 night trough
	48, 49, 50, // 07-09 morning plateau
	76, 78, 77, 76, // 10-13 midday peak
	49, 48, 47, 48, 46, 45, 47, 46, 44, 45, // 14-23 afternoon/evening plateau
}

// Weekend shapes (trace starts on Monday 09/07/2009; days 5 and 6 are
// Saturday and Sunday). "The load intensity of network services
// follows a repeating daily pattern, with lower request rates on
// weekend days." The weekend day revisits the *same operating levels*
// as weekdays but dwells longer in the low ones — real services drop
// total volume on weekends while the load still moves between the
// same plateaus, which is what lets DejaVu's weekday-learned classes
// keep hitting.
var messengerWeekendShape = [24]float64{
	13, 12, 11, 11, 12, 12, 13, 14, 13, 14, // 00-09 extended night
	35, 36, 34, 35, 36, 35, // 10-15 shoulder
	64, 66, 65, 64, 65, // 16-20 plateau
	96,     // 21    short evening peak
	36, 34, // 22-23 wind-down
}

var hotmailWeekendShape = [24]float64{
	19, 18, 18, 17, 18, 19, 20, 19, 18, // 00-08 extended night
	48, 49, // 09-10 plateau
	76, 78, // 11-12 short midday peak
	49, 48, 47, 48, 46, 45, 47, 46, 44, 45, 46, // 13-23 plateau
}

// synthDays is the synthetic traces' length in days: one learning day
// and six evaluation days, like the paper's.
const synthDays = 7

// SynthConfig tunes the synthetic MSN-style generators.
type SynthConfig struct {
	// DailyPhaseShift shifts each day's shape circularly by a random
	// -2..+2 hours (day 0, the learning day, is never shifted). Real
	// traces drift like this day to day, which is exactly what makes
	// the time-based Autopilot baseline mispredict (paper §4.1:
	// "Autopilot violates the SLO at least 28% of the time").
	DailyPhaseShift bool
	// Rng supplies noise; nil disables jitter and phase shifts.
	Rng *rand.Rand
}

// jitter is the relative day-to-day noise on each hourly sample. Kept
// small so hours of the same operating level cluster together, as the
// real traces do.
const jitter = 0.03

// Week selects one of the synthetic MSN weeks.
type Week int

const (
	// MessengerWeek is the Windows Live Messenger week.
	MessengerWeek Week = iota
	// HotMailWeek is the HotMail week, including the unforeseen surge
	// at day 3 (zero-based) hour 20 (paper §4.1: "during the 4th day,
	// DejaVu could not classify one workload with the desired
	// confidence, as it differs significantly from the previously
	// defined workload classes").
	HotMailWeek
)

// Name is the name of the week's trace.
func (w Week) Name() string {
	if w == HotMailWeek {
		return "hotmail"
	}
	return "messenger"
}

// Fill writes the week's raw hourly samples — before Normalize — over
// buf, reusing its capacity, and returns them. A caller that
// synthesizes many weeks passes the previous result back in and
// allocates once.
func (w Week) Fill(buf []float64, cfg SynthConfig) []float64 {
	weekday, weekend := &messengerDayShape, &messengerWeekendShape
	if w == HotMailWeek {
		weekday, weekend = &hotmailDayShape, &hotmailWeekendShape
	}
	loads := buf[:0]
	if cap(loads) < synthDays*24 {
		loads = make([]float64, 0, synthDays*24)
	}
	for day := 0; day < synthDays; day++ {
		shape := weekday
		if dow := day % 7; dow == 5 || dow == 6 {
			shape = weekend
		}
		shift := 0
		if cfg.DailyPhaseShift && cfg.Rng != nil && day > 0 {
			shift = cfg.Rng.Intn(5) - 2
		}
		for hour := 0; hour < 24; hour++ {
			v := shape[(hour+shift+24)%24] // shift is in [-2, 2]
			if cfg.Rng != nil {
				v *= 1 + cfg.Rng.NormFloat64()*jitter
			}
			if v < 0 {
				v = 0
			}
			loads = append(loads, v)
		}
	}
	if w == HotMailWeek && len(loads) >= 4*24 {
		// The raw hotmail shape tops out near 78, so placing the
		// surge at 100 before normalizing makes it the global peak:
		// regular days sit near 78% of peak while the surge hits
		// 100%, well beyond anything the learning day (day 0) saw.
		surgeHour := 3*24 + 20
		loads[surgeHour] = 100
		if surgeHour+1 < len(loads) {
			loads[surgeHour+1] = 96
		}
	}
	return loads
}

// synth returns the week normalised to peak 100.
func (w Week) synth(cfg SynthConfig) *Trace {
	t := &Trace{Name: w.Name(), Step: time.Hour, Loads: w.Fill(nil, cfg)}
	t.Normalize()
	return t
}

// Messenger synthesizes the week-long Windows Live Messenger trace.
func Messenger(cfg SynthConfig) *Trace { return MessengerWeek.synth(cfg) }

// HotMail synthesizes the week-long HotMail trace (HotMailWeek).
func HotMail(cfg SynthConfig) *Trace { return HotMailWeek.synth(cfg) }

// Sine generates the sinusoidal load of Figure 1: the workload volume
// varies "according to a sine-wave" to approximate diurnal variation,
// changing every step. min and max bound the load, period is the wave
// period, duration the total length.
func Sine(min, max float64, period, duration, step time.Duration) *Trace {
	if step <= 0 || duration <= 0 || period <= 0 {
		return &Trace{Name: "sine", Step: time.Minute}
	}
	n := int(duration / step)
	loads := make([]float64, n)
	mid := (min + max) / 2
	amp := (max - min) / 2
	for i := 0; i < n; i++ {
		phase := 2 * math.Pi * float64(i) * float64(step) / float64(period)
		loads[i] = mid + amp*math.Sin(phase)
	}
	return &Trace{Name: "sine", Step: step, Loads: loads}
}
