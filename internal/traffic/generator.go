// Package traffic implements the paper's traffic generation utilities
// (TGUtil): Poisson, On-Off, and MAP arrival processes, packet-size
// models, synthetic stand-ins for the BC-pAug89 and Anarchy public
// traces, and MAP fitting (Appendix A).
//
// Every generator implements des.ArrivalSource: NextArrival returns the
// gap to the next packet and its size in bytes.
package traffic

import (
	"deepqueuenet/internal/rng"
)

// Generator produces a packet arrival process. It matches
// des.ArrivalSource structurally so generators plug into hosts directly.
type Generator interface {
	NextArrival() (gap float64, size int)
}

// SizeModel draws packet sizes in bytes.
type SizeModel interface {
	Next() int
	Mean() float64
}

// Poisson is a Poisson arrival process with the given packet rate.
type Poisson struct {
	Rate  float64 // packets per second
	Sizes SizeModel
	R     *rng.Rand
}

// NewPoisson returns a Poisson process generator.
func NewPoisson(rate float64, sizes SizeModel, r *rng.Rand) *Poisson {
	if rate <= 0 {
		panic("traffic: Poisson rate must be positive")
	}
	return &Poisson{Rate: rate, Sizes: sizes, R: r}
}

// NextArrival implements Generator.
func (p *Poisson) NextArrival() (float64, int) {
	return p.R.Exp(p.Rate), p.Sizes.Next()
}

// OnOff is a slotted on-off process (§6.1: transition probability 0.2 for
// the On state and 0.5 for the Off state). During On slots packets arrive
// as a Poisson process at PeakRate; Off slots are silent. State
// transitions are evaluated once per slot, so sojourns are geometric.
type OnOff struct {
	PeakRate float64 // packets/s while On
	POnToOff float64 // per-slot probability of leaving On
	POffToOn float64 // per-slot probability of leaving Off
	SlotLen  float64 // seconds per slot
	Sizes    SizeModel
	R        *rng.Rand

	on       bool
	slotEnd  float64 // remaining time in the current state run
	pendingT float64 // absolute process-local clock
}

// NewOnOff returns an on-off generator with the paper's default
// transition probabilities when pOnToOff/pOffToOn are zero.
func NewOnOff(peakRate float64, pOnToOff, pOffToOn, slotLen float64, sizes SizeModel, r *rng.Rand) *OnOff {
	if peakRate <= 0 {
		panic("traffic: OnOff peak rate must be positive")
	}
	if pOnToOff <= 0 {
		pOnToOff = 0.2
	}
	if pOffToOn <= 0 {
		pOffToOn = 0.5
	}
	if slotLen <= 0 {
		slotLen = 10 / peakRate // ~10 packets per On slot on average
	}
	return &OnOff{PeakRate: peakRate, POnToOff: pOnToOff, POffToOn: pOffToOn,
		SlotLen: slotLen, Sizes: sizes, R: r, on: r.Float64() < 0.5}
}

// geomSlots samples a geometric number of slots with exit probability p.
func (o *OnOff) geomSlots(p float64) float64 {
	n := 1
	for o.R.Float64() >= p {
		n++
		if n > 1e6 {
			break
		}
	}
	return float64(n) * o.SlotLen
}

// NextArrival implements Generator.
func (o *OnOff) NextArrival() (float64, int) {
	gap := 0.0
	for {
		if o.slotEnd <= 0 {
			if o.on {
				o.slotEnd = o.geomSlots(o.POnToOff)
			} else {
				o.slotEnd = o.geomSlots(o.POffToOn)
			}
		}
		if !o.on {
			gap += o.slotEnd
			o.slotEnd = 0
			o.on = true
			continue
		}
		d := o.R.Exp(o.PeakRate)
		if d <= o.slotEnd {
			o.slotEnd -= d
			gap += d
			return gap, o.Sizes.Next()
		}
		gap += o.slotEnd
		o.slotEnd = 0
		o.on = false
	}
}
