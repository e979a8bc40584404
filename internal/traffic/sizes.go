package traffic

import "deepqueuenet/internal/rng"

// ConstSize draws a constant packet size.
type ConstSize int

// Next implements SizeModel.
func (c ConstSize) Next() int { return int(c) }

// Mean implements SizeModel.
func (c ConstSize) Mean() float64 { return float64(c) }

// UniformSize draws sizes uniformly in [Lo, Hi].
type UniformSize struct {
	Lo, Hi int
	R      *rng.Rand
}

// Next implements SizeModel.
func (u *UniformSize) Next() int {
	if u.Hi <= u.Lo {
		return u.Lo
	}
	return u.Lo + u.R.Intn(u.Hi-u.Lo+1)
}

// Mean implements SizeModel.
func (u *UniformSize) Mean() float64 { return float64(u.Lo+u.Hi) / 2 }

// BimodalSize mixes two sizes (e.g. 64-byte ACK-like and 1500-byte
// MTU-like packets), the classic Internet packet-size shape.
type BimodalSize struct {
	Small, Large int
	PSmall       float64
	R            *rng.Rand
}

// Next implements SizeModel.
func (b *BimodalSize) Next() int {
	if b.R.Float64() < b.PSmall {
		return b.Small
	}
	return b.Large
}

// Mean implements SizeModel.
func (b *BimodalSize) Mean() float64 {
	return b.PSmall*float64(b.Small) + (1-b.PSmall)*float64(b.Large)
}

// ExpSize draws exponentially distributed sizes (mean MeanBytes,
// minimum 1 byte). With a constant line rate this yields exponential
// service times — the service model of the Appendix B queueing analysis.
type ExpSize struct {
	MeanBytes float64
	R         *rng.Rand
}

// Next implements SizeModel.
func (e *ExpSize) Next() int {
	s := int(e.R.Exp(1/e.MeanBytes) + 0.5)
	if s < 1 {
		s = 1
	}
	return s
}

// Mean implements SizeModel.
func (e *ExpSize) Mean() float64 { return e.MeanBytes }
