package nn

import "math"

// Adam implements the Adam optimizer (Kingma & Ba) over a fixed parameter
// set, matching the paper's training setup (§5.2: Adam, fixed learning
// rate 0.001).
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	params                []*Param
	m, v                  [][]float64
	t                     int
}

// NewAdam returns an Adam optimizer over params with the given learning
// rate and default moment decay rates (0.9, 0.999).
func NewAdam(params []*Param, lr float64) *Adam {
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, params: params}
	a.m = make([][]float64, len(params))
	a.v = make([][]float64, len(params))
	for i, p := range params {
		a.m[i] = make([]float64, len(p.W.Data))
		a.v[i] = make([]float64, len(p.W.Data))
	}
	return a
}

// Step applies one Adam update using the accumulated gradients, then
// leaves the gradients untouched (callers typically ZeroGrads next).
func (a *Adam) Step() {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for i, p := range a.params {
		m, v := a.m[i], a.v[i]
		for j, g := range p.G.Data {
			m[j] = a.Beta1*m[j] + (1-a.Beta1)*g
			v[j] = a.Beta2*v[j] + (1-a.Beta2)*g*g
			mhat := m[j] / bc1
			vhat := v[j] / bc2
			p.W.Data[j] -= a.LR * mhat / (math.Sqrt(vhat) + a.Eps)
		}
	}
}
