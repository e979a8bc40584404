package plane

import (
	"deepqueuenet/internal/core"
	"deepqueuenet/internal/des"
	"deepqueuenet/internal/ptm"
)

// Handle is a core.DeviceModel that forwards every prediction to the
// plane's warm worker for its underlying model. It is stateless (all
// inference scratch lives in the worker), so CloneModel returns the
// receiver: a job with N shards submits through one handle and no
// longer pays N model clones, N sessions, and N weight re-packs per
// run.
//
// The handle is the innermost wrapper: the serving layer wraps the
// resolved model with the plane first and applies fault-injection
// wrappers (chaos) on top, so injected faults fire in the submitting
// shard goroutine — where the engine's panic guard expects them — while
// the warm worker only ever runs the true model.
type Handle struct {
	p     *Plane
	inner core.DeviceModel
	tag   string
}

// Wrap returns a Handle submitting inner's predictions to p. tag names
// the submitting job for attribution (metrics and diagnostics). inner
// must be comparable — it keys the warm worker, so every job that
// resolves the same model instance shares one worker.
func (p *Plane) Wrap(inner core.DeviceModel, tag string) *Handle {
	return &Handle{p: p, inner: inner, tag: tag}
}

// PredictDevice implements core.DeviceModel: the engine's device call
// parks here until the worker fills every port's Out slice.
func (h *Handle) PredictDevice(ports []ptm.PortStream, kind des.SchedKind) {
	h.p.Predict(h.inner, ports, kind, h.tag)
}

// CloneModel implements core.DeviceModel. The handle carries no
// mutable inference state, so every shard shares it.
func (h *Handle) CloneModel() core.DeviceModel { return h }
