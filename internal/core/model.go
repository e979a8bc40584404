package core

import (
	"deepqueuenet/internal/des"
	"deepqueuenet/internal/ptm"
)

// DeviceModel is the per-device model the engine drives: one batched
// sojourn prediction over every egress-port stream of a device, and a
// goroutine-safe copy for parallel workers. Every switch starts from
// PTMModel{Config.Model}; Config.WrapDevice may replace it per device
// (instrumentation, fault injection, the batching plane).
//
// Implementations must be comparable (pointer receivers or small structs
// of comparable fields): the engine keys its per-worker replica cache on
// the DeviceModel value.
type DeviceModel interface {
	DevicePredictor
	// CloneModel returns an independent copy safe to use from another
	// goroutine. Implementations without mutable inference state may
	// return the receiver.
	CloneModel() DeviceModel
}

// DevicePredictor is a device model's one inference call: all
// egress-port streams of one device, each sorted by arrival time, are
// predicted in a single call that may reuse the model's internal
// inference scratch and writes sojourns into the caller-owned
// PortStream.Out slices (grown when too small). A PortStream may also
// carry what the last call on it computed: pass the same PortStream for
// the same port on every call to let the model skip the work whose
// inputs did not change, or a fresh one to get none. Either way the
// sojourns are the same bits.
type DevicePredictor interface {
	PredictDevice(ports []ptm.PortStream, kind des.SchedKind)
}

// PTMModel adapts a *ptm.PTM to the DeviceModel interface; PredictDevice
// is promoted from *ptm.PTM, the zero-allocation batched inference path.
type PTMModel struct{ *ptm.PTM }

// CloneModel implements DeviceModel with a replica: it shares the
// network, so a port's memo survives a move between workers.
func (m PTMModel) CloneModel() DeviceModel { return PTMModel{m.PTM.Replica()} }

// resolveDeviceModels validates Cfg.Model once per run and hands every
// switch device its model. An invalid model degrades every switch, and
// so does a WrapDevice that returns nil for that switch: a degraded
// device falls back to the exact transmission-time + FIFO-serialization
// device model, and the reason is recorded so Result can report the
// degraded set. NewSim has already refused a model with fewer ports
// than the largest switch degree.
func (s *Sim) resolveDeviceModels(devices []int, byDevice map[int][]entry, pkts []*packet) (map[int]DeviceModel, map[int]string) {
	models := make(map[int]DeviceModel, len(devices))
	degraded := make(map[int]string)
	verr := s.Cfg.Model.Validate()
	for _, d := range devices {
		es := byDevice[d]
		if len(es) == 0 || pkts[es[0].pkt].hops[es[0].hop].isHost {
			continue // hosts use the exact link model, no PTM involved
		}
		if verr != nil {
			degraded[d] = verr.Error()
			continue
		}
		var m DeviceModel = PTMModel{s.Cfg.Model}
		if s.Cfg.WrapDevice != nil {
			// The wrapper sees only a validated model, so injected
			// faults cannot be mistaken for structural model defects.
			if m = s.Cfg.WrapDevice(d, m); m == nil {
				degraded[d] = "device wrapper returned nil model"
				continue
			}
		}
		models[d] = m
	}
	return models, degraded
}
