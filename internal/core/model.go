package core

import (
	"fmt"

	"deepqueuenet/internal/des"
	"deepqueuenet/internal/ptm"
)

// DeviceModel abstracts the trained per-device TM model the engine
// drives: device-batched sojourn prediction over every egress-port
// stream, goroutine-safe cloning for parallel workers, the training
// device degree, and structural validation. *ptm.PTM is the canonical
// implementation (via PTMModel); alternative backends and
// fault-injection mocks implement it directly.
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
	// Ports returns the training device degree K (a K-port model serves
	// devices of degree <= K). 0 means unconstrained.
	Ports() int
	// Validate reports whether the model is structurally sound. The
	// engine degrades devices whose model fails validation to the exact
	// FIFO-serialization fallback instead of running them.
	Validate() error
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

// Ports implements DeviceModel.
func (m PTMModel) Ports() int { return m.PTM.NumPorts }

// resolveModel returns the device model for switch sw: Cfg.DeviceFor
// first, then Cfg.Model wrapped in PTMModel. It returns nil when no
// model is configured for the device.
func (s *Sim) resolveModel(sw int) DeviceModel {
	if s.Cfg.DeviceFor != nil {
		if m := s.Cfg.DeviceFor(sw); m != nil {
			return m
		}
	}
	if s.Cfg.Model == nil {
		return nil
	}
	return PTMModel{s.Cfg.Model}
}

// resolveDeviceModels validates the model of every switch device once
// per run. Devices with a missing or invalid model, or a model trained
// for fewer ports than the device's degree, are degraded: they fall back
// to the exact transmission-time + FIFO-serialization device model, and
// the reason is recorded so Result can report the degraded set. Distinct
// devices sharing one model validate it once.
func (s *Sim) resolveDeviceModels(devices []int, byDevice map[int][]entry, pkts []*packet) (map[int]DeviceModel, map[int]string) {
	models := make(map[int]DeviceModel, len(devices))
	degraded := make(map[int]string)
	validated := make(map[DeviceModel]error)
	for _, d := range devices {
		es := byDevice[d]
		if len(es) == 0 || pkts[es[0].pkt].hops[es[0].hop].isHost {
			continue // hosts use the exact link model, no PTM involved
		}
		m := s.resolveModel(d)
		if m == nil {
			degraded[d] = "no device model configured"
			continue
		}
		verr, seen := validated[m]
		if !seen {
			verr = m.Validate()
			validated[m] = verr
		}
		if verr != nil {
			degraded[d] = verr.Error()
			continue
		}
		if k := m.Ports(); k > 0 && d < s.G.NumNodes() && s.G.Degree(d) > k {
			degraded[d] = fmt.Sprintf("model trained for %d ports cannot drive degree-%d device",
				k, s.G.Degree(d))
			continue
		}
		if s.Cfg.WrapDevice != nil {
			// The wrapper sees only validated models; wrapping happens
			// after the Validate/Ports gates so injected faults cannot
			// be mistaken for structural model defects.
			m = s.Cfg.WrapDevice(d, m)
			if m == nil {
				degraded[d] = "device wrapper returned nil model"
				continue
			}
		}
		models[d] = m
	}
	return models, degraded
}
