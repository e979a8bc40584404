package des

import "sort"

// Visit records one packet's passage through one device: the paper's
// per-device ingress/egress packet traces, the unit of both PTM training
// data and packet-level visibility.
type Visit struct {
	PktID   uint64
	FlowID  int
	Device  int
	InPort  int
	OutPort int
	Size    int
	Class   int
	Weight  float64
	Proto   uint8
	Arrive  float64 // ingress time at the device
	Depart  float64 // egress (transmission complete) time; 0 when dropped
	Dropped bool
}

// Sojourn returns the device sojourn time (queueing + transmission).
func (v Visit) Sojourn() float64 { return v.Depart - v.Arrive }

// Collector accumulates per-device visits and per-host deliveries.
type Collector struct {
	ByDevice map[int][]Visit
	// Deliveries holds end-to-end records completed at hosts.
	Deliveries []Delivery
	// Drops counts dropped packets per device.
	Drops map[int]int

	// inFlight tracks visits between arrival and departure, keyed by
	// (device, packet ID). A packet is at one device at a time in a
	// single visit, so this key is unique.
	inFlight map[visitKey]Visit
}

type visitKey struct {
	device int
	pkt    uint64
}

// Delivery is an end-to-end record: one packet reaching its final
// destination host (or returning to its source on the echo leg).
type Delivery struct {
	PktID    uint64
	FlowID   int
	Src, Dst int
	SendTime float64
	RecvTime float64
	IsRTT    bool // true when this is the echo leg completing a round trip
	Hops     int
}

// Delay returns the measured end-to-end delay (one-way or round-trip
// depending on IsRTT).
func (d Delivery) Delay() float64 { return d.RecvTime - d.SendTime }

// NewCollector returns an empty trace collector.
func NewCollector() *Collector {
	return &Collector{
		ByDevice: make(map[int][]Visit),
		Drops:    make(map[int]int),
		inFlight: make(map[visitKey]Visit),
	}
}

func (c *Collector) arrive(v Visit) {
	if c == nil {
		return
	}
	c.inFlight[visitKey{v.Device, v.PktID}] = v
}

func (c *Collector) depart(device int, pkt uint64, t float64) {
	if c == nil {
		return
	}
	k := visitKey{device, pkt}
	v, ok := c.inFlight[k]
	if !ok {
		return
	}
	delete(c.inFlight, k)
	v.Depart = t
	c.ByDevice[device] = append(c.ByDevice[device], v)
}

func (c *Collector) drop(device int, pkt uint64) {
	if c == nil {
		return
	}
	k := visitKey{device, pkt}
	v, ok := c.inFlight[k]
	if !ok {
		return
	}
	delete(c.inFlight, k)
	v.Dropped = true
	c.ByDevice[device] = append(c.ByDevice[device], v)
	c.Drops[device]++
}

func (c *Collector) deliver(d Delivery) {
	if c == nil {
		return
	}
	c.Deliveries = append(c.Deliveries, d)
}

// DeviceVisits returns the completed visits of one device sorted by
// arrival time.
func (c *Collector) DeviceVisits(device int) []Visit {
	vs := append([]Visit(nil), c.ByDevice[device]...)
	sort.Slice(vs, func(i, j int) bool { return vs[i].Arrive < vs[j].Arrive })
	return vs
}

// Devices returns the device IDs with recorded visits, sorted.
func (c *Collector) Devices() []int {
	ids := make([]int, 0, len(c.ByDevice))
	for id := range c.ByDevice {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}
