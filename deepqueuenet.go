// Package deepqueuenet is a from-scratch Go implementation of
// DeepQueueNet (Yang et al., SIGCOMM 2022): a scalable, generalized
// network performance estimator with packet-level visibility.
//
// DeepQueueNet replaces whole-network ML estimators with device-scale
// learned models: each switch is an operator on packet time series whose
// forwarding is exact (a 0/1 tensor) and whose traffic-management sojourn
// is predicted by a trained BLSTM+attention model (the PTM). Devices are
// composed 1:1 with the target topology and executed with the Iterative
// Re-Sequencing Algorithm (IRSA), which converges within diameter(G)
// iterations.
//
// The package is a facade over the internal subsystems:
//
//   - a packet-level discrete event simulator (ground truth + training
//     traces) with FIFO/SP/WRR/DRR/WFQ schedulers,
//   - traffic generation (Poisson, On-Off, MAP with fitting, synthetic
//     BC-pAug89/Anarchy-like traces),
//   - topology builders (Line, torus, FatTree, Abilene, GÉANT),
//   - the PTM training pipeline (DUtil) with SEC error correction,
//   - the DeepQueueNet engine (DLib, SInit, SRun/IRSA),
//   - a queueing-theoretic LDQBD solver (Appendix B), and
//   - RouteNet-like and MimicNet-like baselines.
//
// Quick start:
//
//	model, _, err := deepqueuenet.TrainDeviceModel(deepqueuenet.DeviceTrainSpec{Ports: 4})
//	g := deepqueuenet.Line(4, deepqueuenet.DefaultLAN)
//	sim, err := deepqueuenet.NewSimulation(g, deepqueuenet.SimConfig{Model: model, Echo: true})
//	... sim.AddFlow(...) ...
//	res, err := sim.Run(0.01)
package deepqueuenet

import (
	"deepqueuenet/internal/core"
	"deepqueuenet/internal/des"
	"deepqueuenet/internal/guard"
	"deepqueuenet/internal/metrics"
	"deepqueuenet/internal/ptm"
	"deepqueuenet/internal/topo"
	"deepqueuenet/internal/traffic"
	"deepqueuenet/internal/visibility"
)

// Topology model re-exports.
type (
	// Graph is a network topology (hosts, switches, capacity/delay edges).
	Graph = topo.Graph
	// FlowDef names one routed flow.
	FlowDef = topo.FlowDef
	// Routing holds per-flow paths (Forward/Echo legs, by flow position)
	// and the forwarding tables they install.
	Routing = topo.Routing
	// RouteLeg is one direction of a routed flow: its node sequence and
	// the egress port taken at each step.
	RouteLeg = topo.Leg
	// LinkParams bundles link rate and propagation delay.
	LinkParams = topo.LinkParams
	// FatTreeParams is the Table 3 FatTree parameterization.
	FatTreeParams = topo.FatTreeParams
)

// DefaultLAN is the paper's evaluation link setting (10 Gb/s).
var DefaultLAN = topo.DefaultLAN

// FatTree size presets from Table 3.
var (
	FatTree16  = topo.FatTree16
	FatTree64  = topo.FatTree64
	FatTree128 = topo.FatTree128
)

// Topology builders. These panic on invalid parameters; the Build*
// variants below are the error-returning forms for library consumers.
var (
	Line      = topo.Line
	Torus2D   = topo.Torus2D
	FatTree   = topo.FatTree
	LeafSpine = topo.LeafSpine
	Abilene   = topo.Abilene
	Geant     = topo.Geant
	Star      = topo.Star
	Dumbbell  = topo.Dumbbell
)

// Error-returning topology builders: constructor panics are converted to
// errors and the resulting graph is validated (so e.g. zero-rate
// LinkParams fail at build time with a descriptive error).
var (
	BuildLine      = topo.BuildLine
	BuildTorus2D   = topo.BuildTorus2D
	BuildFatTree   = topo.BuildFatTree
	BuildLeafSpine = topo.BuildLeafSpine
	BuildAbilene   = topo.BuildAbilene
	BuildGeant     = topo.BuildGeant
	BuildStar      = topo.BuildStar
	BuildDumbbell  = topo.BuildDumbbell
	// BuildTopology converts any panicking graph-construction function
	// into an error-returning, validated build.
	BuildTopology = topo.Try
)

// Scheduler configuration re-exports.
type (
	// SchedConfig describes a traffic-management discipline.
	SchedConfig = des.SchedConfig
	// SchedKind enumerates FIFO/SP/WRR/DRR/WFQ.
	SchedKind = des.SchedKind
)

// Scheduler kinds.
const (
	FIFO = des.FIFO
	SP   = des.SP
	WRR  = des.WRR
	DRR  = des.DRR
	WFQ  = des.WFQ
)

// Traffic generation re-exports.
type (
	// Generator produces packet arrivals.
	Generator = traffic.Generator
	// SizeModel draws packet sizes.
	SizeModel = traffic.SizeModel
	// TrafficModel names an arrival-process family.
	TrafficModel = traffic.Model
	// MAP is a Markovian arrival process.
	MAP = traffic.MAP
)

// Traffic models (§6.1).
const (
	ModelPoisson = traffic.ModelPoisson
	ModelOnOff   = traffic.ModelOnOff
	ModelMAP     = traffic.ModelMAP
	ModelBCLike  = traffic.ModelBCLike
	ModelAnarchy = traffic.ModelAnarchyLike
)

// Traffic helpers.
var (
	NewTrafficGenerator = traffic.NewGenerator
	PacketRateFor       = traffic.PacketRateFor
	FitMAP2             = traffic.FitMAP2
	ExampleMAP2         = traffic.ExampleMAP2
)

// Packet-size models.
type (
	// BimodalSize mixes small and large packets.
	BimodalSize = traffic.BimodalSize
	// UniformSize draws sizes uniformly.
	UniformSize = traffic.UniformSize
)

// ConstSize returns a constant packet-size model.
func ConstSize(bytes int) SizeModel { return traffic.ConstSize(bytes) }

// Device model (PTM) re-exports.
type (
	// DeviceModel is a trained packet-level TM model.
	DeviceModel = ptm.PTM
	// DeviceTrainSpec configures DUtil training.
	DeviceTrainSpec = ptm.TrainSpec
	// DeviceTrainReport summarizes a training run.
	DeviceTrainReport = ptm.TrainReport
	// DeviceArch is the PTM architecture (Table 1).
	DeviceArch = ptm.Arch
)

// PaperArch reproduces the Table 1 hyper-parameters; DefaultArch is the
// CPU-friendly configuration.
var (
	PaperArch   = ptm.PaperArch
	DefaultArch = ptm.DefaultArch
)

// TrainDeviceModel runs the DUtil pipeline: single-device DES traces →
// windowed dataset → BLSTM+attention training → SEC fitting.
func TrainDeviceModel(spec DeviceTrainSpec) (*DeviceModel, DeviceTrainReport, error) {
	return ptm.TrainDevice(spec)
}

// LoadDeviceModel reads a trained model saved with (*DeviceModel).Save.
var LoadDeviceModel = ptm.Load

// Simulation engine re-exports.
type (
	// SimConfig configures a DeepQueueNet simulation.
	SimConfig = core.Config
	// Simulation is a composed DeepQueueNet model (SInit output).
	Simulation = core.Sim
	// SimResult is the IRSA execution output.
	SimResult = core.Result
	// FlowSpec attaches a generator and scheduling class to a flow.
	FlowSpec = core.FlowSpec
	// DLib stores trained device models.
	DLib = core.DLib
	// EngineDeviceModel abstracts the per-device model the engine
	// drives; implement it and return it from SimConfig.WrapDevice to
	// instrument a device or put another backend in front of it.
	EngineDeviceModel = core.DeviceModel
	// PTMDeviceModel adapts a *DeviceModel (PTM) to EngineDeviceModel.
	PTMDeviceModel = core.PTMModel
)

// Robustness re-exports: the structured errors RunContext and Run return
// on cancellation, shard panics, and divergence.
type (
	// ShardError is a panic recovered inside one inference shard.
	ShardError = guard.ShardError
	// DivergenceError reports a non-converging IRSA run with its delta
	// trace.
	DivergenceError = guard.DivergenceError
)

// Cancellation sentinels: errors returned by (*Simulation).RunContext
// match these via errors.Is when the context is canceled or its deadline
// passes. The underlying context error stays in the chain.
var (
	ErrCanceled = guard.ErrCanceled
	ErrDeadline = guard.ErrDeadline
)

// NewDLib returns an empty device model library.
var NewDLib = core.NewDLib

// NewSimulation composes a DeepQueueNet model for graph g: SInit. The
// routing is computed here from the flows registered in cfg; use
// core.NewSim directly for a precomputed Routing.
func NewSimulation(g *Graph, rt *Routing, cfg SimConfig) (*Simulation, error) {
	return core.NewSim(g, rt, cfg)
}

// DES (ground truth) re-exports.
type (
	// DESNetwork is an instantiated discrete-event network.
	DESNetwork = des.Network
	// DESConfig configures DES instantiation.
	DESConfig = des.NetConfig
	// DESFlow is a flow injected at a DES host.
	DESFlow = des.Flow
	// Delivery is one end-to-end packet record.
	Delivery = des.Delivery
	// Visit is one per-device packet trace record.
	Visit = des.Visit
)

// BuildDES wires a discrete-event network for graph g (the ground-truth
// simulator and training-trace generator).
var BuildDES = des.Build

// PathKey formats the per-path sample key shared by DES and DQN results.
var PathKey = des.PathKey

// Metrics re-exports.
type (
	// PathSamples maps path keys to delay samples.
	PathSamples = metrics.PathSamples
	// PathStats are per-path summary statistics.
	PathStats = metrics.PathStats
	// Summary is the paper's four-way w1 comparison.
	Summary = metrics.Summary
)

// Metric functions.
var (
	W1           = metrics.W1
	NormW1       = metrics.NormW1
	Pearson      = metrics.Pearson
	PearsonCI    = metrics.PearsonCI
	Compare      = metrics.Compare
	CompareStats = metrics.CompareStats
	Percentile   = metrics.Percentile
)

// Packet-level visibility queries over per-device traces.
type (
	// DeviceReport summarizes a device's traffic and delay contribution.
	DeviceReport = visibility.DeviceReport
	// HopContribution is a device's share of one flow's delay.
	HopContribution = visibility.HopContribution
)

// Visibility helpers: post-hoc queries over simulation output traces.
var (
	DeviceBreakdown = visibility.DeviceBreakdown
	Bottleneck      = visibility.Bottleneck
	FlowBreakdown   = visibility.FlowBreakdown
	HeavyHitters    = visibility.HeavyHitters
)
