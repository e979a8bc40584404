// Command desim runs the packet-level discrete event simulator directly —
// the ns.py-equivalent substrate used for ground truth and PTM training
// traces.
//
//	desim -topo fattree16 -traffic map -load 0.6 -dur 0.01
//	desim -topo line4 -sched wfq:5,4 -trace visits.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"deepqueuenet/internal/experiments"
	"deepqueuenet/internal/metrics"
)

func main() {
	var spec experiments.Spec
	spec.RegisterFlags(flag.CommandLine)
	tracePath := flag.String("trace", "", "write per-device visit trace (CSV)")
	flag.Parse()

	sc, err := spec.Build()
	fatal(err)

	t0 := time.Now()
	net := sc.BuildDESNetwork()
	net.Run(sc.Duration + 1)
	elapsed := time.Since(t0)

	samples := net.PathDelays(true)
	total := 0
	for _, v := range samples {
		total += len(v)
	}
	fmt.Printf("simulated %s for %.4fs: %d RTT samples, %d events, wall %v\n",
		sc.Name, sc.Duration, total, net.Sim.Processed(), elapsed.Round(time.Millisecond))

	keys := make([]string, 0, len(samples))
	for k := range samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Println("path           n      meanRTT(us)  p99RTT(us)")
	for _, k := range keys {
		v := samples[k]
		fmt.Printf("%-14s %-6d %-12.2f %-12.2f\n",
			k, len(v), metrics.Mean(v)*1e6, metrics.Percentile(v, 99)*1e6)
	}
	drops := 0
	for _, d := range net.Trace.Drops {
		drops += d
	}
	if drops > 0 {
		fmt.Printf("drops: %d\n", drops)
	}

	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		fatal(err)
		defer f.Close()
		fmt.Fprintln(f, "device,pkt,flow,in_port,out_port,size,class,arrive,depart,dropped")
		for _, d := range net.Trace.Devices() {
			for _, v := range net.Trace.DeviceVisits(d) {
				fmt.Fprintf(f, "%d,%d,%d,%d,%d,%d,%d,%.9f,%.9f,%t\n",
					v.Device, v.PktID, v.FlowID, v.InPort, v.OutPort, v.Size, v.Class,
					v.Arrive, v.Depart, v.Dropped)
			}
		}
		fmt.Printf("wrote visit trace to %s\n", *tracePath)
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "desim: %v\n", err)
		os.Exit(1)
	}
}
