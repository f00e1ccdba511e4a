// Command cloudsim runs the simulated vendor cloud of one corpus device, or
// with -all one cloud per device that has one. Each cloud is an HTTP
// service and an MQTT broker on its own ports with the device's seeded
// access-control policies; cloudsim prints each cloud's addresses and
// endpoints, then every access decision labelled with its device.
//
// Usage:
//
//	cloudsim [-device N] [-all]
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"firmres/internal/cloud"
	"firmres/internal/corpus"
)

func main() {
	device := flag.Int("device", 17, "corpus device ID to host (1-20)")
	all := flag.Bool("all", false, "host every binary device's cloud, each on its own ports")
	flag.Parse()
	if err := run(*device, *all); err != nil {
		fmt.Fprintln(os.Stderr, "cloudsim:", err)
		os.Exit(1)
	}
}

// host is one device's started cloud.
type host struct {
	spec  *cloud.Spec
	cloud *cloud.Cloud
}

// startFleet starts one cloud per device: every device that has one when
// all is set, device alone otherwise. On error it closes what it started.
func startFleet(device int, all bool) ([]host, error) {
	var clouds []*cloud.Spec
	if all {
		for _, d := range corpus.Devices() {
			if !d.ScriptOnly {
				clouds = append(clouds, corpus.CloudSpec(d))
			}
		}
	} else {
		if device < 1 || device > corpus.NumDevices {
			return nil, fmt.Errorf("device %d out of range 1-%d", device, corpus.NumDevices)
		}
		d := corpus.Device(device)
		if d.ScriptOnly {
			return nil, fmt.Errorf("device %d is script-only and hosts no simulated cloud", device)
		}
		clouds = append(clouds, corpus.CloudSpec(d))
	}
	fleet := make([]host, 0, len(clouds))
	for _, s := range clouds {
		c := cloud.New(s)
		if _, _, err := c.Start(); err != nil {
			closeFleet(fleet)
			return nil, fmt.Errorf("device %d: %w", s.DeviceID, err)
		}
		fleet = append(fleet, host{spec: s, cloud: c})
	}
	return fleet, nil
}

func closeFleet(fleet []host) {
	for _, h := range fleet {
		h.cloud.Close()
	}
}

func run(device int, all bool) error {
	fleet, err := startFleet(device, all)
	if err != nil {
		return err
	}
	defer closeFleet(fleet)
	for _, h := range fleet {
		fmt.Printf("cloudsim: device %d: HTTP on %s, MQTT on %s\n",
			h.spec.DeviceID, h.cloud.Addr(), h.cloud.MQTTAddr())
		for _, ep := range h.spec.Endpoints {
			mark := " "
			if ep.Vulnerable {
				mark = "!"
			}
			fmt.Printf(" %s %-45s policy=%s\n", mark, ep.Path, ep.Policy)
		}
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	seen := make([]int, len(fleet))
	ticker := time.NewTicker(500 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			fmt.Println("\ncloudsim: shutting down")
			return nil
		case <-ticker.C:
			for i, h := range fleet {
				log := h.cloud.AccessLog()
				for ; seen[i] < len(log); seen[i]++ {
					a := log[seen[i]]
					fmt.Printf("access: device=%d endpoint=%s class=%q granted=%v\n",
						h.spec.DeviceID, a.Endpoint, a.Class, a.Granted)
				}
			}
		}
	}
}
