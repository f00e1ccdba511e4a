// Command firmgen generates the synthetic firmware corpus to disk: one
// packed image per device (device01.img ... device22.img) plus a manifest.
//
// With -stripped, a symbol-stripped twin of each image
// (deviceNN.stripped.img) is written alongside the symbol-full one: every
// binary executable loses its function symbols, data symbols, local
// variables, and import names — the input the firmres symbol-recovery
// pass is built for.
//
// Usage:
//
//	firmgen [-out dir] [-device N] [-stripped]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"firmres/internal/corpus"
)

func main() {
	out := flag.String("out", "corpus-out", "output directory")
	device := flag.Int("device", 0, "generate a single device (1-22); 0 = all")
	stripped := flag.Bool("stripped", false, "also write a symbol-stripped twin of each image (deviceNN.stripped.img)")
	flag.Parse()
	if err := run(*out, *device, *stripped); err != nil {
		fmt.Fprintln(os.Stderr, "firmgen:", err)
		os.Exit(1)
	}
}

func run(out string, device int, stripped bool) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	devices := corpus.Devices()
	if device != 0 {
		if device < 1 || device > len(devices) {
			return fmt.Errorf("device %d out of range 1-%d", device, len(devices))
		}
		devices = devices[device-1 : device]
	}
	manifest, err := os.Create(filepath.Join(out, "MANIFEST"))
	if err != nil {
		return err
	}
	defer manifest.Close()
	for _, d := range devices {
		img, err := corpus.BuildImage(d)
		if err != nil {
			return fmt.Errorf("device %d: %w", d.ID, err)
		}
		name := fmt.Sprintf("device%02d.img", d.ID)
		data := img.Pack()
		if err := os.WriteFile(filepath.Join(out, name), data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(manifest, "%s\t%s %s\t%s\t%d bytes\n",
			name, d.Vendor, d.Model, d.Version, len(data))
		fmt.Printf("wrote %s (%s %s, %d files, %d bytes)\n",
			name, d.Vendor, d.Model, len(img.Files), len(data))
		if !stripped {
			continue
		}
		if err := corpus.StripImage(img); err != nil {
			return fmt.Errorf("device %d: strip: %w", d.ID, err)
		}
		sname := fmt.Sprintf("device%02d.stripped.img", d.ID)
		sdata := img.Pack()
		if err := os.WriteFile(filepath.Join(out, sname), sdata, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(manifest, "%s\t%s %s\t%s\t%d bytes\tstripped\n",
			sname, d.Vendor, d.Model, d.Version, len(sdata))
		fmt.Printf("wrote %s (%s %s, stripped, %d bytes)\n", sname, d.Vendor, d.Model, len(sdata))
	}
	return nil
}
