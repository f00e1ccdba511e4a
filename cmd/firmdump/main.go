// Command firmdump inspects firmware images and their executables: it
// lists the file tree, disassembles binaries, prints the lifted P-Code
// with semantic enrichment, and summarizes the identification features
// (anchors, handlers, parsing scores).
//
// Usage:
//
//	firmdump [-file /bin/cloudd] [-pcode] [-identify] image.img
package main

import (
	"flag"
	"fmt"
	"os"

	"firmres/internal/binfmt"
	"firmres/internal/facts"
	"firmres/internal/identify"
	"firmres/internal/image"
	"firmres/internal/isa"
	"firmres/internal/pcode"
	"firmres/internal/semantics"
)

func main() {
	file := flag.String("file", "", "dump a single executable (default: list the image)")
	showPcode := flag.Bool("pcode", false, "print lifted P-Code instead of assembly")
	showIdentify := flag.Bool("identify", false, "print handler-identification features")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: firmdump [-file path] [-pcode] [-identify] image.img")
		os.Exit(2)
	}
	if err := run(flag.Arg(0), *file, *showPcode, *showIdentify); err != nil {
		fmt.Fprintln(os.Stderr, "firmdump:", err)
		os.Exit(1)
	}
}

func run(imagePath, file string, showPcode, showIdentify bool) error {
	data, err := os.ReadFile(imagePath)
	if err != nil {
		return err
	}
	img, err := image.Unpack(data)
	if err != nil {
		return err
	}
	if file == "" {
		return listImage(img)
	}
	f, ok := img.File(file)
	if !ok {
		return fmt.Errorf("no file %q in image", file)
	}
	if !f.IsBinary() {
		fmt.Printf("%s: not a binary (%d bytes)\n", file, len(f.Data))
		return nil
	}
	bin, err := binfmt.Unmarshal(f.Data)
	if err != nil {
		return err
	}
	return dumpBinary(bin, showPcode, showIdentify)
}

func listImage(img *image.Image) error {
	fmt.Printf("%s (%s), %d files\n", img.Device, img.Version, len(img.Files))
	for _, f := range img.Files {
		kind := "data"
		switch {
		case f.IsBinary():
			kind = "binary"
		case f.IsScript():
			kind = "script"
		}
		exec := " "
		if f.IsExec() {
			exec = "x"
		}
		fmt.Printf("  %s %-7s %7d  %s\n", exec, kind, len(f.Data), f.Path)
	}
	return nil
}

func dumpBinary(bin *binfmt.Binary, showPcode, showIdentify bool) error {
	fmt.Printf("binary %s: text %d bytes @%#x, data %d bytes @%#x, %d imports, %d functions\n",
		bin.Name, len(bin.Text), bin.TextBase, len(bin.Data), bin.DataBase,
		len(bin.Imports), len(bin.Funcs))

	prog, err := pcode.LiftProgram(bin)
	if err != nil {
		return err
	}
	if showIdentify {
		res := identify.Analyze(prog)
		fmt.Printf("device-cloud: %v, %d handler(s)\n", res.IsDeviceCloud, len(res.Handlers))
		for _, h := range res.Handlers {
			fmt.Printf("  handler in=%s out=%s score=%.2f parse=%s async=%v root=%s\n",
				h.In.Op().Call.Name, h.Out.Op().Call.Name, h.Score,
				h.ParseFn.Name(), h.Async, h.Root.Name())
		}
		return nil
	}

	enricher := semantics.NewEnricher(facts.New(prog))
	for _, fn := range prog.Funcs {
		fmt.Printf("\n%s (arity %d, %d bytes @%#x):\n",
			fn.Name(), fn.Sym.NumParams, fn.Sym.Size, fn.Addr())
		if showPcode {
			for i := range fn.Ops {
				fmt.Printf("  %#06x.%d  %s\n", fn.Ops[i].Addr, fn.Ops[i].Seq,
					enricher.Op(fn, i))
			}
			continue
		}
		body := bin.Text[fn.Addr()-bin.TextBase : fn.Sym.End()-bin.TextBase]
		instrs, err := isa.DecodeAll(body)
		if err != nil {
			return err
		}
		for i, in := range instrs {
			addr := fn.Addr() + uint32(i*isa.InstrSize)
			note := ""
			if in.Op == isa.OpCallI && int(in.Imm) < len(bin.Imports) {
				note = "  ; " + bin.Imports[in.Imm].Name
			}
			if (in.Op == isa.OpLA || in.Op == isa.OpLI) && bin.InData(uint32(in.Imm)) {
				if s, ok := bin.StringAt(uint32(in.Imm)); ok {
					note = fmt.Sprintf("  ; %q", s)
				}
			}
			fmt.Printf("  %#06x  %s%s\n", addr, in, note)
		}
	}
	return nil
}
