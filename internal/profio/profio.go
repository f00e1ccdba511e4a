// Package profio implements the firmres CLI's -pprof flag. The flag value
// selects one of two modes:
//
//   - a value containing ':' is a listen address — net/http/pprof is
//     served there for the duration of the run (the interactive mode:
//     attach `go tool pprof` while a long sweep is running);
//   - any other value is a file prefix — a CPU profile streams to
//     <prefix>.cpu.pprof while the run executes, and a heap profile is
//     written to <prefix>.heap.pprof when the run finishes, so
//     allocation work stays diagnosable after the process exits.
package profio

import (
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	_ "net/http/pprof" // registers the /debug/pprof handlers
)

// CPUSuffix and HeapSuffix are appended to the file prefix in file mode.
const (
	CPUSuffix  = ".cpu.pprof"
	HeapSuffix = ".heap.pprof"
)

// Start begins profiling per arg and returns the stop function to defer.
// In address mode the server runs detached and stop is a no-op (serving
// must never take the analysis down, so listen failures are reported
// through warn, not returned). In file-prefix mode a failure to create or
// start the CPU profile is returned; stop flushes the CPU profile and
// writes the heap profile, reporting write failures through warn.
func Start(arg string, warn func(format string, args ...any)) (stop func(), err error) {
	if strings.ContainsRune(arg, ':') {
		go func() {
			if err := http.ListenAndServe(arg, nil); err != nil {
				warn("pprof: %v", err)
			}
		}()
		return func() {}, nil
	}

	f, err := os.Create(arg + CPUSuffix)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("pprof: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			warn("pprof: %v", err)
		}
		writeHeap(arg+HeapSuffix, warn)
	}, nil
}

// writeHeap snapshots the live heap after a GC, so the profile shows what
// the finished run still retains rather than transient garbage.
func writeHeap(path string, warn func(format string, args ...any)) {
	f, err := os.Create(path)
	if err != nil {
		warn("pprof: %v", err)
		return
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		warn("pprof: %v", err)
	}
	if err := f.Close(); err != nil {
		warn("pprof: %v", err)
	}
}
