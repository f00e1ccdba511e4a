package slices

import "firmres/internal/taint"

// VerbSegment exposes verbSegment to the package's external tests.
func VerbSegment(format string, arg *taint.Node) (string, bool) { return verbSegment(format, arg) }
