package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Progress renders batch-run progress from span events: images done/total,
// the stage each in-flight image is in, per-image wall-clock, and an ETA
// extrapolated from the completed images. It is an Observer — attach it to
// the run's Recorder and it needs no other wiring.
//
// One line is written per completed image (plain lines, not cursor
// rewrites, so logs captured in CI stay readable), in the order the
// images completed and by one call at a time, so w need not be safe for
// concurrent use.
type Progress struct {
	w     io.Writer
	total int
	start time.Time

	mu      sync.Mutex
	done    int
	active  map[int64]string // image span ID → its current stage
	pending []string         // rendered lines not yet written, in order
	writing bool             // a SpanEnd call is writing pending out
}

// NewProgress builds a progress reporter for a run of total images; 0
// means the total is unknown, and lines carry no percentage or ETA.
func NewProgress(w io.Writer, total int) *Progress {
	return &Progress{
		w:      w,
		total:  total,
		start:  time.Now(),
		active: map[int64]string{},
	}
}

// SpanStart tracks image spans and their current stage.
func (p *Progress) SpanStart(d SpanData) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if d.Parent == 0 && d.Name == "image" {
		p.active[d.ID] = ""
		return
	}
	if _, ok := p.active[d.Parent]; ok {
		p.active[d.Parent] = d.Name
	}
}

// SpanEnd emits a progress line when an image completes: its image span
// ends, or a root cache span ends with status "hit", which answers an
// image without opening an image span.
//
// Lines are rendered under p.mu and queued; whichever call finds no other
// writing drains the queue, so lines reach w in render order while p.mu
// is never held across w.
func (p *Progress) SpanEnd(d SpanData) {
	p.mu.Lock()
	if _, ok := p.active[d.ID]; ok {
		delete(p.active, d.ID)
	} else if d.Parent != 0 || d.Name != "cache" || d.Status != "hit" {
		p.mu.Unlock()
		return
	}
	p.doneLocked(d)
}

// Skip counts an image that ended without opening a span, such as a file
// its caller could not read, as done: its line names it name and carries
// status.
func (p *Progress) Skip(name, status string) {
	now := time.Now()
	p.mu.Lock()
	p.doneLocked(SpanData{Attrs: []Attr{String("device", name)}, Status: status, Start: now, End: now})
}

// doneLocked counts the image whose root span d ended and writes its
// line; p.mu must be held, and it is released.
func (p *Progress) doneLocked(d SpanData) {
	p.done++
	p.pending = append(p.pending, p.lineLocked(d))
	if p.writing {
		p.mu.Unlock()
		return
	}
	p.writing = true
	for len(p.pending) > 0 {
		lines := p.pending
		p.pending = nil
		p.mu.Unlock()
		for _, l := range lines {
			io.WriteString(p.w, l)
		}
		p.mu.Lock()
	}
	p.writing = false
	p.mu.Unlock()
}

// deviceOf names the image a root span covers by its "device" attribute,
// which an image span carries once its image unpacked.
func deviceOf(d SpanData) string {
	if dev := d.Attr("device"); dev != "" {
		return dev
	}
	return fmt.Sprintf("image#%d", d.ID)
}

// lineLocked renders the completion line of the root span d; p.mu must be
// held.
func (p *Progress) lineLocked(d SpanData) string {
	var b strings.Builder
	if p.total > 0 {
		fmt.Fprintf(&b, "progress: %d/%d images (%d%%)", p.done, p.total, p.done*100/p.total)
	} else { // open-ended: a long-lived Analyzer has no total
		fmt.Fprintf(&b, "progress: %d images", p.done)
	}
	fmt.Fprintf(&b, "  %s done in %v", deviceOf(d), d.Duration().Round(time.Millisecond))
	if d.Status != "" {
		fmt.Fprintf(&b, " [%s]", d.Status)
	}
	if p.done > 0 && p.done < p.total {
		elapsed := time.Since(p.start)
		eta := time.Duration(float64(elapsed) / float64(p.done) * float64(p.total-p.done))
		fmt.Fprintf(&b, "  eta %v", eta.Round(100*time.Millisecond))
	}
	if len(p.active) > 0 {
		var cur []string
		for _, stage := range p.active {
			if stage == "" {
				stage = "starting"
			}
			cur = append(cur, stage)
		}
		sort.Strings(cur)
		fmt.Fprintf(&b, "  [active %s]", strings.Join(cur, " "))
	}
	b.WriteByte('\n')
	return b.String()
}
