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
// each worker's current image and stage, per-image wall-clock, and an ETA
// extrapolated from the completed images. It is an Observer — attach it to
// the run's Recorder and it needs no other wiring.
//
// One line is written per completed image (plain lines, not cursor
// rewrites, so logs captured in CI stay readable).
type Progress struct {
	w     io.Writer
	total int
	start time.Time

	mu     sync.Mutex
	done   int
	active map[int64]*activeImage // image span ID → state
}

type activeImage struct {
	device string
	stage  string
	start  time.Time
}

// NewProgress builds a progress reporter for a run of total images; 0
// means the total is unknown, and lines carry no percentage or ETA.
func NewProgress(w io.Writer, total int) *Progress {
	return &Progress{
		w:      w,
		total:  total,
		start:  time.Now(),
		active: map[int64]*activeImage{},
	}
}

// SpanStart tracks image spans and their current stage.
func (p *Progress) SpanStart(d SpanData) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if d.Parent == 0 && d.Name == "image" {
		p.active[d.ID] = &activeImage{device: deviceOf(d), start: d.Start}
		return
	}
	if img, ok := p.active[d.Parent]; ok {
		img.stage = d.Name
	}
}

// SpanEnd emits a progress line when an image completes: its image span
// ends, or a root cache span ends with status "hit", which answers an
// image without opening an image span.
func (p *Progress) SpanEnd(d SpanData) {
	p.mu.Lock()
	img, ok := p.active[d.ID]
	switch {
	case ok:
		delete(p.active, d.ID)
	case d.Parent == 0 && d.Name == "cache" && d.Status == "hit":
		img = &activeImage{device: deviceOf(d)}
	default:
		p.mu.Unlock()
		return
	}
	p.done++
	line := p.lineLocked(img, d)
	p.mu.Unlock()
	io.WriteString(p.w, line)
}

// deviceOf names the image a root span covers by its "device" attribute.
func deviceOf(d SpanData) string {
	if dev := d.Attr("device"); dev != "" {
		return dev
	}
	return fmt.Sprintf("image#%d", d.ID)
}

// lineLocked renders one completion line; p.mu must be held.
func (p *Progress) lineLocked(img *activeImage, d SpanData) string {
	var b strings.Builder
	if p.total > 0 {
		fmt.Fprintf(&b, "progress: %d/%d images (%d%%)", p.done, p.total, p.done*100/p.total)
	} else { // open-ended: a long-lived Analyzer has no total
		fmt.Fprintf(&b, "progress: %d images", p.done)
	}
	fmt.Fprintf(&b, "  %s done in %v", img.device, d.Duration().Round(time.Millisecond))
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
		for _, a := range p.active {
			stage := a.stage
			if stage == "" {
				stage = "starting"
			}
			cur = append(cur, a.device+":"+stage)
		}
		sort.Strings(cur)
		fmt.Fprintf(&b, "  [active %s]", strings.Join(cur, " "))
	}
	b.WriteByte('\n')
	return b.String()
}
