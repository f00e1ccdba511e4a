package main

import (
	"fmt"
	"math/rand"

	"firmres/internal/corpus"
	"firmres/internal/image"
)

// numDevices is the size of the corpus every workload draws from.
const numDevices = 22

// noncePath is where a variant's nonce lives: a non-executable file outside
// /etc, so neither the resolver's configuration stores nor the strip hints
// see it, and every report stays byte-identical to its golden.
const noncePath = "/var/bench/nonce"

// Image modes: which golden an image's output is checked against.
const (
	modeFull     = "full"
	modeStripped = "stripped"
)

// input is one generated firmware image: the packed bytes handed to the
// program, plus the identity the oracle needs to pick its golden.
type input struct {
	dev  int
	mode string
	data []byte
}

// corpusImages holds the unpacked base images of the corpus, built once per
// set-up; variants are derived from them without rebuilding.
type corpusImages struct {
	full, stripped [numDevices + 1]*image.Image
}

// buildCorpus assembles the base images: every device symbol-full, and its
// stripped twin when withStripped is set.
func buildCorpus(withStripped bool) (*corpusImages, error) {
	c := &corpusImages{}
	for id := 1; id <= numDevices; id++ {
		img, err := corpus.BuildImage(corpus.Device(id))
		if err != nil {
			return nil, fmt.Errorf("build device %d: %w", id, err)
		}
		c.full[id] = img
		if withStripped {
			img, err := corpus.BuildStrippedImage(corpus.Device(id))
			if err != nil {
				return nil, fmt.Errorf("build stripped device %d: %w", id, err)
			}
			c.stripped[id] = img
		}
	}
	return c, nil
}

// generator derives fresh inputs from a seed: the same seed yields the same
// nonces, samples, mixes and arrival times, in the same order.
type generator struct {
	rng    *rand.Rand
	corpus *corpusImages
	devs   []int // the rest of the current round of device picks
}

func newGenerator(seed int64, c *corpusImages) *generator {
	return &generator{rng: rand.New(rand.NewSource(seed)), corpus: c}
}

// variant packs device dev with a fresh seeded nonce file, giving an image
// whose digest no earlier variant shares.
func (g *generator) variant(dev int, mode string) input {
	base := g.corpus.full[dev]
	if mode == modeStripped {
		base = g.corpus.stripped[dev]
	}
	nonce := make([]byte, 16)
	g.rng.Read(nonce)
	img := *base
	img.Files = append(append([]image.File(nil), base.Files...),
		image.File{Path: noncePath, Data: []byte(fmt.Sprintf("%x\n", nonce))})
	return input{dev: dev, mode: mode, data: img.Pack()}
}

// pass returns one fresh variant of every device in each of the given modes.
func (g *generator) pass(modes ...string) []input {
	var out []input
	for _, mode := range modes {
		for id := 1; id <= numDevices; id++ {
			out = append(out, g.variant(id, mode))
		}
	}
	return out
}

// device picks the next device of a seeded round through all of them, so
// any stretch of picks covers the corpus evenly and every seed draws the
// same mix of cheap and costly devices.
func (g *generator) device() int {
	if len(g.devs) == 0 {
		g.devs = g.rng.Perm(numDevices)
	}
	d := g.devs[0] + 1
	g.devs = g.devs[1:]
	return d
}

// expGap draws an exponential inter-arrival gap in seconds for a Poisson
// process of the given rate.
func (g *generator) expGap(rate float64) float64 { return g.rng.ExpFloat64() / rate }

func datas(in []input) [][]byte {
	out := make([][]byte, len(in))
	for i := range in {
		out[i] = in[i].data
	}
	return out
}
