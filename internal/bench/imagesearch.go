package bench

import (
	"fmt"
	"io"
	"math/rand"
	"path/filepath"

	"github.com/hd-index/hdindex/internal/baselines"
	"github.com/hd-index/hdindex/internal/borda"
	"github.com/hd-index/hdindex/internal/core"
	"github.com/hd-index/hdindex/internal/data"
)

// imageCorpus is a synthetic stand-in for the Yorck art-image corpus of
// §5.5: each "image" contributes a bag of SURF-like descriptors drawn
// from an image-specific mixture, so descriptors of the same image are
// mutually closer than those of different images.
type imageCorpus struct {
	descriptors [][]float32
	descImage   []uint64 // descriptor id -> image id
	numImages   int
	dim         int
}

func makeImageCorpus(numImages, descPerImage, dim int, seed int64) *imageCorpus {
	rng := rand.New(rand.NewSource(seed))
	c := &imageCorpus{numImages: numImages, dim: dim}
	for img := 0; img < numImages; img++ {
		// Per-image mixture: 3 visual "themes".
		themes := make([][]float64, 3)
		for t := range themes {
			th := make([]float64, dim)
			for d := range th {
				th[d] = rng.Float64()*2 - 1
			}
			themes[t] = th
		}
		for j := 0; j < descPerImage; j++ {
			th := themes[rng.Intn(3)]
			v := make([]float32, dim)
			for d := range v {
				x := th[d] + rng.NormFloat64()*0.08
				if x < -1 {
					x = -1
				}
				if x > 1 {
					x = 1
				}
				v[d] = float32(x)
			}
			c.descriptors = append(c.descriptors, v)
			c.descImage = append(c.descImage, uint64(img))
		}
	}
	return c
}

// queryImage generates a query "image": a noisy re-render of an existing
// one (the retrieval target).
func (c *imageCorpus) queryImage(img int, numDesc int, rng *rand.Rand) [][]float32 {
	// Collect the image's descriptors and perturb a sample of them.
	var own [][]float32
	for i, v := range c.descriptors {
		if c.descImage[i] == uint64(img) {
			own = append(own, v)
		}
	}
	out := make([][]float32, numDesc)
	for j := range out {
		src := own[rng.Intn(len(own))]
		v := make([]float32, c.dim)
		for d := range v {
			v[d] = src[d] + float32(rng.NormFloat64())*0.02
		}
		out[j] = v
	}
	return out
}

// retrieve runs the full §5.5 pipeline for one query image on one method.
func retrieve(ix baselines.Index, c *imageCorpus, queryDescs [][]float32, k, topImages int) ([]borda.ImageScore, error) {
	lists := make([][]uint64, len(queryDescs))
	for i, qd := range queryDescs {
		res, err := ix.Search(qd, k)
		if err != nil {
			return nil, err
		}
		ids := make([]uint64, len(res))
		for j, r := range res {
			ids[j] = r.ID
		}
		lists[i] = ids
	}
	return borda.Aggregate(lists, func(d uint64) uint64 { return c.descImage[d] }, topImages)
}

// imageSearchImpl reproduces Table 6's comparison: overlap of each
// method's top-3 retrieved images with the linear-scan ground truth.
func imageSearchImpl(out io.Writer, cfg Config) error {
	cfg.defaults()
	numImages := int(100 * cfg.Scale)
	if numImages < 20 {
		numImages = 20
	}
	corpus := makeImageCorpus(numImages, 40, 64, cfg.Seed)
	rng := rand.New(rand.NewSource(cfg.Seed + 7))

	ds := &data.Dataset{Name: "yorck-images", Dim: corpus.dim, Lo: -1, Hi: 1, Vectors: corpus.descriptors}
	w := &Workload{
		Spec: DataSpec{Name: "YorckImages", Tau: 8, Omega: 16, Alpha: 1024, MCTau: 8, Possible: true},
		Data: ds,
	}

	const k = 20 // descriptor-level kANN depth
	const topImages = 3

	// Ground truth via linear scan.
	lin, err := LinearBuilder().Build("", w)
	if err != nil {
		return err
	}
	defer lin.Close()

	// HD-Index with §5.5-style parameters.
	p := HDParams(w.Spec, len(corpus.descriptors))
	p.Seed = cfg.Seed
	hd, err := core.Build(filepath.Join(cfg.WorkDir, "imagesearch"), corpus.descriptors, p)
	if err != nil {
		return err
	}
	defer hd.Close()

	fmt.Fprintf(out, "\nImage search (§5.5): Borda-count retrieval over %d images, top-%d\n", numImages, topImages)
	t := NewTable(out, "query image", "truth top-3", "HD-Index top-3", "overlap")
	var overlapSum float64
	trials := 10
	for trial := 0; trial < trials; trial++ {
		target := rng.Intn(numImages)
		qDescs := corpus.queryImage(target, 15, rng)

		truth, err := retrieve(lin, corpus, qDescs, k, topImages)
		if err != nil {
			return err
		}
		got, err := retrieve(hdAdapter{ix: hd}, corpus, qDescs, k, topImages)
		if err != nil {
			return err
		}
		ov := borda.Overlap(truth, got)
		overlapSum += ov
		t.Row(target, fmtImages(truth), fmtImages(got), ov)
	}
	t.Flush()
	fmt.Fprintf(out, "mean overlap with linear-scan ground truth: %.3f\n", overlapSum/float64(trials))
	return nil
}

func fmtImages(scores []borda.ImageScore) string {
	s := ""
	for i, sc := range scores {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%d", sc.ImageID)
	}
	return s
}
