// Image search (§5.5 of the paper): multi-descriptor image retrieval
// with Borda-count aggregation.
//
// Each "image" is a bag of SURF-like local descriptors. To find images
// similar to a query image, every query descriptor runs a kANN search
// against the database of all descriptors; each database image earns a
// Borda count from the positions at which its descriptors appear
// (Eq. 7); the images with the highest counts win. Per-descriptor
// accuracy can be imperfect — the aggregation absorbs small errors,
// which is the paper's §1 argument for approximate search.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	hdindex "github.com/hd-index/hdindex"
	"github.com/hd-index/hdindex/internal/borda"
)

const (
	numImages     = 120
	descPerImage  = 40
	descriptorDim = 64
	kPerDesc      = 20
	topImages     = 3
)

func main() {
	rng := rand.New(rand.NewSource(11))

	// Build the corpus: image i draws descriptors around 3 "themes".
	var descriptors [][]float32
	var descImage []uint64
	for img := 0; img < numImages; img++ {
		themes := make([][]float64, 3)
		for t := range themes {
			th := make([]float64, descriptorDim)
			for d := range th {
				th[d] = rng.Float64()*2 - 1
			}
			themes[t] = th
		}
		for j := 0; j < descPerImage; j++ {
			th := themes[rng.Intn(3)]
			v := make([]float32, descriptorDim)
			for d := range v {
				v[d] = float32(th[d] + rng.NormFloat64()*0.08)
			}
			descriptors = append(descriptors, v)
			descImage = append(descImage, uint64(img))
		}
	}

	dir := filepath.Join(os.TempDir(), "hdindex-imagesearch")
	defer os.RemoveAll(dir)
	idx, err := hdindex.Build(dir, descriptors, hdindex.Options{
		Tau: 8, Omega: 16, Alpha: 1024, Gamma: 256, Seed: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer idx.Close()
	fmt.Printf("indexed %d descriptors from %d images\n", len(descriptors), numImages)

	// Query: a noisy re-render of image 42.
	const target = 42
	var own [][]float32
	for i, v := range descriptors {
		if descImage[i] == target {
			own = append(own, v)
		}
	}
	queryDescs := make([][]float32, 15)
	for j := range queryDescs {
		src := own[rng.Intn(len(own))]
		v := make([]float32, descriptorDim)
		for d := range v {
			v[d] = src[d] + float32(rng.NormFloat64())*0.02
		}
		queryDescs[j] = v
	}

	// kANN per descriptor, then Borda aggregation.
	resps, err := idx.QueryBatch(context.Background(), queryDescs, kPerDesc)
	if err != nil {
		log.Fatal(err)
	}
	lists := make([][]uint64, len(resps))
	for i, resp := range resps {
		ids := make([]uint64, len(resp.Results))
		for j, r := range resp.Results {
			ids[j] = r.ID
		}
		lists[i] = ids
	}
	scores, err := borda.Aggregate(lists, func(d uint64) uint64 { return descImage[d] }, topImages)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\ntop-%d images for a query derived from image %d:\n", topImages, target)
	for rank, s := range scores {
		marker := ""
		if s.ImageID == target {
			marker = "  <-- correct"
		}
		fmt.Printf("  #%d image %-4d borda=%.0f%s\n", rank+1, s.ImageID, s.Score, marker)
	}
	if scores[0].ImageID == target {
		fmt.Println("\nretrieval succeeded: aggregation over descriptors tolerates per-query approximation")
	}
}
