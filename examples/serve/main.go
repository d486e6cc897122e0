// Serve: the model-server round trip in one process.
//
// Train a transform on a noisy two-blob data set, register it with the
// HTTP serving layer, and then act as a client against the live server:
// single-point classify calls fired concurrently (so the server's
// micro-batcher coalesces them onto one batched library call), a
// repeated density query (the second hit answered from the LRU cache),
// and a look at /metrics to see batching and caching at work. Finishes
// with a graceful shutdown.
//
// Run with: go run ./examples/serve
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"

	"udm"
	"udm/internal/server"
)

func main() {
	// 1. Train a classifier-ready transform exactly as quickstart does.
	clean, err := udm.TwoBlobs(2.5).Generate(1200, udm.NewRand(1))
	if err != nil {
		log.Fatal(err)
	}
	noisy, err := udm.Perturb(clean, 1.0, udm.NewRand(2))
	if err != nil {
		log.Fatal(err)
	}
	tr, err := udm.NewTransform(noisy, udm.TransformOptions{ErrorAdjust: true, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	// 2. Register it and serve on a loopback port.
	model, err := server.NewTransformModel("blobs", tr, udm.ClassifierOptions{})
	if err != nil {
		log.Fatal(err)
	}
	reg := server.NewRegistry()
	if err := reg.Add(model); err != nil {
		log.Fatal(err)
	}
	srv := server.New(reg, server.Options{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(l)
	base := "http://" + l.Addr().String()
	fmt.Printf("serving model %q at %s\n\n", "blobs", base)

	// 3. Fire 32 single-point classify requests concurrently. Each HTTP
	// request carries ONE point; the server coalesces whatever arrives
	// while a batch is running into the next ClassifyBatch call.
	pts := noisy.X[:32]
	labels := make([]int, len(pts))
	var wg sync.WaitGroup
	for i, x := range pts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var resp struct {
				Label *int `json:"label"`
			}
			post(base+"/v1/models/blobs/classify", map[string]any{"point": x}, &resp)
			labels[i] = *resp.Label
		}()
	}
	wg.Wait()
	agree := 0
	for i, x := range pts {
		want, err := model.Classifier().Classify(x)
		if err != nil {
			log.Fatal(err)
		}
		if labels[i] == want {
			agree++
		}
	}
	fmt.Printf("classify: %d/%d served labels identical to direct library calls\n", agree, len(pts))

	// 4. Ask for the same density twice: miss, then cache hit.
	for i := 0; i < 2; i++ {
		var resp struct {
			Density *float64 `json:"density"`
			Cached  bool     `json:"cached"`
		}
		post(base+"/v1/models/blobs/density", map[string]any{"point": pts[0]}, &resp)
		fmt.Printf("density #%d: %.6g (cached=%v)\n", i+1, *resp.Density, resp.Cached)
	}

	// 5. Peek at the metrics the server kept while we hammered it.
	var metrics map[string]any
	get(base+"/metrics", &metrics)
	fmt.Printf("\nmetrics: requests=%v batch_flushes=%v avg_batch_size=%v cache_hit_rate=%v\n",
		metrics["requests"], metrics["batch_flushes"], metrics["avg_batch_size"], metrics["cache_hit_rate"])

	// 6. Graceful shutdown: drains in-flight work, checkpoints streams.
	if err := srv.Shutdown(context.Background()); err != nil {
		log.Fatal(err)
	}
	fmt.Println("clean shutdown")
}

func post(url string, body, out any) {
	buf, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("%s: HTTP %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}

func get(url string, out any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}
