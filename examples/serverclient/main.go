// Server client: drive plasmad end-to-end over HTTP — the Fig 2.1 loop
// (probe at t1 → inspect the curve and cues → probe the knee) as a Go
// client would run it against the multi-tenant daemon.
//
// The example starts an in-process plasmad on a random port, but the
// client half speaks plain HTTP/JSON and works unchanged against a daemon
// started with `go run ./cmd/plasmad` (pass its base URL as the first
// argument). Two goroutines probe the same session concurrently to show
// that they extend one shared knowledge cache.
//
//	go run ./examples/serverclient                  # in-process daemon
//	go run ./examples/serverclient http://localhost:8080
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"plasmahd/internal/server"
)

func main() {
	base := ""
	if len(os.Args) > 1 {
		base = os.Args[1]
	}
	if base == "" {
		// No daemon given: run one in-process on a random port.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		srv := server.New(server.Config{Capacity: 4})
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go func() {
			if err := srv.Serve(ctx, ln); err != nil {
				log.Fatal(err)
			}
		}()
		base = "http://" + ln.Addr().String()
		fmt.Println("started in-process plasmad at", base)
	}

	// Create a session: the server sketches the dataset once; every client
	// of the session shares the resulting knowledge cache.
	var info struct {
		ID           string  `json:"id"`
		Rows         int     `json:"rows"`
		SketchMillis float64 `json:"sketchMillis"`
	}
	post(base+"/v1/sessions", map[string]any{
		"dataset": map[string]any{"kind": "table", "name": "wine"},
		"seed":    1,
	}, &info)
	fmt.Printf("session %s: %d rows, sketched in %.1fms\n", info.ID, info.Rows, info.SketchMillis)

	// Step 1 of the loop: two clients probe concurrently. The cache is
	// shared and writes are monotone, so both runs deepen one evidence pool.
	var wg sync.WaitGroup
	for _, t := range []float64{0.9, 0.75} {
		wg.Add(1)
		go func(t float64) {
			defer wg.Done()
			var res struct {
				PairCount      int     `json:"pairCount"`
				HashesCompared int64   `json:"hashesCompared"`
				ProcessMillis  float64 `json:"processMillis"`
			}
			post(base+"/v1/sessions/"+info.ID+"/probe", map[string]any{"threshold": t}, &res)
			fmt.Printf("probe t=%.2f: %d pairs, %d hash comparisons, %.1fms\n",
				t, res.PairCount, res.HashesCompared, res.ProcessMillis)
		}(t)
	}
	wg.Wait()

	// Step 2: inspect the cumulative APSS curve — served from the cache, no
	// probe — and take the system's knee suggestion.
	var curve struct {
		Points []struct {
			Threshold float64 `json:"threshold"`
			Estimate  float64 `json:"estimate"`
			ErrBar    float64 `json:"errBar"`
		} `json:"points"`
		Knee float64 `json:"knee"`
	}
	get(base+"/v1/sessions/"+info.ID+"/curve?lo=0.5&hi=0.95&steps=10", &curve)
	for _, p := range curve.Points {
		fmt.Printf("  t=%.2f est=%6.0f ±%.0f\n", p.Threshold, p.Estimate, p.ErrBar)
	}
	fmt.Printf("suggested next threshold (knee): %.2f\n", curve.Knee)

	// Step 3: probe the knee and read the clusterability cues there.
	post(base+"/v1/sessions/"+info.ID+"/probe", map[string]any{"threshold": curve.Knee}, nil)
	var cues struct {
		Triangles      int64 `json:"triangles"`
		DensityProfile []int `json:"densityProfile"`
	}
	get(fmt.Sprintf("%s/v1/sessions/%s/cues?t=%.4f&top=10", base, info.ID, curve.Knee), &cues)
	fmt.Printf("cues at the knee: %d triangles, top core numbers %v\n",
		cues.Triangles, cues.DensityProfile)

	// /v1/stats is every unlabeled metric family, keyed by its /metrics name.
	var stats map[string]float64
	get(base+"/v1/stats", &stats)
	fmt.Printf("server stats: %g probes (%g coalesced) across %g requests\n",
		stats["plasmad_probes_total"], stats["plasmad_probes_coalesced_total"],
		stats["plasmad_http_requests_started_total"])
}

var client = &http.Client{Timeout: 60 * time.Second}

func post(url string, body, out any) {
	b, err := json.Marshal(body)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		log.Fatal(err)
	}
	decode(url, resp, out)
}

func get(url string, out any) {
	resp, err := client.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	decode(url, resp, out)
}

func decode(url string, resp *http.Response, out any) {
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		var env struct {
			Error struct{ Code, Message string } `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&env)
		log.Fatalf("%s: %d %s: %s", url, resp.StatusCode, env.Error.Code, env.Error.Message)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			log.Fatalf("%s: decode: %v", url, err)
		}
	}
}
