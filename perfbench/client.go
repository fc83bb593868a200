package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// request is the POST /v1/query body the benchmark sends.
type request struct {
	Query     string     `json:"query"`
	K         int        `json:"k"`
	Algorithm string     `json:"algorithm,omitempty"`
	Measure   string     `json:"measure,omitempty"`
	Scatter   bool       `json:"scatter,omitempty"`
	Shard     *shardSpec `json:"shard,omitempty"`
}

type shardSpec struct {
	Index int `json:"index"`
	Count int `json:"count"`
}

// event holds the NDJSON event fields the benchmark reads.
type event struct {
	Event        string  `json:"event"`
	Cache        string  `json:"cache"`
	Utility      float64 `json:"utility"`
	Plan         string  `json:"plan"`
	PlanKey      string  `json:"plan_key"`
	TotalAnswers int     `json:"total_answers"`
	Err          *struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// outcome is one session as the client saw it. Times are offsets from
// the send; a zero offset means the event never arrived. KthPlan is the
// k-th plan's arrival, or the last plan's when the stream had fewer.
type outcome struct {
	Stream    stream
	Cache     string
	Headers   time.Duration
	FirstPlan time.Duration
	KthPlan   time.Duration
	TTFA      time.Duration
	Done      time.Duration
	PlanAt    []time.Duration
	Err       error
}

// session posts one query and reads its NDJSON stream to the end. Any
// non-2xx status (503 included), error event, read failure or stream
// without a done event is a failure.
func session(c *http.Client, url string, req request) outcome {
	var o outcome
	body, err := json.Marshal(req)
	if err != nil {
		o.Err = err
		return o
	}
	start := time.Now()
	resp, err := c.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		o.Err = fmt.Errorf("post: %w", err)
		return o
	}
	defer resp.Body.Close()
	o.Headers = time.Since(start)
	if resp.StatusCode/100 != 2 {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		o.Err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
		return o
	}
	o.Err = readStream(resp.Body, start, req.K, &o)
	return o
}

// readStream consumes an NDJSON session stream into o.
func readStream(r io.Reader, start time.Time, k int, o *outcome) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		var e event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return fmt.Errorf("bad event line: %w", err)
		}
		at := time.Since(start)
		switch e.Event {
		case "session":
			o.Cache = e.Cache
		case "plan":
			if o.FirstPlan == 0 {
				o.FirstPlan = at
			}
			o.PlanAt = append(o.PlanAt, at)
			o.Stream.Keys = append(o.Stream.Keys, e.PlanKey)
			o.Stream.Utils = append(o.Stream.Utils, e.Utility)
			o.Stream.Plans = append(o.Stream.Plans, e.Plan)
		case "answers":
			if o.TTFA == 0 {
				o.TTFA = at
			}
		case "error":
			msg := "error event"
			if e.Err != nil {
				msg = e.Err.Code + ": " + e.Err.Message
			}
			return fmt.Errorf("%s", msg)
		case "done":
			o.Done = at
			o.Stream.Answers = e.TotalAnswers
			if n := len(o.PlanAt); n > 0 {
				o.KthPlan = o.PlanAt[min(n, k)-1]
			}
			// Trailing events carry observability metadata; the
			// session's data ends here.
			_, _ = io.Copy(io.Discard, r)
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("truncated stream: %w", err)
	}
	return fmt.Errorf("stream ended without done")
}

// newClient returns an HTTP client keeping a few idle connections per
// daemon, so closed-loop clients reuse connections.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true},
	}
}
