package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"
)

// newHTTPClient returns a client that opens at most conns connections.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 10 * time.Second}).DialContext,
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		MaxIdleConns:        conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}}
}

// result is one completed (or failed) request as the client saw it.
type result struct {
	Req  *request
	Sent time.Time
	// First is when the first solved unit arrived: a cell, point or tick
	// frame with "cache":"miss" for streams, the response headers for
	// other requests. Zero when a stream solved nothing.
	First time.Time
	End   time.Time
	// Status is the HTTP status; Body the whole response (NDJSON for
	// streams).
	Status int
	Body   []byte
	Err    error
}

func (r *result) latency() time.Duration { return r.End.Sub(r.Sent) }

// solvedPrefix is how a frame of each stream kind starts.
var solvedPrefix = map[kind][]byte{
	kGrid:   []byte(`{"cell":`),
	kRefine: []byte(`{"point":`),
	kSim:    []byte(`{"tick":`),
}

var missMarker = []byte(`"cache":"miss"`)

// do sends one request and reads the whole response, timestamping the
// first solved frame of a stream as it arrives.
func do(ctx context.Context, hc *http.Client, base string, req *request) result {
	res := result{Req: req, Sent: time.Now()}
	var body io.Reader
	if req.Body != nil {
		body = bytes.NewReader(req.Body)
	}
	hreq, err := http.NewRequestWithContext(ctx, req.Method, base+req.Path, body)
	if err != nil {
		res.Err, res.End = err, time.Now()
		return res
	}
	if req.Body != nil {
		hreq.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(hreq)
	if err != nil {
		res.Err, res.End = err, time.Now()
		return res
	}
	defer resp.Body.Close()
	res.Status = resp.StatusCode
	if !req.Kind.stream() {
		res.First = time.Now()
		res.Body, res.Err = io.ReadAll(resp.Body)
		res.End = time.Now()
		return res
	}
	var buf bytes.Buffer
	prefix := solvedPrefix[req.Kind]
	err = readLines(resp.Body, func(line []byte) error {
		if res.First.IsZero() && bytes.HasPrefix(line, prefix) && bytes.Contains(line, missMarker) {
			res.First = time.Now()
		}
		buf.Write(line)
		buf.WriteByte('\n')
		return nil
	})
	res.End = time.Now()
	res.Body, res.Err = buf.Bytes(), err
	return res
}

// readLines calls fn with every newline-terminated line of r (without the
// newline). A final unterminated line is delivered too. The slice is only
// valid during the call.
func readLines(r io.Reader, fn func(line []byte) error) error {
	br := bufio.NewReaderSize(r, 64<<10)
	for {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			// A frame longer than the buffer: accumulate it.
			long := append([]byte(nil), line...)
			for err == bufio.ErrBufferFull {
				line, err = br.ReadSlice('\n')
				long = append(long, line...)
			}
			line = long
		}
		if len(line) > 0 {
			if e := fn(bytes.TrimRight(line, "\r\n")); e != nil {
				return e
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// closedLoop runs conns clients until the deadline; each sends its next
// stream request, then its warm hits and queries, and repeats. Requests in
// flight at the deadline complete and count.
func closedLoop(ctx context.Context, hc *http.Client, base string, gens []*streamGen, warms []*warmGen, hits, queries int, dur time.Duration) (results []result, wall time.Duration) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := range gens {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var local []result
			for time.Now().Before(deadline) && ctx.Err() == nil {
				batch := []request{gens[c].next()}
				for i := 0; i < hits; i++ {
					batch = append(batch, warms[c].hit())
				}
				for i := 0; i < queries; i++ {
					batch = append(batch, warms[c].query())
				}
				for i := range batch {
					local = append(local, do(ctx, hc, base, &batch[i]))
				}
			}
			mu.Lock()
			results = append(results, local...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return results, time.Since(start)
}

func describe(r *result) string {
	return fmt.Sprintf("%s %s (%s)", r.Req.Method, r.Req.Path, r.Req.Kind)
}
