package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"ageguard/internal/obs"
	"ageguard/internal/serve"
	"ageguard/pkg/ageguard/client"
)

// service is one ageguardd server on a loopback port and the typed
// client the workload queries it with.
type service struct {
	srv   *serve.Server
	url   string
	http  *http.Server
	done  chan error
	tr    *http.Transport
	cl    *client.Client
	times *handlerTimes // server-side handler times; nil unless tracing
}

// requestHeader carries the benchmark's request number from the
// client's transport to the timing handler, so client and server times
// of one request can be paired.
const requestHeader = "Perfbench-Request"

type requestIDKey struct{}

// withRequestID tags ctx with the request number id (> 0).
func withRequestID(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// startService serves the daemon's routing table on 127.0.0.1:0. conns
// bounds the client's connections; timed wraps the handler to record
// server-side handler times by request number.
func startService(cfg serve.Config, reg *obs.Registry, conns int, timed bool) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	s := &service{
		srv:  serve.New(cfg, reg),
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
		tr: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     time.Minute,
		},
	}
	h := s.srv.Handler()
	var rt http.RoundTripper = s.tr
	if timed {
		s.times = &handlerTimes{byID: map[uint64]time.Duration{}}
		h = s.times.wrap(h)
		rt = tagTransport{s.tr}
	}
	s.http = &http.Server{Handler: h}
	go func() { s.done <- s.http.Serve(ln) }()
	s.cl = client.New(s.url, client.WithHTTPClient(&http.Client{Transport: rt}))
	return s, nil
}

// stop shuts the server down and waits for it to return.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.tr.CloseIdleConnections()
	return err
}

// metricsBytes fetches /metrics and returns its size.
func (s *service) metricsBytes() (int, error) {
	res, err := (&http.Client{Transport: s.tr}).Get(s.url + "/metrics")
	if err != nil {
		return 0, err
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if err != nil {
		return 0, err
	}
	if res.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("/metrics: %s", res.Status)
	}
	return len(b), nil
}

// tagTransport copies the request number from the request context into
// requestHeader.
type tagTransport struct{ next http.RoundTripper }

func (t tagTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(requestIDKey{}).(uint64); ok {
		r = r.Clone(r.Context())
		r.Header.Set(requestHeader, strconv.FormatUint(id, 10))
	}
	return t.next.RoundTrip(r)
}

// handlerTimes records how long the daemon's handler took per request
// number.
type handlerTimes struct {
	mu   sync.Mutex
	byID map[uint64]time.Duration
}

func (h *handlerTimes) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		next.ServeHTTP(w, r)
		d := time.Since(t0)
		if id, err := strconv.ParseUint(r.Header.Get(requestHeader), 10, 64); err == nil && id > 0 {
			h.mu.Lock()
			h.byID[id] = d
			h.mu.Unlock()
		}
	})
}

// get returns the handler time of request id.
func (h *handlerTimes) get(id uint64) (time.Duration, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	d, ok := h.byID[id]
	return d, ok
}

// requestLog pairs client latencies with server handler times by
// request number, after the window.
type requestLog struct {
	mu     sync.Mutex
	client map[uint64]time.Duration
}

func (l *requestLog) add(id uint64, d time.Duration) {
	l.mu.Lock()
	if l.client == nil {
		l.client = map[uint64]time.Duration{}
	}
	l.client[id] = d
	l.mu.Unlock()
}

// serverLayers fills the serve.handler_* and client.overhead_p50_ms
// metrics from the paired times.
func (e *env) serverLayers(s *service, log *requestLog) {
	if s.times == nil {
		return
	}
	var handler, overhead []float64
	log.mu.Lock()
	defer log.mu.Unlock()
	for id, c := range log.client {
		h, ok := s.times.get(id)
		if !ok {
			e.chk.fail("request %d has no server-side handler time", id)
			continue
		}
		handler = append(handler, h.Seconds())
		overhead = append(overhead, (c - h).Seconds())
	}
	e.layer["serve.handler_p50_ms"] = 1e3 * median(handler)
	e.layer["serve.handler_p99_ms"] = 1e3 * percentile(handler, 0.99)
	e.layer["client.overhead_p50_ms"] = 1e3 * median(overhead)
}

// metricsSize records the size of /metrics at the end of the run.
func (e *env) metricsSize(s *service) error {
	n, err := s.metricsBytes()
	if err != nil {
		return err
	}
	e.layer["serve.metrics_kb"] = float64(n) / 1024
	return nil
}
