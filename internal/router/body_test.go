package router

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// staticTransport is a replica whose every non-/healthz response is
// payload, declaring declared bytes in ContentLength and the
// Content-Length header (-1: no declaration). echo instead answers
// with the request body. The body reader never copies the payload, so
// what a benchmark over it allocates is the router's own doing.
type staticTransport struct {
	payload  []byte
	declared int64
	echo     bool
}

func (t staticTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	body, declared := t.payload, t.declared
	switch {
	case req.URL.Path == "/healthz":
		body = []byte(`{"status":"ok"}`)
		declared = int64(len(body))
	case t.echo:
		b, err := io.ReadAll(req.Body)
		if err != nil {
			return nil, err
		}
		body, declared = b, int64(len(b))
	}
	if req.Body != nil {
		req.Body.Close()
	}
	h := http.Header{"Content-Type": {"application/octet-stream"}}
	if declared >= 0 {
		h.Set("Content-Length", strconv.FormatInt(declared, 10))
	}
	return &http.Response{
		StatusCode:    http.StatusOK,
		Header:        h,
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: declared,
		Request:       req,
	}, nil
}

// serveRouter puts a router over tr behind a loopback server, so
// replies are checked as a client receives them off the wire.
func serveRouter(t *testing.T, tr http.RoundTripper) *httptest.Server {
	t.Helper()
	rt, err := New(Config{
		Replicas:      []string{"http://replica-0"},
		ProbeInterval: time.Hour,
		Transport:     tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		srv.Close()
		rt.Close()
	})
	return srv
}

// noLen hides a reader's length from net/http, so the request goes out
// chunked with no declared Content-Length.
type noLen struct{ io.Reader }

// proxy sends body through srv and returns the reply; body of nil
// sends a GET.
func proxy(t *testing.T, srv *httptest.Server, body io.Reader) (*http.Response, []byte) {
	t.Helper()
	method := http.MethodGet
	if body != nil {
		method = http.MethodPost
	}
	req, err := http.NewRequest(method, srv.URL+"/v1/answer", body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, got
}

// checkProxied asserts the reply carries want byte for byte with a
// matching Content-Length, or — when want is over the limit — is the
// 502 / 413 the router gives such a body.
func checkProxied(t *testing.T, name string, resp *http.Response, got, want []byte, overCode int) {
	t.Helper()
	if len(want) > maxBodyBytes {
		if resp.StatusCode != overCode {
			t.Errorf("%s: status %d, want %d", name, resp.StatusCode, overCode)
		}
		return
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %.200s", name, resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: body of %d bytes differs from the %d sent", name, len(got), len(want))
	}
	if resp.ContentLength != int64(len(want)) || len(resp.TransferEncoding) != 0 {
		t.Errorf("%s: Content-Length %d, Transfer-Encoding %v, want %d and none",
			name, resp.ContentLength, resp.TransferEncoding, len(want))
	}
}

var bodySizes = []int{0, 1, 511, 512, 513, 64 << 10, 1 << 20, maxBodyBytes, maxBodyBytes + 1}

// TestProxyResponseBodySizes sends replica bodies on both sides of
// every buffer boundary, with and without a declared length, and with
// declarations that are wrong: each arrives byte-identical with its
// true Content-Length, or — past the limit — as today's 502.
func TestProxyResponseBodySizes(t *testing.T) {
	payload := bytes.Repeat([]byte("0123456789abcdef"), maxBodyBytes/16+1)
	type tc struct {
		size     int
		declared int64
	}
	var cases []tc
	for _, n := range bodySizes {
		cases = append(cases, tc{n, int64(n)}, tc{n, -1})
	}
	cases = append(cases,
		tc{1 << 10, maxBodyBytes + 1}, // declared over the limit, small in fact
		tc{1 << 10, 1 << 40},
		tc{64 << 10, 100},   // declared short
		tc{10, 1 << 20},     // declared long
		tc{maxBodyBytes, 0}, // declared empty, at the limit in fact
	)
	for _, c := range cases {
		want := payload[:c.size]
		srv := serveRouter(t, staticTransport{payload: want, declared: c.declared})
		resp, got := proxy(t, srv, nil)
		checkProxied(t, fmt.Sprintf("%d bytes declared %d", c.size, c.declared), resp, got, want, http.StatusBadGateway)
	}
}

// TestProxyRequestBodySizes echoes request bodies of every size back
// through the router, declared and chunked: each arrives intact, and
// one past the limit is still refused with 413.
func TestProxyRequestBodySizes(t *testing.T) {
	payload := bytes.Repeat([]byte("fedcba9876543210"), maxBodyBytes/16+1)
	srv := serveRouter(t, staticTransport{echo: true})
	for _, n := range bodySizes {
		want := payload[:n]
		resp, got := proxy(t, srv, bytes.NewReader(want))
		checkProxied(t, fmt.Sprintf("%d bytes declared", n), resp, got, want, http.StatusRequestEntityTooLarge)
		resp, got = proxy(t, srv, noLen{bytes.NewReader(want)})
		checkProxied(t, fmt.Sprintf("%d bytes chunked", n), resp, got, want, http.StatusRequestEntityTooLarge)
	}
}

// TestPooledBodiesNotShared has concurrent clients fetch distinct
// 1 MiB payloads, with and without hedging: every reply must equal its
// own payload, so no pooled buffer ever backs two replies (run under
// -race to also catch a buffer recycled while still being read).
func TestPooledBodiesNotShared(t *testing.T) {
	const clients, rounds = 8, 12
	payloads := make([][]byte, clients)
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte{byte('a' + i)}, 1<<20)
		copy(payloads[i], strconv.Itoa(i))
	}
	for _, hedge := range []time.Duration{0, time.Millisecond} {
		t.Run(fmt.Sprintf("hedge=%v", hedge), func(t *testing.T) {
			r, ht, reps, closeAll := testCluster(t, 2, func(c *Config) {
				c.HedgeAfter = hedge
				c.AttemptTimeout = 5 * time.Second
			})
			defer closeAll()
			var calls atomic.Int64
			for _, f := range reps {
				ht.Register(f.name, http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
					if req.URL.Path == "/healthz" {
						f.mux.ServeHTTP(w, req)
						return
					}
					b, _ := io.ReadAll(req.Body)
					id, err := strconv.Atoi(string(b))
					if err != nil {
						http.Error(w, err.Error(), http.StatusBadRequest)
						return
					}
					// Every third call is slow, so hedges start and
					// their losers are cancelled mid-flight.
					if calls.Add(1)%3 == 0 {
						select {
						case <-time.After(3 * time.Millisecond):
						case <-req.Context().Done():
							return
						}
					}
					w.Header().Set("Content-Length", strconv.Itoa(len(payloads[id])))
					w.Write(payloads[id])
				}))
			}
			var wg sync.WaitGroup
			for i := 0; i < clients; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					for n := 0; n < rounds; n++ {
						rec := httptest.NewRecorder()
						req := httptest.NewRequest("POST", "/v1/answer", bytes.NewReader([]byte(strconv.Itoa(i))))
						r.Handler().ServeHTTP(rec, req)
						if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), payloads[i]) {
							t.Errorf("client %d: status %d, reply is not its own payload (%.16q)", i, rec.Code, rec.Body.Bytes())
							return
						}
					}
				}(i)
			}
			wg.Wait()
		})
	}
}

// TestDefaultTransportKeepsReplicaConnections drives 16 concurrent
// clients through a router on its default transport to two loopback
// replicas: each replica must see about one connection per client, not
// a fresh dial for every request past net/http's two idle connections
// per host (55-60 per replica). The bound leaves room for the dials a
// request makes before its predecessor's connection is back in the
// idle pool, which net/http does asynchronously.
func TestDefaultTransportKeepsReplicaConnections(t *testing.T) {
	const clients, requests = 16, 50
	var conns [2]atomic.Int64
	var urls []string
	for i := range conns {
		srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if req.URL.Path != "/healthz" {
				io.Copy(io.Discard, req.Body)
				time.Sleep(500 * time.Microsecond)
			}
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, `{"status":"ok"}`)
		}))
		srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
			if s == http.StateNew {
				conns[i].Add(1)
			}
		}
		srv.Start()
		defer srv.Close()
		urls = append(urls, srv.URL)
	}
	r, err := New(Config{Replicas: urls, Policy: "roundrobin", ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	waitFor(t, 5*time.Second, func() bool {
		for _, rs := range r.Status().Replicas {
			if !rs.Healthy {
				return false
			}
		}
		return true
	})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < requests; n++ {
				rec := doRewrite(t, r, rewriteBody)
				if rec.Code != http.StatusOK {
					t.Errorf("status %d: %s", rec.Code, rec.Body.String())
					return
				}
			}
		}()
	}
	wg.Wait()
	for i := range conns {
		if n := conns[i].Load(); n > 2*clients {
			t.Errorf("replica %d accepted %d connections for %d concurrent clients", i, n, clients)
		}
	}
}

// TestCloseKeepsCallerTransportConnections checks that Close leaves a
// caller-supplied transport's idle connections alone: another user of
// the same transport keeps its connection to an unrelated server.
func TestCloseKeepsCallerTransportConnections(t *testing.T) {
	var conns atomic.Int64
	other := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		io.WriteString(w, "ok")
	}))
	other.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	other.Start()
	defer other.Close()
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		io.WriteString(w, `{"status":"ok"}`)
	}))
	defer replica.Close()

	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	get := func() {
		resp, err := client.Get(other.URL)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	get()
	r, err := New(Config{Replicas: []string{replica.URL}, ProbeInterval: time.Hour, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return r.Status().Replicas[0].Healthy })
	r.Close()
	get()
	if n := conns.Load(); n != 1 {
		t.Errorf("the other server accepted %d connections, want 1: Router.Close dropped a connection it does not own", n)
	}
}

// stallReader yields head, then blocks until release is closed and
// fails: a client that declared more than it sends.
type stallReader struct {
	head             []byte
	stalled, release chan struct{}
}

func (s *stallReader) Read(p []byte) (int, error) {
	if len(s.head) > 0 {
		n := copy(p, s.head)
		s.head = s.head[n:]
		return n, nil
	}
	close(s.stalled)
	<-s.release
	return 0, io.ErrUnexpectedEOF
}

// TestStalledRequestDoesNotAllocateDeclaredSize sends a request that
// declares maxBodyBytes, delivers a few bytes and stalls: while it
// stalls, the router must not have allocated anything near the
// declared size, or each such connection would pin 16 MiB of heap.
func TestStalledRequestDoesNotAllocateDeclaredSize(t *testing.T) {
	rt, err := New(Config{Replicas: []string{"http://replica-0"}, ProbeInterval: time.Hour, Transport: staticTransport{echo: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	body := &stallReader{head: []byte(`{"view":`), stalled: make(chan struct{}), release: make(chan struct{})}
	req := httptest.NewRequest("POST", "/v1/views", body)
	req.ContentLength = maxBodyBytes
	rec := httptest.NewRecorder()

	var before, during runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	done := make(chan struct{})
	go func() {
		defer close(done)
		rt.Handler().ServeHTTP(rec, req)
	}()
	<-body.stalled
	runtime.ReadMemStats(&during)
	close(body.release)
	<-done

	if got := during.TotalAlloc - before.TotalAlloc; got >= maxBodyBytes/4 {
		t.Errorf("router allocated %d bytes for a stalled request declaring %d", got, maxBodyBytes)
	}
	if rec.Code != http.StatusBadRequest {
		t.Errorf("status %d for a request cut short, want %d", rec.Code, http.StatusBadRequest)
	}
}

// discardWriter is a reusable ResponseWriter that drops the body.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// benchProxy proxies a 1 MiB reply through a router over tr b.N times.
func benchProxy(b *testing.B, tr http.RoundTripper) {
	rt, err := New(Config{Replicas: []string{"http://replica-0"}, ProbeInterval: time.Hour, Transport: tr})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	h := rt.Handler()
	w := &discardWriter{h: make(http.Header)}
	body := []byte(rewriteBody)
	b.ReportAllocs()
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(w.h)
		req := httptest.NewRequest("POST", "/v1/answer", bytes.NewReader(body))
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			b.Fatalf("status %d", w.code)
		}
	}
}

// BenchmarkProxyLargeBody sends a 1 MiB answer through the router over
// the in-process HandlerTransport, whose recorder copies each body once
// on its own.
func BenchmarkProxyLargeBody(b *testing.B) {
	payload := bytes.Repeat([]byte("x"), 1<<20)
	ht := NewHandlerTransport()
	ht.Register("replica-0", http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(len(payload)))
		w.Write(payload)
	}))
	benchProxy(b, ht)
}

// TestProxyAllocatesLessThanBody guards the router's body path: over a
// transport that copies nothing, proxying a 1 MiB reply must allocate
// less than the reply itself per request. Reading it with io.ReadAll
// costs about five times that.
func TestProxyAllocatesLessThanBody(t *testing.T) {
	res := testing.Benchmark(func(b *testing.B) {
		benchProxy(b, staticTransport{payload: bytes.Repeat([]byte("x"), 1<<20), declared: 1 << 20})
	})
	if got := res.AllocedBytesPerOp(); got >= 1<<20 {
		t.Fatalf("router allocated %d bytes per 1 MiB reply (%d ops), want < %d", got, res.N, 1<<20)
	}
}
