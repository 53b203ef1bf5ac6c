package kvserver

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// TestTracedRequestRetainedServerSide drives traced requests at a server whose
// store carries a request tracer and checks a span tree is retained with the
// client's trace ID and the expected hop kinds.
func TestTracedRequestRetainedServerSide(t *testing.T) {
	cfg := smallCfg()
	cfg.ReqTrace = obs.NewRequestTracer(16)
	_, addr, store := startServer(t, cfg)

	c, err := Dial(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Set([]byte("tk"), []byte("tv")); err != nil {
		t.Fatal(err)
	}
	// A second session provides the covering commit WaitDurable rides
	// (standing in for a production auto-committer).
	go func() {
		time.Sleep(5 * time.Millisecond)
		c2, err := Dial(addr, "")
		if err != nil {
			return
		}
		defer c2.Close()
		c2.Commit(false) //nolint:errcheck
	}()
	serial, token, err := c.WaitDurable()
	if err != nil {
		t.Fatal(err)
	}
	if serial == 0 {
		t.Fatal("wait-durable reported serial 0 after a set")
	}
	if token == "" {
		t.Fatal("wait-durable reported no covering commit token")
	}

	rt := store.RequestTracer()
	traces := rt.Slowest(0)
	if len(traces) == 0 {
		t.Fatal("no traces retained (warmup threshold retains everything)")
	}
	kinds := map[obs.SpanKind]bool{}
	var durTok string
	for _, tr := range traces {
		if tr.TraceID == 0 {
			t.Fatal("retained trace without a trace ID")
		}
		for _, sp := range tr.Spans {
			kinds[sp.Kind] = true
			if sp.Kind == obs.SpanDurWait && sp.Token != "" {
				durTok = sp.Token
			}
		}
	}
	for _, want := range []obs.SpanKind{obs.SpanRequest, obs.SpanQueue, obs.SpanExec, obs.SpanDurWait, obs.SpanRespWrite} {
		if !kinds[want] {
			t.Fatalf("no retained span of kind %v (saw %v)", want, kinds)
		}
	}
	if durTok != token {
		t.Fatalf("durwait span token %q != wait-durable token %q", durTok, token)
	}

	// The OpTrace round-trip returns the same trees as JSON.
	dump, err := c.Trace(16)
	if err != nil {
		t.Fatal(err)
	}
	if len(dump.Traces) == 0 {
		t.Fatal("OpTrace returned no traces")
	}
}

// TestWaitDurableRedirectOnReplica is in the repl integration tests; here we
// just check OpTrace against a server with no tracer fails cleanly.
func TestTraceWithoutTracerErrors(t *testing.T) {
	_, addr, _ := startServer(t, smallCfg())
	c, err := Dial(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Trace(4); err == nil {
		t.Fatal("Trace succeeded against a server without a request tracer")
	}
}
