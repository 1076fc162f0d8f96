package dnsserver

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"dnsbackscatter/internal/dnssim"
	"dnsbackscatter/internal/dnswire"
	"dnsbackscatter/internal/faults"
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/obs"
	"dnsbackscatter/internal/simtime"
)

// startFinal binds a final authority whose every originator has a PTR.
func startFinal(t *testing.T) *Server {
	t.Helper()
	s, err := Listen("127.0.0.1:0", "final", func(a ipaddr.Addr) dnssim.OriginatorProfile {
		return dnssim.OriginatorProfile{HasName: true, Name: "host-" + a.String() + ".example.net", TTL: simtime.Hour}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestTruncationFallsBackToTCP pins the TC path end to end over real
// sockets: a server that truncates every UDP answer forces the client
// onto TCP, where it gets the full answer; both sides count the
// fallback.
func TestTruncationFallsBackToTCP(t *testing.T) {
	s := startFinal(t)
	reg := obs.NewRegistry()
	s.SetFaults(faults.New(faults.Profile{Name: "tc", Truncate: 1.0}, 1))
	s.SetMetrics(reg)

	c := &Client{Timeout: 500 * time.Millisecond, Obs: reg}
	target, rcode, _, err := c.LookupPTR(s.Addr().String(), ipaddr.MustParse("100.50.3.4"))
	if err != nil {
		t.Fatal(err)
	}
	if rcode != dnswire.RCodeNoError || target != "host-100.50.3.4.example.net" {
		t.Fatalf("TCP fallback answer = %q rcode=%d", target, rcode)
	}
	if got := reg.Counter("dnsclient_tcp_fallbacks_total").Value(); got != 1 {
		t.Errorf("dnsclient_tcp_fallbacks_total = %d, want 1", got)
	}
	if got := reg.Counter("resolver_tcp_fallbacks_total").Value(); got != 1 {
		t.Errorf("resolver_tcp_fallbacks_total = %d, want 1", got)
	}
	la := obs.L("authority", "final")
	if got := reg.Counter("dnsserver_tcp_queries_total", la).Value(); got != 1 {
		t.Errorf("dnsserver_tcp_queries_total = %d, want 1", got)
	}
	if got := reg.Counter("faults_injected_total", obs.L("kind", "truncate")).Value(); got != 1 {
		t.Errorf("faults_injected_total{kind=truncate} = %d, want 1", got)
	}
}

// TestServerDropsFaultedQueries pins the loss path: a blackholed server
// answers nothing, the client backs off through its retries and gives
// up with ErrTimeout, and both the injections and the giveup are
// counted.
func TestServerDropsFaultedQueries(t *testing.T) {
	s := startFinal(t)
	reg := obs.NewRegistry()
	s.SetFaults(faults.New(faults.Profile{Name: "blackhole", Loss: 1.0}, 1))
	s.SetMetrics(reg)

	c := &Client{Timeout: 50 * time.Millisecond, Retries: 1, Obs: reg}
	_, _, sent, err := c.LookupPTR(s.Addr().String(), ipaddr.MustParse("100.50.3.4"))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if sent != 2 {
		t.Errorf("sent = %d datagrams, want 2 (initial + 1 retry)", sent)
	}
	if got := reg.Counter("resolver_retries_total").Value(); got != 1 {
		t.Errorf("resolver_retries_total = %d, want 1", got)
	}
	if got := reg.Counter("resolver_gaveup_total").Value(); got != 1 {
		t.Errorf("resolver_gaveup_total = %d, want 1", got)
	}
	if got := reg.Counter("faults_injected_total", obs.L("kind", "loss")).Value(); got != 2 {
		t.Errorf("faults_injected_total{kind=loss} = %d, want 2", got)
	}
}

// TestServerServFailFault pins the SERVFAIL path: the client sees rcode
// 2, and a recursor treats it as a brief negative-cache entry instead of
// chasing referrals.
func TestServerServFailFault(t *testing.T) {
	s := startFinal(t)
	reg := obs.NewRegistry()
	s.SetFaults(faults.New(faults.Profile{Name: "storm", ServFail: 1.0}, 1))
	s.SetMetrics(reg)

	c := &Client{Timeout: 500 * time.Millisecond, Obs: reg}
	_, rcode, _, err := c.LookupPTR(s.Addr().String(), ipaddr.MustParse("100.50.3.4"))
	if err != nil {
		t.Fatal(err)
	}
	if rcode != dnswire.RCodeServFail {
		t.Fatalf("rcode = %d, want SERVFAIL", rcode)
	}

	r := NewRecursor(s.Addr().String())
	r.Client.Timeout = 400 * time.Millisecond
	_, tr, err := r.ResolvePTR(ipaddr.MustParse("100.50.3.4"), 1000)
	if err == nil {
		t.Fatal("recursor resolved through a SERVFAIL storm")
	}
	if tr.Queries == 0 {
		t.Error("recursor sent no queries")
	}
	// The failure is negative-cached: no new queries inside NegTTL.
	_, tr, _ = r.ResolvePTR(ipaddr.MustParse("100.50.3.4"), 1060)
	if tr.Queries != 0 {
		t.Errorf("SERVFAIL not negative-cached: %d queries on retry", tr.Queries)
	}
}

// TestRecursorSurvivesLossyPath checks graceful degradation end to end:
// with 20% loss at every level, a batch of recursive lookups completes —
// some lookups may fail with ErrTimeout, none may fail any other way,
// and most succeed via retries.
func TestRecursorSurvivesLossyPath(t *testing.T) {
	h := startHierarchy(t)
	plan := faults.New(faults.Profile{Name: "lossy", Loss: 0.20}, 42)
	reg := obs.NewRegistry()
	// The server's drop draw is keyed by its clock's second, so on the
	// wall clock retransmits inside one second share its fate and a short
	// backoff may never leave it. Each server here reads a clock that
	// steps one second per read, making every datagram its own loss draw
	// as on a real lossy path — the independence the bound below assumes.
	for _, s := range []*Server{h.root, h.national, h.final} {
		s.SetFaults(plan)
		var tick atomic.Int64
		s.SetClock(func() simtime.Time { return simtime.Time(tick.Add(1)) })
	}
	h.final.SetMetrics(reg)

	r := newRecursor(h)
	r.Client.Timeout = 120 * time.Millisecond
	r.Client.Retries = 3
	r.Client.Obs = reg
	okCount := 0
	for i := 0; i < 30; i++ {
		orig := ipaddr.FromOctets(100, 50, byte(i), 7)
		target, _, err := r.ResolvePTR(orig, simtime.Time(i))
		if err != nil {
			if !errors.Is(err, ErrTimeout) {
				t.Fatalf("lookup %d failed unexpectedly: %v", i, err)
			}
			continue
		}
		if target == "" {
			t.Fatalf("lookup %d returned empty target without error", i)
		}
		okCount++
	}
	// P(all 4 attempts lost) = 0.2^4 = 0.16%; 30 lookups nearly all land.
	if okCount < 25 {
		t.Errorf("only %d/30 lookups succeeded at 20%% loss with 3 retries", okCount)
	}
	if reg.Counter("faults_injected_total", obs.L("kind", "loss")).Value() == 0 {
		t.Error("no losses injected at the final authority")
	}
}
