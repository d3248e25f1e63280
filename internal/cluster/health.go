package cluster

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// memberHealth is one member's liveness state as observed by a Client:
// flipped down on transport failures (request path or probe), flipped
// back up only by a successful health probe or a successful forwarded
// request. The read path consults it to order failover candidates — a
// down member is tried last, never skipped entirely, so a stale "down"
// verdict costs latency, not availability.
type memberHealth struct {
	up           atomic.Bool
	consecFails  atomic.Int64
	lastProbeNs  atomic.Int64
	transitionNs atomic.Int64
}

func newMemberHealth() *memberHealth {
	h := &memberHealth{}
	h.up.Store(true) // optimistic: everyone starts up
	return h
}

// markUp records a healthy observation and reports whether this was a
// down→up transition (stamped in transitionNs). A returning member needs
// no kick: the next anti-entropy sweep catches its replicas up.
func (h *memberHealth) markUp() bool {
	h.consecFails.Store(0)
	if !h.up.Swap(true) {
		h.transitionNs.Store(time.Now().UnixNano())
		return true
	}
	return false
}

func (h *memberHealth) markDown() {
	h.consecFails.Add(1)
	if h.up.Swap(false) {
		h.transitionNs.Store(time.Now().UnixNano())
	}
}

// prober polls every member's /healthz on a fixed interval with
// per-member exponential backoff after consecutive failures, so a dead
// member costs one cheap connection attempt per backoff window instead
// of one per interval.
type prober struct {
	c        *Client
	interval time.Duration
	cancel   context.CancelFunc
	done     sync.WaitGroup
}

// start launches the probe loop; stop with prober.stop. Each pass sleeps
// a jittered interval drawn from the client's seeded RNG, so a fleet of
// gateways probing the same members drifts apart instead of hammering
// them in lockstep.
func (p *prober) start() {
	ctx, cancel := context.WithCancel(context.Background())
	p.cancel = cancel
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		p.probeAll(ctx) // immediate first pass: don't serve blind for a tick
		for {
			t := time.NewTimer(p.c.jittered(p.interval))
			select {
			case <-ctx.Done():
				t.Stop()
				return
			case <-t.C:
				p.probeAll(ctx)
			}
		}
	}()
}

func (p *prober) stop() {
	if p.cancel != nil {
		p.cancel()
		p.done.Wait()
	}
}

// probeBackoff is the wait a down member must sit out between probes:
// 2^fails · interval, capped at 8 intervals. A dead member then costs
// one cheap connection attempt per backoff window instead of one per
// interval.
func probeBackoff(interval time.Duration, fails int64) time.Duration {
	backoff := interval << min64(fails, 3)
	if maxBackoff := 8 * interval; backoff > maxBackoff {
		backoff = maxBackoff
	}
	return backoff
}

// probeAll checks every member once, skipping down members still inside
// their backoff window.
func (p *prober) probeAll(ctx context.Context) {
	now := time.Now().UnixNano()
	var wg sync.WaitGroup
	for _, m := range p.c.ring.Members() {
		h := p.c.healthOf(m.Name)
		if !h.up.Load() {
			if now-h.lastProbeNs.Load() < int64(probeBackoff(p.interval, h.consecFails.Load())) {
				continue
			}
		}
		wg.Add(1)
		go func(m Member) {
			defer wg.Done()
			p.probeOne(ctx, m)
		}(m)
	}
	wg.Wait()
}

// probeOne hits m's /healthz with a short timeout and updates its state.
func (p *prober) probeOne(ctx context.Context, m Member) {
	h := p.c.healthOf(m.Name)
	h.lastProbeNs.Store(time.Now().UnixNano())
	pctx, cancel := context.WithTimeout(ctx, p.interval)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, m.Addr+"/healthz", nil)
	if err != nil {
		h.markDown()
		return
	}
	resp, err := p.c.hc.Do(req)
	if err != nil {
		h.markDown()
		return
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		p.c.healthOf(m.Name).markUp()
	} else {
		h.markDown()
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
