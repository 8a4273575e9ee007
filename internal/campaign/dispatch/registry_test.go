package dispatch

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/campaign"
)

// TestFleetShutdownClosesSilentRegistrant pins that a peer which
// connects to the accept-in connector and never says hello cannot
// hold the coordinator: the fleet degrades after ConnectWait, and
// closing the registry closes the half-open handshake too — with
// heartbeats off (no read deadline at all) and on (a deadline of three
// beats, far longer than ConnectWait).
func TestFleetShutdownClosesSilentRegistrant(t *testing.T) {
	const n = 16
	want := serialBaseline(t, n)
	for name, heartbeat := range map[string]time.Duration{"no-heartbeat": -1, "default-heartbeat": 0} {
		t.Run(name, func(t *testing.T) {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addr := l.Addr().String()
			l.Close()

			// The silent peer: connect as soon as the coordinator listens,
			// then send nothing and wait for the coordinator to hang up.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			go func() {
				for ctx.Err() == nil {
					c, err := net.Dial("tcp", addr)
					if err != nil {
						time.Sleep(5 * time.Millisecond)
						continue
					}
					defer c.Close()
					c.Read(make([]byte, 1))
					return
				}
			}()

			var log bytes.Buffer
			f := testFleet(n)
			f.Listen, f.Heartbeat, f.ConnectWait, f.Log = addr, heartbeat, 300*time.Millisecond, &log
			type result struct {
				out string
				err error
			}
			done := make(chan result, 1)
			start := time.Now()
			go func() {
				out, err := campaign.Execute[int, int, string](context.Background(), newCubes(n), f, nil)
				done <- result{out, err}
			}()
			select {
			case r := <-done:
				if r.err != nil {
					t.Fatalf("campaign failed: %v\nlog:\n%s", r.err, log.String())
				}
				if r.out != want {
					t.Errorf("output diverged from serial\n got %s\nwant %s", r.out, want)
				}
				if elapsed := time.Since(start); elapsed > 3*time.Second {
					t.Errorf("campaign took %s; a silent registrant must not hold shutdown past ConnectWait", elapsed)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("campaign still running after 5s: a silent registrant holds the coordinator\nlog:\n%s", log.String())
			}
		})
	}
}
