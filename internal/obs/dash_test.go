package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestDashEndpointServesPage(t *testing.T) {
	tel := New(Config{})
	defer tel.Close()
	srv := httptest.NewServer(tel.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/dash")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/dash returned %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/html") {
		t.Errorf("/dash content type %q", ct)
	}
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteString("\n")
	}
	body := sb.String()
	for _, want := range []string{"campaign dashboard", "EventSource", "/events"} {
		if !strings.Contains(body, want) {
			t.Errorf("/dash page missing %q", want)
		}
	}
}

func TestEventsEndpointStreamsSnapshots(t *testing.T) {
	tel := New(Config{})
	defer tel.Close()
	srv := httptest.NewServer(tel.Handler())
	defer srv.Close()

	c := tel.StartCampaign("permeability", "sharded", "00000000000000aa", 50)
	tel.RunDone(c)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/event-stream") {
		t.Fatalf("/events content type %q", ct)
	}

	// First SSE frame is the connect snapshot; a state change pushes an
	// update frame. Read both.
	sc := bufio.NewScanner(resp.Body)
	frame := func() (event string, data []byte) {
		t.Helper()
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				data = []byte(strings.TrimPrefix(line, "data: "))
			case line == "" && event != "":
				return event, data
			}
		}
		t.Fatalf("SSE stream ended early: %v", sc.Err())
		return "", nil
	}

	ev, data := frame()
	if ev != "snapshot" {
		t.Fatalf("first frame event = %q, want snapshot", ev)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("snapshot frame is not JSON: %v\n%s", err, data)
	}
	if snap.Campaign == nil || snap.Campaign.Campaign != "permeability" {
		t.Errorf("connect snapshot = %+v, want the running campaign", snap.Campaign)
	}

	tel.Live.UpdateShard(ShardStatus{ID: "s0", State: "done", Runs: 50, WallMs: 3})
	ev, data = frame()
	if ev != "update" && ev != "snapshot" {
		t.Fatalf("second frame event = %q", ev)
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("second frame is not JSON: %v", err)
	}
	if len(snap.Shards) == 0 && ev == "update" {
		t.Errorf("update frame carries no shard state: %s", data)
	}
}
