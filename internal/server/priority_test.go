package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

const prioScriptTemplate = `{"priority":"%s","steps":[
	{"op":"anon","s":"a"},
	{"op":"prefill","s":"a","text":"hi there "},
	{"op":"generate","s":"a","max_tokens":2},
	{"op":"remove","s":"a"}
]}`

// TestSubmitPriorityField checks the v2 surface round-trips an explicit
// priority and that invalid lanes fail with the typed validation error.
func TestSubmitPriorityField(t *testing.T) {
	srv, clk := newServerWith(t, 2000, Options{})
	defer clk.Shutdown()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, lane := range []string{"interactive", "normal", "batch"} {
		j := submitV2(t, ts, "alice", strings.Replace(prioScriptTemplate, "%s", lane, 1))
		if j.Priority != lane {
			t.Fatalf("submitted lane %q, response says %q", lane, j.Priority)
		}
	}
	// Absent priority defaults to normal.
	j := submitV2(t, ts, "alice", shortScript)
	if j.Priority != "normal" {
		t.Fatalf("default lane = %q, want normal", j.Priority)
	}

	// Invalid lane: typed validation_error on both v1 and v2.
	bad := strings.Replace(prioScriptTemplate, "%s", "urgent", 1)
	for _, path := range []string{"/v1/programs", "/v2/programs"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		var e apiError
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || e.Code != CodeValidation {
			t.Fatalf("%s bad priority: status %d code %q, want 400 %s", path, resp.StatusCode, e.Code, CodeValidation)
		}
		if !strings.Contains(e.Error, "priority") {
			t.Fatalf("%s error does not name the field: %q", path, e.Error)
		}
	}

	// The completions wrapper accepts the same field and validates it the
	// same way.
	resp, err := http.Post(ts.URL+"/v1/completions", "application/json",
		strings.NewReader(`{"prompt":"hi","max_tokens":2,"priority":"warp"}`))
	if err != nil {
		t.Fatalf("completions: %v", err)
	}
	var e apiError
	json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || e.Code != CodeValidation {
		t.Fatalf("completions bad priority: status %d code %q", resp.StatusCode, e.Code)
	}
}

// TestTenantPriorityDefaulting checks the per-tenant knob: a tenant
// configured for the batch lane gets it by default, an explicit request
// field still wins, and other tenants keep the server default.
func TestTenantPriorityDefaulting(t *testing.T) {
	srv, clk := newServerWith(t, 2000, Options{
		TenantPriority: map[string]string{"offline-eval": "batch"},
	})
	defer clk.Shutdown()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if j := submitV2(t, ts, "offline-eval", shortScript); j.Priority != "batch" {
		t.Fatalf("tenant default lane = %q, want batch", j.Priority)
	}
	explicit := strings.Replace(prioScriptTemplate, "%s", "interactive", 1)
	if j := submitV2(t, ts, "offline-eval", explicit); j.Priority != "interactive" {
		t.Fatalf("explicit lane overridden: %q", j.Priority)
	}
	if j := submitV2(t, ts, "someone-else", shortScript); j.Priority != "normal" {
		t.Fatalf("unconfigured tenant lane = %q, want normal", j.Priority)
	}
}

// TestStatsLanes checks /v1/stats exposes per-lane queue-delay and
// preemption counters alongside the priority policy.
func TestStatsLanes(t *testing.T) {
	srv, clk := newServerWith(t, 2000, Options{})
	defer clk.Shutdown()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	j := submitV2(t, ts, "alice", strings.Replace(prioScriptTemplate, "%s", "interactive", 1))
	waitTerminal(t, ts, j.JobID)

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	defer resp.Body.Close()
	var body struct {
		Sched struct {
			PriorityPolicy string `json:"priority_policy"`
			Preemptions    *int64 `json:"preemptions"`
			Lanes          []struct {
				Lane   string `json:"lane"`
				Calls  int64  `json:"calls"`
				P99    *int64 `json:"delay_p99_ns"`
				P50    *int64 `json:"delay_p50_ns"`
				Preems *int64 `json:"preemptions"`
			} `json:"lanes"`
		} `json:"sched"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	st := body.Sched
	if st.PriorityPolicy != "lanes" {
		t.Fatalf("priority_policy = %q", st.PriorityPolicy)
	}
	if st.Preemptions == nil {
		t.Fatal("stats missing preemptions counter")
	}
	if len(st.Lanes) != 3 {
		t.Fatalf("lanes = %+v, want 3 entries", st.Lanes)
	}
	var interCalls int64
	for _, l := range st.Lanes {
		if l.P99 == nil || l.P50 == nil || l.Preems == nil {
			t.Fatalf("lane %q missing histogram/preemption fields", l.Lane)
		}
		if l.Lane == "interactive" {
			interCalls = l.Calls
		}
	}
	if interCalls == 0 {
		t.Fatal("interactive lane recorded no calls after an interactive job")
	}
}
