package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nadroid/internal/corpus"
	"nadroid/internal/dexasm"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body interface{}) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestAnalyzeConnectBotDexasmAndCacheHit is the acceptance scenario:
// ConnectBot submitted as dexasm over loopback HTTP returns the paper's
// 13 warnings as JSON, and an identical resubmission is a cache hit.
func TestAnalyzeConnectBotDexasmAndCacheHit(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	app, ok := corpus.ByName("ConnectBot")
	if !ok {
		t.Fatal("missing corpus app")
	}
	src := dexasm.Format(app.Build())
	req := AnalyzeRequest{Dexasm: src}

	resp, data := postJSON(t, ts.URL+"/v1/analyze", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var res ResultWire
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("bad result JSON: %v", err)
	}
	if res.App != "ConnectBot" {
		t.Errorf("app = %q, want ConnectBot", res.App)
	}
	if res.Stats.AfterUnsound != 13 || len(res.Warnings) != 13 {
		t.Errorf("warnings = %d (stats %d), want the paper's 13",
			len(res.Warnings), res.Stats.AfterUnsound)
	}
	if res.Cached {
		t.Error("first submission must not be a cache hit")
	}
	if res.Timing.DetectionMS <= 0 {
		t.Error("timing must be populated")
	}

	// Resubmit with cosmetic dexasm differences: comments and blank
	// lines must not split the cache entry (content addressing is over
	// the canonical re-format).
	req.Dexasm = "# resubmission\n\n" + src
	resp, data = postJSON(t, ts.URL+"/v1/analyze", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var res2 ResultWire
	if err := json.Unmarshal(data, &res2); err != nil {
		t.Fatal(err)
	}
	if !res2.Cached {
		t.Error("identical resubmission must be served from cache")
	}
	if len(res2.Warnings) != 13 {
		t.Errorf("cached warnings = %d, want 13", len(res2.Warnings))
	}

	_, metrics := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		"nadroid_cache_hits_total 1",
		"nadroid_cache_misses_total 1",
		"nadroid_jobs_done_total 1",
		`nadroid_phase_latency_count{phase="detection"} 1`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}

	// Different options → different cache key → a fresh run.
	req.Options = OptionsWire{SkipUnsoundFilters: true}
	resp, data = postJSON(t, ts.URL+"/v1/analyze", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var res3 ResultWire
	if err := json.Unmarshal(data, &res3); err != nil {
		t.Fatal(err)
	}
	if res3.Cached {
		t.Error("different options must not share a cache entry")
	}
	if res3.Stats.AfterUnsound != 14 {
		t.Errorf("sound-only survivors = %d, want 14", res3.Stats.AfterUnsound)
	}
}

// TestAsyncJobLifecycle submits async and polls the job to completion.
func TestAsyncJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	resp, data := postJSON(t, ts.URL+"/v1/analyze?async=true", AnalyzeRequest{App: "ToDoList"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var jw JobWire
	if err := json.Unmarshal(data, &jw); err != nil {
		t.Fatal(err)
	}
	if jw.ID == "" {
		t.Fatal("async submission must return a job id")
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		_, data = getBody(t, ts.URL+"/v1/jobs/"+jw.ID)
		if err := json.Unmarshal(data, &jw); err != nil {
			t.Fatal(err)
		}
		if jw.State == StateDone {
			break
		}
		if jw.State == StateFailed || jw.State == StateCanceled {
			t.Fatalf("job ended %s: %s", jw.State, jw.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", jw.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if jw.Result == nil || jw.Result.App != "ToDoList" {
		t.Fatalf("done job must carry its result: %+v", jw)
	}

	resp, _ = getBody(t, ts.URL+"/v1/jobs/nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

// TestCancelInFlightJob cancels a running analysis via DELETE and
// expects the cancellation-aware pipeline to abort it (Mms is the
// corpus's slowest app; its detection phase alone gives a >100ms
// cancellation window).
func TestCancelInFlightJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	resp, data := postJSON(t, ts.URL+"/v1/analyze?async=true", AnalyzeRequest{
		App:     "Mms",
		Options: OptionsWire{Validate: true, MaxSchedules: 1_000_000},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var jw JobWire
	if err := json.Unmarshal(data, &jw); err != nil {
		t.Fatal(err)
	}

	// Wait until it is actually in flight, then cancel.
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, data = getBody(t, ts.URL+"/v1/jobs/"+jw.ID)
		if err := json.Unmarshal(data, &jw); err != nil {
			t.Fatal(err)
		}
		if jw.State != StateQueued {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
	}
	if jw.State != StateRunning {
		t.Fatalf("job state %s before cancel, want running", jw.State)
	}
	httpReq, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+jw.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := http.DefaultClient.Do(httpReq); err != nil {
		t.Fatal(err)
	}

	for {
		_, data = getBody(t, ts.URL+"/v1/jobs/"+jw.ID)
		if err := json.Unmarshal(data, &jw); err != nil {
			t.Fatal(err)
		}
		if jw.State != StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cancel never took effect")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if jw.State != StateCanceled {
		t.Fatalf("job state %s, want canceled", jw.State)
	}
	if jw.Result != nil {
		t.Error("canceled job must not carry a result")
	}

	_, metrics := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(string(metrics), "nadroid_jobs_canceled_total 1") {
		t.Errorf("metrics missing canceled counter:\n%s", metrics)
	}
}

// TestPerJobDeadline submits with a timeout far too small for the
// analysis and expects a canceled (deadline-aborted) job.
func TestPerJobDeadline(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	resp, data := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{
		App:       "Mms",
		TimeoutMS: 1,
	})
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("1ms deadline must not complete an Mms run: %s", data)
	}
	var ae apiError
	if err := json.Unmarshal(data, &ae); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ae.Error, "deadline") {
		t.Errorf("error %q does not mention the deadline", ae.Error)
	}
}

func TestAppsHealthzAndBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, data := getBody(t, ts.URL+"/v1/apps")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("apps: status %d", resp.StatusCode)
	}
	var apps []AppWire
	if err := json.Unmarshal(data, &apps); err != nil {
		t.Fatal(err)
	}
	if len(apps) != 27 {
		t.Errorf("apps = %d, want the 27-app corpus", len(apps))
	}
	seen := false
	for _, a := range apps {
		if a.Name == "ConnectBot" && a.TrueHarmful == 13 {
			seen = true
		}
	}
	if !seen {
		t.Error("corpus listing must include ConnectBot with 13 seeded bugs")
	}

	resp, data = getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), "ok") {
		t.Errorf("healthz: %d %q", resp.StatusCode, data)
	}

	for name, body := range map[string]interface{}{
		"neither":     AnalyzeRequest{},
		"both":        AnalyzeRequest{App: "ConnectBot", Dexasm: "app x\n"},
		"unknown app": AnalyzeRequest{App: "NoSuchApp"},
		"bad dexasm":  AnalyzeRequest{Dexasm: "class oops"},
	} {
		resp, _ := postJSON(t, ts.URL+"/v1/analyze", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestMalformedDexasmRejected submits programs the parser once let
// through to a panic: a duplicate method (panicked in the handler) and
// a class that extends itself (parsed, then panicked in cha.New inside
// a pool worker and took the daemon down). Both must be a 400, and the
// service must still answer afterwards.
func TestMalformedDexasmRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for name, src := range map[string]string{
		"duplicate method": "app a\nmanifest {\n  activity A/Main main\n}\nclass A/Main extends android/app/Activity {\n  method onCreate(1) {\n    return\n  }\n  method onCreate(1) {\n    return\n  }\n}\n",
		"cyclic hierarchy": "app a\nmanifest {\n  activity A/Main main\n}\nclass A/Main extends A/Main {\n}\n",
	} {
		resp, data := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Dexasm: src})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, resp.StatusCode, data)
		}
	}
	resp, data := getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), "ok") {
		t.Errorf("healthz after malformed input: %d %q", resp.StatusCode, data)
	}
}

// TestShutdownDrainsAndRejects verifies graceful shutdown: in-flight
// work completes, later submissions are turned away.
func TestShutdownDrainsAndRejects(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, data := postJSON(t, ts.URL+"/v1/analyze?async=true", AnalyzeRequest{App: "ToDoList"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var jw JobWire
	if err := json.Unmarshal(data, &jw); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	_, data = getBody(t, ts.URL+"/v1/jobs/"+jw.ID)
	if err := json.Unmarshal(data, &jw); err != nil {
		t.Fatal(err)
	}
	if jw.State != StateDone {
		t.Errorf("drained job state = %s, want done", jw.State)
	}

	// Cache hits are still served during shutdown (they cost nothing)…
	resp, data = postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{App: "ToDoList"})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-shutdown cached submit: status %d, want 200", resp.StatusCode)
	}
	var cached ResultWire
	if err := json.Unmarshal(data, &cached); err != nil {
		t.Fatal(err)
	}
	if !cached.Cached {
		t.Error("post-shutdown hit must come from the cache")
	}
	// …but anything needing a worker is turned away.
	resp, _ = postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{App: "Browser"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown submit: status %d, want 503", resp.StatusCode)
	}
}

// TestConcurrentSubmissions hammers the sync endpoint from several
// goroutines (race-detector fodder for the pool + cache).
func TestConcurrentSubmissions(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 64})

	apps := []string{"ToDoList", "ToDoList", "Swiftnotes", "Swiftnotes", "ClipStack", "ClipStack"}
	errc := make(chan error, len(apps))
	for _, name := range apps {
		go func(name string) {
			buf, err := json.Marshal(AnalyzeRequest{App: name})
			if err != nil {
				errc <- err
				return
			}
			resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(buf))
			if err != nil {
				errc <- err
				return
			}
			data, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				errc <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errc <- fmt.Errorf("%s: status %d: %s", name, resp.StatusCode, data)
				return
			}
			var res ResultWire
			if err := json.Unmarshal(data, &res); err != nil {
				errc <- err
				return
			}
			if res.App != name {
				errc <- fmt.Errorf("got app %q, want %q", res.App, name)
				return
			}
			errc <- nil
		}(name)
	}
	for range apps {
		if err := <-errc; err != nil {
			t.Error(err)
		}
	}

	_, metrics := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(string(metrics), "nadroid_queue_depth 0") {
		t.Errorf("queue must drain to zero:\n%s", metrics)
	}
}
