package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// serve answers every query with the given status and body.
func serve(t *testing.T, status int, body string) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(status)
		fmt.Fprint(w, body)
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

const (
	sessionLine = `{"event":"session","cache":"hit"}` + "\n"
	planLine    = `{"event":"plan","index":1,"utility":0.5,"plan":"Q(X) :- V1(X)","plan_key":"0"}` + "\n"
	answerLine  = `{"event":"answers","index":1,"answers":["Q(a)"]}` + "\n"
	doneLine    = `{"event":"done","plans":1,"total_answers":1}` + "\n"
)

func TestSessionFailureAccounting(t *testing.T) {
	ok := sessionLine + planLine + answerLine + doneLine
	for _, c := range []struct {
		name    string
		status  int
		body    string
		wantErr string
	}{
		{"complete", http.StatusOK, ok, ""},
		{"spans trailer after done", http.StatusOK, ok + `{"event":"spans"}` + "\n", ""},
		{"overloaded", http.StatusServiceUnavailable, `{"error":{"code":"overloaded","message":"busy"}}`, "status 503"},
		{"error event", http.StatusOK, sessionLine + planLine + `{"event":"error","error":{"code":"internal","message":"boom"}}` + "\n", "internal: boom"},
		{"truncated stream", http.StatusOK, sessionLine + planLine + `{"event":"answers","ind`, "bad event line"},
		{"missing done", http.StatusOK, sessionLine + planLine + answerLine, "without done"},
	} {
		t.Run(c.name, func(t *testing.T) {
			o := session(newClient(), serve(t, c.status, c.body), request{Query: "Q(X) :- r(X)", K: 1})
			switch {
			case c.wantErr == "" && o.Err != nil:
				t.Fatalf("unexpected failure: %v", o.Err)
			case c.wantErr != "" && (o.Err == nil || !strings.Contains(o.Err.Error(), c.wantErr)):
				t.Fatalf("error %v, want one containing %q", o.Err, c.wantErr)
			}
			if c.wantErr == "" && (o.Done == 0 || o.TTFA == 0 || o.FirstPlan == 0 || o.Stream.Answers != 1) {
				t.Fatalf("complete session misread: %+v", o)
			}
		})
	}
}
