package httpapi_test

import (
	"net/http"
	"strings"
	"testing"

	"aalwines/internal/httpapi"
)

// TestOversizedBodies posts a JSON body over the size bound to every route
// that decodes one: each must answer 413 with the body-too-large envelope
// before acting, and the session must stay usable afterwards.
func TestOversizedBodies(t *testing.T) {
	ts := newTestServer(t)
	id := createTestSession(t, ts.URL)
	huge := strings.Repeat("a", 2<<20)
	routes := []struct{ path, body string }{
		{"/api/v1/verify", `{"network":"running-example","query":"` + huge + `"}`},
		{"/api/v1/verify-batch", `{"network":"running-example","queries":["` + huge + `"]}`},
		{"/api/v1/networks/running-example/sweep", `{"depth":1,"invariants":["` + huge + `"]}`},
		{"/api/v1/sessions", `{"network":"` + huge + `"}`},
		{"/api/v1/sessions/" + id + "/deltas", `{"commands":["` + huge + `"]}`},
		{"/api/v1/sessions/" + id + "/verify", `{"query":"` + huge + `"}`},
		{"/api/v1/sessions/" + id + "/verify-batch", `{"queries":["` + huge + `"]}`},
		{"/api/v1/sessions/" + id + "/watch", `{"invariants":["` + huge + `"]}`},
	}
	for _, rt := range routes {
		resp, err := http.Post(ts.URL+rt.path, "application/json", strings.NewReader(rt.body))
		if err != nil {
			t.Fatalf("%s: %v", rt.path, err)
		}
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status = %d, want 413", rt.path, resp.StatusCode)
		}
		if env := decodeEnvelope(t, resp); env.Code != "body-too-large" {
			t.Errorf("%s: code = %q, want body-too-large", rt.path, env.Code)
		}
		resp.Body.Close()
	}
	resp := doJSON(t, http.MethodGet, ts.URL+"/api/v1/sessions/"+id, nil)
	sess := decodeBody[httpapi.SessionJSON](t, resp)
	resp.Body.Close()
	if len(sess.Deltas) != 0 {
		t.Errorf("oversized delta request changed the session: %+v", sess.Deltas)
	}
	resp = doJSON(t, http.MethodPost, ts.URL+"/api/v1/sessions/"+id+"/verify",
		httpapi.VerifyRequest{Query: "<ip> [.#v0] .* [v3#.] <ip> 0"})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("verify after oversized requests: status = %d", resp.StatusCode)
	}
	resp.Body.Close()
}
