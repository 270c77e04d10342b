package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"pptd/internal/crowd"
	"pptd/internal/stream"
)

// parityBodyCap is the claims body cap both front doors run under in
// TestFrontDoorParity, small enough that one oversized body trips it.
const parityBodyCap = 512

// parityRow is one request fired at both front doors.
type parityRow struct {
	name        string
	method      string
	path        string
	contentType string
	body        []byte
	wantStatus  int
	wantCode    string // "" on 2xx
}

// frontDoorAnswer is what the parity contract compares.
type frontDoorAnswer struct {
	status    int
	code      string // envelope "code"
	header    string // X-Error-Code
	requestID string // X-Request-ID echo
}

func fire(t *testing.T, h http.Handler, row parityRow, requestID string) frontDoorAnswer {
	t.Helper()
	req := httptest.NewRequest(row.method, row.path, bytes.NewReader(row.body))
	if row.contentType != "" {
		req.Header.Set("Content-Type", row.contentType)
	}
	req.Header.Set(crowd.HeaderRequestID, requestID)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	ans := frontDoorAnswer{
		status:    rec.Code,
		header:    rec.Header().Get(crowd.HeaderErrorCode),
		requestID: rec.Header().Get(crowd.HeaderRequestID),
	}
	if rec.Code/100 != 2 {
		var eb crowd.ErrorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
			t.Fatalf("%s: %d body is not the error envelope: %v (%s)", row.name, rec.Code, err, rec.Body)
		}
		ans.code = eb.Code
	}
	return ans
}

// TestFrontDoorParity fires the same requests at a standalone stream
// server's front door and at a coordinator's (over one worker) and
// requires the identical wire answer — status, envelope code,
// X-Error-Code, X-Request-ID echo — for every handler-level refusal:
// both deployments mount one handler set, so nothing here can drift.
func TestFrontDoorParity(t *testing.T) {
	cfg := stream.Config{NumObjects: 2}
	newServer := func(name string) *crowd.StreamServer {
		srv, err := crowd.NewStreamServer(crowd.StreamServerConfig{Name: name, Engine: cfg, MaxRequestBytes: parityBodyCap})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		return srv
	}
	node := newServer("standalone").Handler()

	shard := newServer("shard")
	workerMux := http.NewServeMux()
	workerMux.Handle("/v1/stream/", shard.Handler())
	shard.RegisterCluster(workerMux)
	worker := httptest.NewServer(workerMux)
	t.Cleanup(worker.Close)
	coord, err := NewCoordinator(Config{Name: "parity", Engine: cfg, Workers: []string{worker.URL}, MaxRequestBytes: parityBodyCap})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	t.Cleanup(func() { _ = coord.Close() })
	cluster := coord.Handler()

	const binaryWire = crowd.ContentTypeClaims
	claim := []crowd.Claim{{Object: 0, Value: 1}}
	goodFrame := crowd.AppendClaimFrame(nil, "u1", claim)
	badMagic := append([]byte(nil), goodFrame...)
	badMagic[0] ^= 0xff
	badCRC := append([]byte(nil), goodFrame...)
	badCRC[9] ^= 0xff
	bigJSON := []byte(`{"clientId":"` + strings.Repeat("x", 2*parityBodyCap) + `","claims":[{"object":0,"value":1}]}`)
	bigFrame := crowd.AppendClaimFrame(nil, strings.Repeat("x", 2*parityBodyCap), claim)

	refuse := func(name, method, path string, status int, code string) parityRow {
		return parityRow{name: name, method: method, path: path, wantStatus: status, wantCode: code}
	}
	post := func(name, contentType string, body []byte, status int, code string) parityRow {
		return parityRow{name: name, method: http.MethodPost, path: crowd.PathStreamClaims,
			contentType: contentType, body: body, wantStatus: status, wantCode: code}
	}
	const (
		s400 = http.StatusBadRequest
		s404 = http.StatusNotFound
		s405 = http.StatusMethodNotAllowed
		s409 = http.StatusConflict
		s413 = http.StatusRequestEntityTooLarge
	)
	rows := []parityRow{
		refuse("campaign wrong method", http.MethodPost, crowd.PathStreamCampaign, s405, crowd.CodeMethodNotAllowed),
		refuse("claims wrong method", http.MethodGet, crowd.PathStreamClaims, s405, crowd.CodeMethodNotAllowed),
		refuse("truths wrong method", http.MethodPost, crowd.PathStreamTruths, s405, crowd.CodeMethodNotAllowed),
		refuse("window wrong method", http.MethodGet, crowd.PathStreamWindow, s405, crowd.CodeMethodNotAllowed),
		refuse("bad window", http.MethodGet, crowd.PathStreamTruths+"?window=abc", s400, crowd.CodeBadRequest),
		refuse("negative window", http.MethodGet, crowd.PathStreamTruths+"?window=-2", s400, crowd.CodeBadRequest),
		post("undecodable JSON", "application/json", []byte("{nope"), s400, crowd.CodeBadRequest),
		post("bad frame magic", binaryWire, badMagic, s400, crowd.CodeBadRequest),
		post("bad frame CRC", binaryWire, badCRC, s400, crowd.CodeBadRequest),
		post("over-cap JSON", "application/json", bigJSON, s413, crowd.CodePayloadTooLarge),
		post("over-cap frame", binaryWire, bigFrame, s413, crowd.CodePayloadTooLarge),
		post("empty clientId JSON", "application/json", []byte(`{"clientId":"","claims":[{"object":0,"value":1}]}`), s400, crowd.CodeBadRequest),
		post("empty clientId frame", binaryWire, crowd.AppendClaimFrame(nil, "", claim), s400, crowd.CodeBadRequest),
		refuse("not ready", http.MethodGet, crowd.PathStreamTruths, s404, crowd.CodeNotReady),
		refuse("not ready at window", http.MethodGet, crowd.PathStreamTruths+"?window=1", s404, crowd.CodeNotReady),
		refuse("empty window", http.MethodPost, crowd.PathStreamWindow, s409, crowd.CodeEmptyWindow),
		// One accepted batch per wire and a close, so a window exists.
		post("accepted JSON", "application/json", []byte(`{"clientId":"u0","claims":[{"object":0,"value":1}]}`), http.StatusOK, ""),
		post("accepted frame", binaryWire, goodFrame, http.StatusOK, ""),
		refuse("close", http.MethodPost, crowd.PathStreamWindow, http.StatusOK, ""),
		refuse("unknown window", http.MethodGet, crowd.PathStreamTruths+"?window=99", s404, crowd.CodeUnknownWindow),
		refuse("latest weights", http.MethodGet, crowd.PathStreamTruths+"?weights=1", http.StatusOK, ""),
		refuse("latest weights by number", http.MethodGet, crowd.PathStreamTruths+"?window=1&weights=true", http.StatusOK, ""),
		refuse("bad weights", http.MethodGet, crowd.PathStreamTruths+"?weights=maybe", s400, crowd.CodeBadRequest),
		// A second window: the first stays readable by number, its
		// per-user weights do not.
		post("accepted into window 2", binaryWire, crowd.AppendClaimFrame(nil, "u2", claim), http.StatusOK, ""),
		refuse("close 2", http.MethodPost, crowd.PathStreamWindow, http.StatusOK, ""),
		refuse("older window", http.MethodGet, crowd.PathStreamTruths+"?window=1", http.StatusOK, ""),
		refuse("older window's weights", http.MethodGet, crowd.PathStreamTruths+"?window=1&weights=1", s404, crowd.CodeUnknownWindow),
	}
	for i, row := range rows {
		id := fmt.Sprintf("parity-%02d", i)
		want := frontDoorAnswer{status: row.wantStatus, code: row.wantCode, header: row.wantCode, requestID: id}
		if got := fire(t, node, row, id); got != want {
			t.Errorf("%s: standalone answered %+v, want %+v", row.name, got, want)
		}
		if got := fire(t, cluster, row, id); got != want {
			t.Errorf("%s: coordinator answered %+v, want %+v", row.name, got, want)
		}
	}

	// The weights contract, bodies and all, through both doors: the close
	// reply carries the map, ?weights=1 returns exactly that map, the
	// default read returns none, and an older window's weights are refused
	// with the same envelope, message included.
	for name, h := range map[string]http.Handler{"standalone": node, "coordinator": cluster} {
		do := func(method, path string, body []byte, out any) int {
			t.Helper()
			req := httptest.NewRequest(method, path, bytes.NewReader(body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
				t.Fatalf("%s: %s %s: %v (%s)", name, method, path, err, rec.Body)
			}
			return rec.Code
		}
		var receipt crowd.StreamReceipt
		for _, id := range []string{"u0", "u1", "u3"} {
			body := []byte(`{"clientId":"` + id + `","claims":[{"object":0,"value":` + id[1:] + `},{"object":1,"value":2}]}`)
			if code := do(http.MethodPost, crowd.PathStreamClaims, body, &receipt); code != http.StatusOK {
				t.Fatalf("%s: submit %s = %d", name, id, code)
			}
		}
		var closed, latest, plain crowd.StreamWindowInfo
		if code := do(http.MethodPost, crowd.PathStreamWindow, nil, &closed); code != http.StatusOK || closed.Window != 3 {
			t.Fatalf("%s: close = %d, window %d", name, code, closed.Window)
		}
		if len(closed.Weights) != 4 || closed.ActiveUsers != 4 {
			t.Errorf("%s: close reply carries %d weights for %d active users, want 4", name, len(closed.Weights), closed.ActiveUsers)
		}
		if closed.EffectiveUsers <= 0 || closed.EffectiveUsers > 4 || closed.MaxWeightShare < 0.25 || closed.MaxWeightShare > 1 {
			t.Errorf("%s: effectiveUsers %v, maxWeightShare %v for 4 users", name, closed.EffectiveUsers, closed.MaxWeightShare)
		}
		do(http.MethodGet, crowd.PathStreamTruths+"?weights=1", nil, &latest)
		if !reflect.DeepEqual(latest, closed) {
			t.Errorf("%s: ?weights=1 = %+v\nclose replied   %+v", name, latest, closed)
		}
		do(http.MethodGet, crowd.PathStreamTruths, nil, &plain)
		closed.Weights = nil
		if !reflect.DeepEqual(plain, closed) {
			t.Errorf("%s: default read = %+v\nwant the close reply minus weights %+v", name, plain, closed)
		}
		var refusal crowd.ErrorBody
		code := do(http.MethodGet, crowd.PathStreamTruths+"?window=2&weights=1", nil, &refusal)
		want := crowd.ErrorBody{V: crowd.ErrorEnvelopeVersion, Code: crowd.CodeUnknownWindow,
			Message: "crowd: window not in retained history: weights of window 2 (kept for the latest window only)"}
		if code != s404 || refusal != want {
			t.Errorf("%s: ?window=2&weights=1 = %d %+v, want 404 %+v", name, code, refusal, want)
		}
	}
}
