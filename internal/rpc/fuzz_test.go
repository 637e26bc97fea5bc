package rpc

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// frame is a length-prefixed payload, as writeFrame emits it.
func frame(tb testing.TB, payload []byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := writeFrame(&buf, payload); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// reframe encodes v, frames it, reads the frame back and decodes it
// into out — one trip across the wire.
func reframe(t *testing.T, v, out any) {
	t.Helper()
	payload, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("accepted envelope %+v does not re-encode: %v", v, err)
	}
	got, err := readFrame(bytes.NewReader(frame(t, payload)))
	if err != nil {
		t.Fatalf("re-encoded frame does not read back: %v", err)
	}
	if err := json.Unmarshal(got, out); err != nil {
		t.Fatalf("re-encoded envelope %q does not decode: %v", got, err)
	}
}

// canonical is the form a raw body takes after one re-encode (the
// encoder compacts and HTML-escapes raw messages).
func canonical(raw json.RawMessage) json.RawMessage {
	if raw == nil {
		return nil
	}
	b, err := json.Marshal(raw)
	if err != nil {
		return raw
	}
	return b
}

// FuzzRPCFrame feeds arbitrary bytes to the frame reader and the
// request/response envelope decoders both ends of a connection run. The
// contract under hostile input: an error or a value — never a panic,
// never an allocation beyond MaxFrame — and any accepted envelope
// survives re-encoding: framed, read and decoded again, it is the same
// value. The seed corpus (testdata/fuzz/FuzzRPCFrame) holds a frame of
// each envelope the shard protocol sends, plus truncated and oversize
// frames.
func FuzzRPCFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		var req request
		if json.Unmarshal(payload, &req) == nil {
			var again request
			reframe(t, req, &again)
			req.Body = canonical(req.Body)
			if !reflect.DeepEqual(req, again) {
				t.Fatalf("request changed across a re-encode: %+v -> %+v", req, again)
			}
		}
		var resp response
		if json.Unmarshal(payload, &resp) == nil {
			var again response
			reframe(t, resp, &again)
			resp.Body = canonical(resp.Body)
			if !reflect.DeepEqual(resp, again) {
				t.Fatalf("response changed across a re-encode: %+v -> %+v", resp, again)
			}
		}
	})
}
