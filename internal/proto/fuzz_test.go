package proto

import (
	"bufio"
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

// FuzzProtoFrame holds the frame codec to three properties. Arbitrary
// bytes, decoded as a request or a response body or read as a stream of
// frames, end in a value or an error, never a panic. A body that decodes
// re-encodes to the same bytes. And every Request and Response value
// survives encode → decode unchanged, float bits included, with an empty
// payload arriving as nil, as an absent one does.
func FuzzProtoFrame(f *testing.F) {
	floor := Request{RID: 1, JobID: 1, Function: "CascSHA", Args: []byte(`{"rounds":1,"seed":"floor"}`)}
	retried := Request{RID: 7, JobID: 1<<40 + 3, Function: "MatMul", Args: []byte(`{"n":64,"seed":7}`), Attempt: 2}
	long := Request{RID: 3, JobID: 3, Function: strings.Repeat("f", 255)}
	failed := Response{RID: 2, JobID: 9, Err: "node: injected worker fault on live-001", BootMs: 1510.25}
	reqFrame := func(req Request) []byte {
		return encode(f, func(bw *bufio.Writer) error { return WriteRequest(bw, req) })
	}
	failedFrame := encode(f, func(bw *bufio.Writer) error {
		return WriteResponse(bw, Request{RID: failed.RID, JobID: failed.JobID}, failed)
	})
	whole := reqFrame(floor)
	for _, seed := range []struct {
		frame []byte
		req   Request
		resp  Response
	}{
		{reqFrame(floor)[4:], floor, Response{Output: []byte(`{"digest":"ab"}`), BootMs: math.NaN(), ExecMs: 0.031}},
		{reqFrame(retried)[4:], retried, Response{}},
		{reqFrame(long)[4:], long, Response{OverheadMs: math.Inf(-1)}},
		{failedFrame[4:], Request{}, failed},
		{whole[:len(whole)/2], floor, failed}, // a frame cut off mid-Function
	} {
		payload := seed.req.Args
		if payload == nil {
			payload = seed.resp.Output
		}
		f.Add(seed.frame, seed.req.RID, seed.req.JobID, seed.req.Attempt, seed.req.Function,
			math.Float64bits(seed.resp.BootMs), math.Float64bits(seed.resp.OverheadMs), math.Float64bits(seed.resp.ExecMs), seed.resp.Err, payload)
	}
	f.Fuzz(func(t *testing.T, frame []byte, rid, jobID int64, attempt int, function string,
		boot, overhead, exec uint64, errMsg string, payload []byte) {
		if req, err := decodeRequest(frame); err == nil {
			got := encode(t, func(bw *bufio.Writer) error { return WriteRequest(bw, req) })
			if !bytes.Equal(got[4:], frame) {
				t.Fatalf("request body %x re-encodes as %x", frame, got[4:])
			}
		}
		if resp, err := decodeResponse(frame); err == nil {
			got := encode(t, func(bw *bufio.Writer) error {
				return WriteResponse(bw, Request{RID: resp.RID, JobID: resp.JobID}, resp)
			})
			if !bytes.Equal(got[4:], frame) {
				t.Fatalf("response body %x re-encodes as %x", frame, got[4:])
			}
		}
		var scratch []byte
		for br := bufio.NewReader(bytes.NewReader(frame)); ; {
			if _, err := ReadRequest(br, &scratch); err != nil {
				break
			}
		}
		for br := bufio.NewReader(bytes.NewReader(frame)); ; {
			if _, err := ReadResponse(br, &scratch); err != nil {
				break
			}
		}

		want := payload
		payloads := [][]byte{payload}
		if len(payload) == 0 {
			want = nil
			payloads = [][]byte{nil, {}}
		}
		for _, p := range payloads {
			in := Request{RID: rid, JobID: jobID, Function: function, Args: p, Attempt: attempt}
			out, err := decodeRequest(encode(t, func(bw *bufio.Writer) error { return WriteRequest(bw, in) })[4:])
			in.Args = want
			if err != nil || !reflect.DeepEqual(out, in) {
				t.Fatalf("request %+v decodes as %+v, %v", in, out, err)
			}

			resp := Response{RID: rid, JobID: jobID, Output: p, Err: errMsg,
				BootMs: math.Float64frombits(boot), OverheadMs: math.Float64frombits(overhead), ExecMs: math.Float64frombits(exec)}
			back, err := decodeResponse(encode(t, func(bw *bufio.Writer) error {
				return WriteResponse(bw, Request{RID: rid, JobID: jobID}, resp)
			})[4:])
			if err != nil || back.RID != rid || back.JobID != jobID || back.Err != errMsg || !reflect.DeepEqual(back.Output, want) ||
				math.Float64bits(back.BootMs) != boot || math.Float64bits(back.OverheadMs) != overhead || math.Float64bits(back.ExecMs) != exec {
				t.Fatalf("response %+v decodes as %+v, %v", resp, back, err)
			}
		}
	})
}
