package mq

import (
	"math"
	"strings"
	"testing"
)

// TestBrokerSurvivesHugeFetchMax is the regression test for the overflow
// panic: Fetch computed end = offset + max, which for max near MaxInt64
// wraps negative and makes the result slice allocation panic. The clamp
// must work off the remaining message count instead.
func TestBrokerSurvivesHugeFetchMax(t *testing.T) {
	b := NewBroker()
	for i := 0; i < 3; i++ {
		if _, err := b.Produce("t", nil, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	msgs, err := b.Fetch("t", 0, math.MaxInt)
	if err != nil || len(msgs) != 3 {
		t.Fatalf("Fetch(max=MaxInt) = %v, %v", msgs, err)
	}
	// A non-zero offset plus a huge max is the worst case for the old
	// end = offset + max arithmetic.
	msgs, err = b.Fetch("t", 2, math.MaxInt)
	if err != nil || len(msgs) != 1 || msgs[0].Offset != 2 {
		t.Fatalf("Fetch(2, MaxInt) = %v, %v", msgs, err)
	}
}

// TestServerRejectsMalformedFetchFrames drives malformed fetch frames over
// real TCP: every hostile offset/max combination must come back as a
// protocol error (or a sane success), never kill the server, and leave the
// connection usable.
func TestServerRejectsMalformedFetchFrames(t *testing.T) {
	c := startMQ(t)
	for i := 0; i < 3; i++ {
		if _, err := c.Produce("t", nil, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name    string
		req     request
		wantErr string // empty = must succeed
		wantN   int
	}{
		{"negative offset", request{Op: "fetch", Topic: "t", Offset: -1, Max: 1}, "negative offset", 0},
		{"hugely negative offset", request{Op: "fetch", Topic: "t", Offset: math.MinInt64, Max: 1}, "negative offset", 0},
		{"negative max", request{Op: "fetch", Topic: "t", Offset: 0, Max: -5}, "negative max", 0},
		{"huge max overflows", request{Op: "fetch", Topic: "t", Offset: 0, Max: math.MaxInt}, "", 3},
		{"huge max from offset", request{Op: "fetch", Topic: "t", Offset: 1, Max: math.MaxInt}, "", 2},
		{"zero max defaults", request{Op: "fetch", Topic: "t", Offset: 0, Max: 0}, "", 1},
		{"past the end", request{Op: "fetch", Topic: "t", Offset: 99, Max: 1}, "", 0},
		{"empty topic", request{Op: "fetch", Max: 1}, "empty topic", 0},
		{"empty op", request{Topic: "t"}, `unknown op ""`, 0},
	}
	for _, tc := range cases {
		resp, err := c.do(tc.req)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("%s: err = %v, want %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(resp.Messages) != tc.wantN {
			t.Fatalf("%s: %d messages, want %d", tc.name, len(resp.Messages), tc.wantN)
		}
	}
	// The connection survived every malformed frame.
	if _, err := c.Produce("t", nil, []byte("still alive")); err != nil {
		t.Fatalf("connection dead after malformed frames: %v", err)
	}
}
