//go:build !race

package core

import (
	"encoding/json"
	"testing"
)

// TestDiscoveryCodecAllocs pins the direct codec on a 5-match reply:
// encoding allocates 3 times (encoding/json: 56), the buffer and the two
// values a generic call moves to the heap, the body's copy and its codec;
// decoding allocates 65 times (encoding/json: 103), for the codec, the
// strings, lists and maps of the five profiles and the growth of the match
// list. A lease reply and a withdrawal encode in the same 3 (encoding/json:
// 2, but in twice the time) and decode in 2 and 3 (encoding/json: 5 and
// 6): the target, the codec and a withdrawal's name. Not built under the race detector, whose
// instrumentation moves allocation counts.
func TestDiscoveryCodecAllocs(t *testing.T) {
	reply := codecReply()
	data, err := json.Marshal(reply)
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() { _, _ = reply.EncodeJSON() }); got != 3 {
		t.Errorf("encoding a 5-match reply allocates %v times, pinned at 3", got)
	}
	got := testing.AllocsPerRun(100, func() {
		var r DiscoverReply
		if err := r.DecodeJSON(data); err != nil {
			t.Fatal(err)
		}
	})
	if got != 65 {
		t.Errorf("decoding a 5-match reply allocates %v times, pinned at 65", got)
	}

	for _, c := range []struct {
		name           string
		body           jsonBody
		fresh          func() interface{ DecodeJSON([]byte) error }
		encode, decode float64
	}{
		{"lease reply", codecLease(), func() interface{ DecodeJSON([]byte) error } { return new(AdvertiseReply) }, 3, 2},
		{"withdrawal", DeregisterRequest{Name: "svc-0042"}, func() interface{ DecodeJSON([]byte) error } { return new(DeregisterRequest) }, 3, 3},
	} {
		data, err := json.Marshal(c.body)
		if err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(100, func() { _, _ = c.body.EncodeJSON() }); got != c.encode {
			t.Errorf("encoding a %s allocates %v times, pinned at %v", c.name, got, c.encode)
		}
		if got := testing.AllocsPerRun(100, func() { _ = c.fresh().DecodeJSON(data) }); got != c.decode {
			t.Errorf("decoding a %s allocates %v times, pinned at %v", c.name, got, c.decode)
		}
	}
}
