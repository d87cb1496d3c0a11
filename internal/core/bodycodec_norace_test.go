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
// list. Not built under the race detector, whose instrumentation moves
// allocation counts.
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
}
