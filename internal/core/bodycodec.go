package core

import (
	"encoding/json"

	"pervasivegrid/internal/ontology"
)

// A body is a broker body that writes and reads its own JSON by code, as
// encoding/json would, and otherwise by encoding/json, which finds no
// method on it (DESIGN.md "The discovery bodies' codec").
type body[T any] interface {
	*T
	code(*ontology.JSON)
}

func encodeJSON[T any, P body[T]](v T, size int) ([]byte, error) {
	c := ontology.JSON{B: make([]byte, 0, size)}
	if P(&v).code(&c); c.Bad {
		return json.Marshal(v)
	}
	return c.B, nil
}

func decodeJSON[T any, P body[T]](v P, data []byte) error {
	if v != nil {
		was, c := *v, ontology.JSON{B: data, Read: true}
		if v.code(&c); c.End() {
			return nil
		}
		*v = was
	}
	return json.Unmarshal(data, v)
}

func (r *DiscoverReply) code(c *ontology.JSON) {
	c.Bool(`{"ok":`, &r.OK)
	if c.Opt(`,"error":`, r.Error != "") {
		c.Str("", &r.Error)
	}
	ontology.List(c, `,"matches":`, &r.Matches, func(m *DiscoveredService) {
		c.Profile(`{"profile":`, &m.Profile)
		c.Float(`,"score":`, &m.Score)
		c.Lit("}")
	})
	c.Lit("}")
}

func (q *DiscoverRequest) code(c *ontology.JSON) {
	c.Request(`{"request":`, &q.Request)
	if c.Opt(`,"max":`, q.Max != 0) {
		c.Int("", &q.Max)
	}
	c.Lit("}")
}

func (a *AdvertiseRequest) code(c *ontology.JSON) {
	c.Profile(`{"profile":`, &a.Profile)
	c.Float(`,"ttlSeconds":`, &a.TTLSeconds)
	c.Lit("}")
}

// EncodeJSON writes its body as json.Marshal does, and DecodeJSON reads
// one as json.Unmarshal does.
func (r DiscoverReply) EncodeJSON() ([]byte, error)      { return encodeJSON(r, 64+384*len(r.Matches)) }
func (r *DiscoverReply) DecodeJSON(data []byte) error    { return decodeJSON(r, data) }
func (q DiscoverRequest) EncodeJSON() ([]byte, error)    { return encodeJSON(q, 256) }
func (q *DiscoverRequest) DecodeJSON(data []byte) error  { return decodeJSON(q, data) }
func (a AdvertiseRequest) EncodeJSON() ([]byte, error)   { return encodeJSON(a, 384) }
func (a *AdvertiseRequest) DecodeJSON(data []byte) error { return decodeJSON(a, data) }
