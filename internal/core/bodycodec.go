package core

import "pervasivegrid/internal/ontology"

// Each broker body writes and reads its own JSON by code, as encoding/json
// would, and otherwise by encoding/json, which finds no method on it
// (DESIGN.md "The discovery bodies' codec").

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

func (r *AdvertiseReply) code(c *ontology.JSON) {
	c.Bool(`{"ok":`, &r.OK)
	if c.Opt(`,"error":`, r.Error != "") {
		c.Str("", &r.Error)
	}
	if c.Opt(`,"leaseId":`, r.LeaseID != 0) {
		c.Uint("", &r.LeaseID)
	}
	if c.Opt(`,"expiresUnix":`, r.Expires != 0) {
		c.Float("", &r.Expires)
	}
	c.Lit("}")
}

func (q *DeregisterRequest) code(c *ontology.JSON) {
	c.Str(`{"name":`, &q.Name)
	c.Lit("}")
}

// EncodeJSON writes its body as json.Marshal does, and DecodeJSON reads
// one as json.Unmarshal does.
func (r DiscoverReply) EncodeJSON() ([]byte, error) {
	return ontology.Encode(r, (*DiscoverReply).code, 64+384*len(r.Matches))
}
func (r *DiscoverReply) DecodeJSON(data []byte) error {
	return ontology.Decode(r, (*DiscoverReply).code, data)
}
func (q DiscoverRequest) EncodeJSON() ([]byte, error) {
	return ontology.Encode(q, (*DiscoverRequest).code, 256)
}
func (q *DiscoverRequest) DecodeJSON(data []byte) error {
	return ontology.Decode(q, (*DiscoverRequest).code, data)
}
func (a AdvertiseRequest) EncodeJSON() ([]byte, error) {
	return ontology.Encode(a, (*AdvertiseRequest).code, 384)
}
func (a *AdvertiseRequest) DecodeJSON(data []byte) error {
	return ontology.Decode(a, (*AdvertiseRequest).code, data)
}
func (r AdvertiseReply) EncodeJSON() ([]byte, error) {
	return ontology.Encode(r, (*AdvertiseReply).code, 64+len(r.Error))
}
func (r *AdvertiseReply) DecodeJSON(data []byte) error {
	return ontology.Decode(r, (*AdvertiseReply).code, data)
}
func (q DeregisterRequest) EncodeJSON() ([]byte, error) {
	return ontology.Encode(q, (*DeregisterRequest).code, 16+len(q.Name))
}
func (q *DeregisterRequest) DecodeJSON(data []byte) error {
	return ontology.Decode(q, (*DeregisterRequest).code, data)
}
