// Package agent is a Ronin-style multi-agent framework: agents are
// reachable only through Agent Deputies that implement a single Deliver
// abstraction, messages travel inside Envelope objects that carry their
// content type and ontology identifier (so the framework is agent-
// communication-language independent), and every agent carries two
// attribute sets — generic Agent Attributes defined by the framework and
// free-form Domain Attributes defined by applications — exactly the split
// the paper describes.
package agent

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync/atomic"
)

// ID names an agent on a platform. IDs are flat strings; a platform routes
// by exact ID.
type ID string

// Envelope is the meta-level message wrapper: "messages ... are embedded
// within Envelope objects during the delivery process ... the type of
// content message and the ontology identifier of the content message are
// also stored."
type Envelope struct {
	// Seq is assigned by the platform on send.
	Seq uint64 `json:"seq"`
	// From and To identify the conversing agents.
	From ID `json:"from"`
	To   ID `json:"to"`
	// Performative is the speech act ("request", "inform", "failure",
	// "advertise", ...) — ACL-neutral.
	Performative string `json:"performative"`
	// ContentType names the encoding of Content ("text/plain",
	// "application/json", "kqml", ...).
	ContentType string `json:"contentType"`
	// Ontology identifies the vocabulary Content is expressed in.
	Ontology string `json:"ontology"`
	// InReplyTo correlates a response with a request Seq.
	InReplyTo uint64 `json:"inReplyTo,omitempty"`
	// Hops counts platform ingress points traversed. Transports
	// increment it when injecting a remote envelope; Send drops
	// envelopes whose hop count exceeds the platform budget so retry
	// storms and route loops cannot circulate forever.
	Hops int `json:"hops,omitempty"`
	// TraceID ties every hop of a conversation together for the trace
	// sink (see internal/obs). Assigned by Send on a tracing platform
	// when zero; replies inherit it, and it crosses the wire with the
	// envelope so remote platforms extend the same causal timeline.
	TraceID uint64 `json:"traceId,omitempty"`
	// Content is the opaque payload.
	Content []byte `json:"content"`
}

// A jsonEncoder is a body that writes its own JSON: compact, the bytes
// json.Marshal would write, and an error where json.Marshal gives one.
type jsonEncoder interface{ EncodeJSON() ([]byte, error) }

// A jsonDecoder is a body that reads its own JSON: it decodes to what
// json.Unmarshal decodes to, and refuses what it refuses.
type jsonDecoder interface{ DecodeJSON([]byte) error }

// NewEnvelope builds an envelope with a JSON-encoded body: compact JSON,
// written by the body itself when it is a jsonEncoder and otherwise by
// json.Marshal, which also compacts a json.RawMessage and refuses an
// invalid one.
//
//lint:hot budget=4
func NewEnvelope(from, to ID, performative, ontology string, body any) (Envelope, error) {
	var content []byte
	var err error
	if b, ok := body.(jsonEncoder); ok {
		content, err = b.EncodeJSON()
	} else {
		content, err = json.Marshal(body)
	}
	if err != nil {
		return Envelope{}, fmt.Errorf("agent: encode envelope body: %w", err)
	}
	return Envelope{
		From: from, To: to,
		Performative: performative,
		ContentType:  "application/json",
		Ontology:     ontology,
		Content:      content,
	}, nil
}

// Decode unmarshals a JSON envelope body into out, by out's own reader when
// it is a jsonDecoder and otherwise by json.Unmarshal; either way invalid
// JSON is refused, into a *json.RawMessage too.
//
//lint:hot budget=2
func (e Envelope) Decode(out any) error {
	if e.ContentType != "application/json" {
		return fmt.Errorf("agent: envelope content type %q is not JSON", e.ContentType)
	}
	if d, ok := out.(jsonDecoder); ok {
		return d.DecodeJSON(e.Content)
	}
	return json.Unmarshal(e.Content, out)
}

// Reply builds a response envelope correlated to e, preserving ontology.
func (e Envelope) Reply(performative string, body any) (Envelope, error) {
	r, err := NewEnvelope(e.To, e.From, performative, e.Ontology, body)
	if err != nil {
		return Envelope{}, err
	}
	r.InReplyTo = e.Seq
	r.TraceID = e.TraceID
	return r, nil
}

// HighPriorityPrefixes lists the ontology prefixes whose envelopes ride
// the priority mailbox lane: telemetry and runtime-control conversations
// must survive data-plane saturation, or the grid goes blind exactly
// when it is overloaded. Classification is by ontology so the priority
// bit needs no wire-format change.
var HighPriorityPrefixes = []string{"pgrid-telemetry", "pgrid-control"}

// HighPriority reports whether this envelope rides the priority lane.
func (e Envelope) HighPriority() bool {
	for _, prefix := range HighPriorityPrefixes {
		if strings.HasPrefix(e.Ontology, prefix) {
			return true
		}
	}
	return false
}

// seqCounter hands out platform-unique sequence numbers.
type seqCounter struct{ n atomic.Uint64 }

func (s *seqCounter) next() uint64 { return s.n.Add(1) }

// Attributes is the two-level attribute model. Agent Attributes use
// framework-defined keys (see the Role* constants); Domain Attributes are
// application-defined and uninterpreted by the framework.
type Attributes struct {
	Agent  map[string]string `json:"agent"`
	Domain map[string]string `json:"domain"`
}

// Framework-defined agent attribute keys and role values.
const (
	AttrRole = "role"

	RoleBroker   = "broker"
	RoleProvider = "service-provider"
	RoleClient   = "client"
	RoleGateway  = "gateway"
)

// Clone deep-copies the attribute sets.
func (a Attributes) Clone() Attributes {
	out := Attributes{Agent: map[string]string{}, Domain: map[string]string{}}
	for k, v := range a.Agent {
		out.Agent[k] = v
	}
	for k, v := range a.Domain {
		out.Domain[k] = v
	}
	return out
}
