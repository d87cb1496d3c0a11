// Package rawsend is a pgridlint fixture: raw platform sends in a
// package that is on the retry-required list.
package rawsend

import (
	"time"

	"pervasivegrid/internal/agent"
)

// Bad sends without the retry layer.
func Bad(p *agent.Platform, env agent.Envelope) {
	_ = p.Send(env) // want rawsend
}

// BadCall opens a conversation that one dropped envelope kills.
func BadCall(p *agent.Platform) {
	_, _ = agent.Call(p, "peer", "request", "fixture", nil, time.Second) // want rawsend
}

// BadContext sends through the handler context.
func BadContext(ctx *agent.Context, env agent.Envelope) {
	_ = ctx.Send(env) // want rawsend
}

// BadMethodValue hands the raw Send on as a value.
func BadMethodValue(p *agent.Platform) func(agent.Envelope) error {
	return p.Send // want rawsend
}

// node embeds the platform, which promotes its Send.
type node struct{ *agent.Platform }

// BadPromoted sends through the promoted method.
func BadPromoted(n node, env agent.Envelope) {
	_ = n.Send(env) // want rawsend
}

// Good rides the retry layer.
func Good(p *agent.Platform, env agent.Envelope) {
	_ = agent.SendRetry(p, env, time.Second, agent.RetryPolicy{})
}

// Suppressed is a deliberate fire-and-forget send.
func Suppressed(p *agent.Platform, env agent.Envelope) {
	//lint:ignore rawsend fixture: local fire-and-forget by design
	_ = p.Send(env)
}
