package obs

import "time"

// Tee returns an Observer forwarding every call to each non-nil sink. It
// exists for call sites that must feed one pipeline stage into two sinks at
// once — the nocd server aggregates across all requests into its /metrics
// Collector while each request also builds its own RunReport. A span carries
// its own duration, so every sink records the same one and the tee keeps no
// state of its own.
//
// With zero or one live sink no tee is built: Tee returns nil (the
// canonical disabled Observer) or the sink itself.
func Tee(sinks ...Observer) Observer {
	live := make([]Observer, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return tee(live)
}

type tee []Observer

func (t tee) Count(name string, delta int64) {
	for _, s := range t {
		s.Count(name, delta)
	}
}

func (t tee) SpanStart(name string) {
	for _, s := range t {
		s.SpanStart(name)
	}
}

func (t tee) SpanEnd(name string, d time.Duration) {
	for _, s := range t {
		s.SpanEnd(name, d)
	}
}

func (t tee) Event(name, detail string) {
	for _, s := range t {
		s.Event(name, detail)
	}
}
