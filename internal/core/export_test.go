package core

// CachedProbs returns the access and send probabilities p holds for its
// current window.
func CachedProbs(p *Packet) (access, send float64) { return p.win.access.P(), p.win.send }

// SameState reports whether a and b share one configuration and hold
// identical window states.
func SameState(a, b *Packet) bool { return *a == *b }
