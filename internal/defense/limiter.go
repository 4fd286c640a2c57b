package defense

import (
	"floc/internal/netsim"
	"floc/internal/units"
)

// burstWindow is the burst allowance granted by rate limiters: a limiter
// admits up to one burstWindow's worth of traffic at the configured rate
// beyond its steady-state budget.
const burstWindow units.Seconds = 0.1

// Limiter is a rate-limiting queue discipline installed at an *upstream*
// router by Pushback's propagation protocol: the congested router asks
// the routers feeding an identified aggregate to drop the aggregate's
// excess before it ever reaches the congested link. A Limiter with no
// rate set is transparent.
type Limiter struct {
	inner netsim.Discipline

	rateBits   units.BitsPerSec // 0 = unlimited
	tokens     units.Bits
	lastRefill float64 //floc:unit seconds

	dropped     int
	offeredBits units.Bits
}

var _ netsim.Discipline = (*Limiter)(nil)

// NewLimiter wraps inner with an (initially unlimited) rate limiter.
func NewLimiter(inner netsim.Discipline) *Limiter {
	return &Limiter{inner: inner}
}

// SetRateBits installs (or, with 0, removes) a rate limit in bits/second.
func (l *Limiter) SetRateBits(rate units.BitsPerSec) {
	if rate <= 0 {
		l.rateBits = 0
		return
	}
	l.rateBits = rate
	// Grant a burst allowance on (re)installation: carry over accumulated
	// credit up to one full burst window at the new rate, and seed at
	// least half a window so a freshly installed limiter does not drop
	// the first packet it sees.
	full := rate.Times(burstWindow)
	if l.tokens > full {
		l.tokens = full
	}
	if l.tokens <= 0 {
		l.tokens = rate.Times(burstWindow / 2)
	}
}

// RateBits returns the current limit (0 = unlimited).
func (l *Limiter) RateBits() units.BitsPerSec { return l.rateBits }

// Dropped returns packets dropped by the limiter itself.
func (l *Limiter) Dropped() int { return l.dropped }

// TakeOfferedBits returns the bits offered to the limiter since the last
// call and resets the counter — the "status" feedback a pushback
// upstream router reports to the congested router, which must size and
// release limits against the aggregate's true demand, not the
// post-limiting residue it sees locally.
func (l *Limiter) TakeOfferedBits() units.Bits {
	v := l.offeredBits
	l.offeredBits = 0
	return v
}

// Admit is the limiter's token check on its own: it counts pkt as
// offered and reports whether the rate limit lets it through, counting a
// drop otherwise. It never touches the inner discipline, so a limiter
// built with a nil inner is a pure admission gate.
// floc:unit now seconds
// floc:hotpath
func (l *Limiter) Admit(pkt *netsim.Packet, now float64) bool {
	bits := units.FromPacket(pkt.Size)
	l.offeredBits += bits
	if l.rateBits > 0 {
		l.tokens += l.rateBits.Times(units.Seconds(now - l.lastRefill))
		maxTokens := l.rateBits.Times(burstWindow)
		if l.tokens > maxTokens {
			l.tokens = maxTokens
		}
		l.lastRefill = now
		if l.tokens < bits {
			l.dropped++
			return false
		}
		l.tokens -= bits
	} else {
		l.lastRefill = now
	}
	return true
}

// Enqueue implements netsim.Discipline: Admit, then the inner discipline.
// floc:unit now seconds
// floc:hotpath
func (l *Limiter) Enqueue(pkt *netsim.Packet, now float64) bool {
	return l.Admit(pkt, now) && l.inner.Enqueue(pkt, now)
}

// Dequeue implements netsim.Discipline.
// floc:unit now seconds
func (l *Limiter) Dequeue(now float64) *netsim.Packet { return l.inner.Dequeue(now) }

// Len implements netsim.Discipline.
func (l *Limiter) Len() int { return l.inner.Len() }
