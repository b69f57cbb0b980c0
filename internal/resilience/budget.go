package resilience

import "sync"

// BudgetConfig sizes a RetryBudget. The zero value takes every default.
type BudgetConfig struct {
	// Capacity is the bucket size in tokens (default 16). Each retry or
	// hedge costs one token, so Capacity bounds the burst of extra
	// attempts a sick fleet can generate before fast-failing.
	Capacity float64
	// Refill is the tokens credited per successful exchange (default
	// 0.1): sustained retry amplification is capped at Refill extra
	// attempts per success, ~10% with the default — a meltdown-proof
	// ceiling rather than a tuning knob.
	Refill float64
	// Metrics, when non-nil, receives exhaustion events.
	Metrics *Metrics
}

func (c *BudgetConfig) fillDefaults() {
	if c.Capacity <= 0 {
		c.Capacity = 16
	}
	if c.Refill <= 0 {
		c.Refill = 0.1
	}
}

// RetryBudget is a token bucket capping cluster-wide retry and hedge
// amplification: every extra attempt (anything beyond a batch's first
// placement) costs a token, and only successes mint new ones. When the
// bucket is empty the caller fast-fails instead of piling retries onto a
// fleet that is already sick. Safe for concurrent use.
type RetryBudget struct {
	mu     sync.Mutex
	cfg    BudgetConfig
	tokens float64
}

// NewRetryBudget builds a full bucket.
func NewRetryBudget(cfg BudgetConfig) *RetryBudget {
	cfg.fillDefaults()
	return &RetryBudget{cfg: cfg, tokens: cfg.Capacity}
}

// TryTake spends one token for a retry or hedge. False means the budget
// is exhausted — the caller must not launch the extra attempt.
func (b *RetryBudget) TryTake() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		b.cfg.Metrics.BudgetExhausted()
		return false
	}
	b.tokens--
	return true
}

// Exhausted reports whether TryTake would refuse right now, without
// spending a token. Like a refused TryTake, an empty bucket counts as an
// exhaustion event: the caller is about to fail fast on it.
func (b *RetryBudget) Exhausted() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		b.cfg.Metrics.BudgetExhausted()
		return true
	}
	return false
}

// Credit refills Refill tokens after a successful exchange, up to
// Capacity.
func (b *RetryBudget) Credit() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tokens += b.cfg.Refill
	if b.tokens > b.cfg.Capacity {
		b.tokens = b.cfg.Capacity
	}
}

// Tokens reports the current balance (tests and stats).
func (b *RetryBudget) Tokens() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tokens
}
