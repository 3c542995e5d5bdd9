// Package admission is the multi-tenant front door for galsimd and
// galsim-fleet: per-tenant API keys, token-bucket rate limits, and queued-
// unit quotas, declared in one JSON config file. A Controller answers
// rejected requests itself — 401 for unknown keys, 429 with a Retry-After
// hint for throttles and exhausted quotas — so handlers stay a one-line
// gate:
//
//	tenant, ok := ctrl.Admit(w, r)
//	if !ok {
//	    return
//	}
//
// Everything is observable as the galsim_admission_* metric family, labeled
// per tenant (names come from the operator's config, so label cardinality
// is bounded by the tenant list, never by traffic).
package admission

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"galsim/internal/httpjson"
	"galsim/internal/telemetry"
)

// Error codes carried in rejected responses (see httpjson.ErrorCode).
const (
	CodeUnauthorized = "unauthorized"
	CodeThrottled    = "rate_limited"
	CodeQuota        = "quota_exceeded"
)

// Tenant declares one tenant's identity and limits.
type Tenant struct {
	// Name labels the tenant in logs and metrics; unique, required.
	Name string `json:"name"`
	// Key is the bearer token presented in the Authorization header;
	// unique, required, and never logged.
	Key string `json:"key"`
	// RatePerSec refills this tenant's token bucket (requests/second
	// sustained; 0 = unlimited).
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// Burst is the bucket capacity — how many requests may arrive back to
	// back before the sustained rate applies (default max(RatePerSec, 1)).
	Burst float64 `json:"burst,omitempty"`
	// MaxQueuedUnits caps how many sweep units this tenant may have queued
	// at once across all its in-flight requests (0 = unlimited).
	MaxQueuedUnits int `json:"max_queued_units,omitempty"`
}

// Config is the -tenants file: the full tenant list.
type Config struct {
	Tenants []Tenant `json:"tenants"`
}

// ParseConfig decodes and validates a tenants file.
func ParseConfig(data []byte) (Config, error) {
	var cfg Config
	if err := json.Unmarshal(data, &cfg); err != nil {
		return Config{}, fmt.Errorf("admission: parsing tenants config: %w", err)
	}
	if len(cfg.Tenants) == 0 {
		return Config{}, fmt.Errorf("admission: tenants config declares no tenants")
	}
	names := map[string]bool{}
	keys := map[string]bool{}
	for i, t := range cfg.Tenants {
		if t.Name == "" {
			return Config{}, fmt.Errorf("admission: tenant %d has no name", i)
		}
		if t.Key == "" {
			return Config{}, fmt.Errorf("admission: tenant %q has no key", t.Name)
		}
		if names[t.Name] {
			return Config{}, fmt.Errorf("admission: duplicate tenant name %q", t.Name)
		}
		if keys[t.Key] {
			return Config{}, fmt.Errorf("admission: tenant %q reuses another tenant's key", t.Name)
		}
		if t.RatePerSec < 0 || t.Burst < 0 || t.MaxQueuedUnits < 0 {
			return Config{}, fmt.Errorf("admission: tenant %q has a negative limit", t.Name)
		}
		names[t.Name] = true
		keys[t.Key] = true
	}
	return cfg, nil
}

// LoadConfig reads and validates a tenants file from disk.
func LoadConfig(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, fmt.Errorf("admission: reading tenants config: %w", err)
	}
	return ParseConfig(data)
}

// Options tunes a Controller; the zero value is production defaults.
type Options struct {
	// Now overrides the clock (token-bucket tests).
	Now func() time.Time
	// Metrics receives the galsim_admission_* family (nil skips metrics).
	Metrics *telemetry.Registry
	// Log receives admission decisions at debug/warn level; nil uses
	// slog.Default().
	Log *slog.Logger
}

// tenantState is one tenant's live bucket and quota accounting.
type tenantState struct {
	cfg    Tenant
	tokens float64   // current bucket fill
	last   time.Time // last refill instant
	queued int       // units currently admitted and not yet released
}

// Controller enforces a Config. Safe for concurrent use.
type Controller struct {
	now func() time.Time
	log *slog.Logger

	mu     sync.Mutex
	byKey  map[string]*tenantState
	byName map[string]*tenantState

	requests  telemetry.Counter // labels: tenant, outcome (ok|throttled|quota)
	rejected  telemetry.Counter // label: reason (no_key|unknown_key)
	metricsOn bool
}

// NewController builds a controller over a validated config.
func NewController(cfg Config, opt Options) *Controller {
	now := opt.Now
	if now == nil {
		now = time.Now
	}
	log := opt.Log
	if log == nil {
		log = slog.Default()
	}
	c := &Controller{now: now, log: log,
		byKey: map[string]*tenantState{}, byName: map[string]*tenantState{}}
	start := now()
	for _, t := range cfg.Tenants {
		if t.RatePerSec > 0 && t.Burst == 0 {
			t.Burst = math.Max(t.RatePerSec, 1)
		}
		st := &tenantState{cfg: t, tokens: t.Burst, last: start}
		c.byKey[t.Key] = st
		c.byName[t.Name] = st
	}
	if opt.Metrics != nil {
		c.requests = opt.Metrics.Counter("galsim_admission_requests_total",
			"Admission decisions, by tenant and outcome.", "tenant", "outcome")
		c.rejected = opt.Metrics.Counter("galsim_admission_unauthorized_total",
			"Requests rejected before tenant resolution, by reason.", "reason")
		opt.Metrics.GaugeFunc("galsim_admission_tenants",
			"Tenants declared in the admission config.",
			func() float64 {
				c.mu.Lock()
				defer c.mu.Unlock()
				return float64(len(c.byKey))
			})
		c.metricsOn = true
	}
	return c
}

// AddInternalTenant registers an unlimited tenant with a fresh random key
// and returns that key. Fleet front ends use it for the workers they spawn
// themselves, so operator tenant budgets are never charged for (or able to
// starve) the fleet's own control traffic.
func (c *Controller) AddInternalTenant(name string) string {
	key := "internal-" + telemetry.NewRequestID()
	c.mu.Lock()
	defer c.mu.Unlock()
	st := &tenantState{cfg: Tenant{Name: name, Key: key}, last: c.now()}
	c.byKey[key] = st
	c.byName[name] = st
	return key
}

// keyFrom extracts the presented API key: "Authorization: Bearer <key>"
// canonically, with X-Api-Key accepted for curl ergonomics.
func keyFrom(r *http.Request) string {
	if h := r.Header.Get("Authorization"); h != "" {
		if k, ok := strings.CutPrefix(h, "Bearer "); ok {
			return strings.TrimSpace(k)
		}
		return "" // a malformed scheme is not a key
	}
	return strings.TrimSpace(r.Header.Get("X-Api-Key"))
}

// Admit authenticates and rate-limits one request. On success it returns
// the tenant name; on failure it has already answered the request (401
// unknown/missing key, 429 + Retry-After when the tenant's bucket is dry)
// and returns ok=false.
func (c *Controller) Admit(w http.ResponseWriter, r *http.Request) (tenant string, ok bool) {
	key := keyFrom(r)
	if key == "" {
		if c.metricsOn {
			c.rejected.Inc("no_key")
		}
		httpjson.ErrorCode(w, http.StatusUnauthorized, CodeUnauthorized,
			fmt.Errorf("missing API key; send 'Authorization: Bearer <key>'"))
		return "", false
	}
	c.mu.Lock()
	st, found := c.byKey[key]
	if !found {
		c.mu.Unlock()
		if c.metricsOn {
			c.rejected.Inc("unknown_key")
		}
		c.log.Warn("admission: unknown API key", "path", r.URL.Path)
		httpjson.ErrorCode(w, http.StatusUnauthorized, CodeUnauthorized,
			fmt.Errorf("unknown API key"))
		return "", false
	}
	name := st.cfg.Name
	retry, admitted := c.takeTokenLocked(st)
	c.mu.Unlock()
	if !admitted {
		if c.metricsOn {
			c.requests.Inc(name, "throttled")
		}
		c.log.Warn("admission: tenant throttled", "tenant", name, "path", r.URL.Path,
			"retry_after_s", retry)
		writeRetryAfter(w, retry)
		httpjson.ErrorCode(w, http.StatusTooManyRequests, CodeThrottled,
			fmt.Errorf("tenant %s is over its %.3g req/s rate; retry after %ds", name, st.cfg.RatePerSec, retry))
		return "", false
	}
	if c.metricsOn {
		c.requests.Inc(name, "ok")
	}
	return name, true
}

// takeTokenLocked refills st's bucket to now and takes one token, reporting
// the whole seconds to wait when none is available. c.mu must be held.
func (c *Controller) takeTokenLocked(st *tenantState) (retryAfter int, ok bool) {
	if st.cfg.RatePerSec <= 0 {
		return 0, true // unlimited tenant
	}
	now := c.now()
	if dt := now.Sub(st.last).Seconds(); dt > 0 {
		st.tokens = math.Min(st.cfg.Burst, st.tokens+dt*st.cfg.RatePerSec)
	}
	st.last = now
	if st.tokens >= 1 {
		st.tokens--
		return 0, true
	}
	// Whole seconds until one token accrues, floored at 1 so the client
	// actually backs off.
	wait := (1 - st.tokens) / st.cfg.RatePerSec
	return int(math.Max(1, math.Ceil(wait))), false
}

// AcquireUnits charges n queued units against the tenant's quota. On
// success the caller owes a matching ReleaseUnits once the work leaves the
// queue (use defer). On failure the request has been answered with 429 and
// a Retry-After hint, and false is returned. Unknown tenants (an admission-
// less code path) are unlimited.
func (c *Controller) AcquireUnits(w http.ResponseWriter, tenant string, n int) bool {
	c.mu.Lock()
	st := c.stateByNameLocked(tenant)
	if st == nil || st.cfg.MaxQueuedUnits <= 0 {
		if st != nil {
			st.queued += n
		}
		c.mu.Unlock()
		return true
	}
	if st.queued+n > st.cfg.MaxQueuedUnits {
		queued := st.queued
		c.mu.Unlock()
		if c.metricsOn {
			c.requests.Inc(tenant, "quota")
		}
		c.log.Warn("admission: tenant over queued-unit quota", "tenant", tenant,
			"queued_units", queued, "requested_units", n, "quota", st.cfg.MaxQueuedUnits)
		writeRetryAfter(w, quotaRetryAfterSeconds)
		httpjson.ErrorCode(w, http.StatusTooManyRequests, CodeQuota,
			fmt.Errorf("tenant %s has %d units queued and asked for %d more, over its quota of %d; retry when current sweeps finish",
				tenant, queued, n, st.cfg.MaxQueuedUnits))
		return false
	}
	st.queued += n
	c.mu.Unlock()
	return true
}

// ReleaseUnits returns n units of quota (the work completed or failed).
func (c *Controller) ReleaseUnits(tenant string, n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st := c.stateByNameLocked(tenant); st != nil {
		st.queued -= n
		if st.queued < 0 {
			st.queued = 0
		}
	}
}

// QueuedUnits reports a tenant's currently charged units (tests, stats).
func (c *Controller) QueuedUnits(tenant string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st := c.stateByNameLocked(tenant); st != nil {
		return st.queued
	}
	return 0
}

// quotaRetryAfterSeconds is the Retry-After hint for quota rejections:
// quota frees when queued sweeps finish, which (unlike a token bucket) has
// no closed-form ETA, so a modest constant nudge is honest.
const quotaRetryAfterSeconds = 5

func (c *Controller) stateByNameLocked(tenant string) *tenantState {
	return c.byName[tenant]
}

func writeRetryAfter(w http.ResponseWriter, seconds int) {
	w.Header().Set("Retry-After", fmt.Sprintf("%d", seconds))
}
