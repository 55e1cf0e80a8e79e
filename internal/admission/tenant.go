package admission

// Multi-tenant admission. One controller guards one listener's worth
// of traffic; with many engines behind that listener the per-class
// gates alone are not enough: a single hot tenant could hold every
// Read slot and starve its siblings while still being "within class
// limits". AdmitTenant layers two things over Admit:
//
//   - a fairness cap: one tenant may hold at most TenantShare of a
//     class's slots (counting its queued waiters), so the other
//     tenants always have headroom to be admitted;
//   - attribution: per-(tenant, class) admitted/shed/canceled
//     counters, so an operator can see *whose* traffic is being shed
//     instead of one global number.
//
// Tenant state is created lazily on first use and dropped by
// ForgetTenant when the tenant is deleted.

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
)

// DefaultTenantShare is the fraction of a class's slots one tenant may
// occupy when Config.TenantShare is unset.
const DefaultTenantShare = 0.5

// tenantClass is one tenant's live counters for one class. inflight
// counts requests admitted or queued (the population the fairness cap
// bounds).
type tenantClass struct {
	inflight atomic.Int64
	admitted atomic.Uint64
	shed     atomic.Uint64
	canceled atomic.Uint64
}

// tenantState is one tenant's counters across all classes.
type tenantState struct {
	classes [numClasses]tenantClass
}

// AdmitTenant is Admit with the request attributed to a tenant: the
// per-class gate still bounds the total population, and additionally
// the tenant may hold at most its fair share of the class (slots plus
// queue occupancy). A request beyond the tenant's share is shed
// immediately with ErrOverloaded — the class may have free slots, but
// they are being kept available for the other tenants. An empty tenant
// name skips fairness and attribution entirely (the single-tenant
// path).
func (c *Controller) AdmitTenant(ctx context.Context, cl Class, tenant string) (release func(), err error) {
	if tenant == "" {
		return c.Admit(ctx, cl)
	}
	tc := &c.tenantState(tenant).classes[cl]
	if limit := c.tenantCap(cl); limit > 0 {
		if n := tc.inflight.Add(1); n > int64(limit) {
			tc.inflight.Add(-1)
			tc.shed.Add(1)
			c.gates[cl].shed.Add(1)
			return nil, fmt.Errorf("%w (%s: tenant %q at fair-share cap %d)", ErrOverloaded, cl, tenant, limit)
		}
	} else {
		tc.inflight.Add(1)
	}
	rel, err := c.Admit(ctx, cl)
	if err != nil {
		tc.inflight.Add(-1)
		if errors.Is(err, ErrOverloaded) {
			tc.shed.Add(1)
		} else {
			tc.canceled.Add(1)
		}
		return nil, err
	}
	tc.admitted.Add(1)
	var done atomic.Bool
	return func() {
		if done.CompareAndSwap(false, true) {
			tc.inflight.Add(-1)
			rel()
		}
	}, nil
}

// tenantCap is the maximum number of class-cl requests one tenant may
// have admitted or queued: ceil(TenantShare × Slots), at least 1.
// Zero means "no cap" (TenantShare >= 1 disables fairness).
func (c *Controller) tenantCap(cl Class) int {
	if c.share >= 1 {
		return 0
	}
	slots := c.gates[cl].limits.Slots
	limit := int(c.share * float64(slots))
	if float64(limit) < c.share*float64(slots) {
		limit++ // ceil
	}
	if limit < 1 {
		limit = 1
	}
	return limit
}

// tenantState returns (creating if needed) the counters for a tenant.
func (c *Controller) tenantState(tenant string) *tenantState {
	if ts, ok := c.tenants.Load(tenant); ok {
		return ts.(*tenantState)
	}
	ts, _ := c.tenants.LoadOrStore(tenant, &tenantState{})
	return ts.(*tenantState)
}

// ForgetTenant drops a deleted tenant's counters. In-flight requests
// of the old tenant still decrement their captured counters harmlessly;
// a recreated tenant starts from zero only if it is forgotten between.
func (c *Controller) ForgetTenant(tenant string) { c.tenants.Delete(tenant) }

// TenantClassStats is one tenant's live counters for one class.
// Inflight counts admitted plus queued requests (the fairness-capped
// population).
type TenantClassStats struct {
	Inflight int64  `json:"inflight"`
	Admitted uint64 `json:"admitted"`
	Shed     uint64 `json:"shed"`
	Canceled uint64 `json:"canceled"`
}

// TenantStats returns the live counters per tenant per class name.
// Classes a tenant never touched are elided.
func (c *Controller) TenantStats() map[string]map[string]TenantClassStats {
	out := make(map[string]map[string]TenantClassStats)
	c.tenants.Range(func(k, v any) bool {
		ts := v.(*tenantState)
		m := make(map[string]TenantClassStats, numClasses)
		for cl := Class(0); cl < numClasses; cl++ {
			tc := &ts.classes[cl]
			s := TenantClassStats{
				Inflight: tc.inflight.Load(),
				Admitted: tc.admitted.Load(),
				Shed:     tc.shed.Load(),
				Canceled: tc.canceled.Load(),
			}
			if s != (TenantClassStats{}) {
				m[cl.String()] = s
			}
		}
		out[k.(string)] = m
		return true
	})
	return out
}
