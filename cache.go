package e2nvm

import (
	"e2nvm/internal/dap"
	"e2nvm/internal/hotcache"
)

// This file is the facade's integration of the hot-key cache
// (internal/hotcache): cachedKV wraps the serving surface once at open when
// Config.CacheEnabled, and nothing else in the facade knows a cache exists.
// Every write invalidates the key after the store write and before
// returning, so an acknowledged write can never be shadowed by a stale
// cached value. Replication events below the wrapper — failover replays
// acknowledged writes, live migration copies records verbatim — never
// change a key's value, so invalidation at this level is sufficient even
// on a replicated store.

// cacheKeyTemp bridges the cache's hotness statistics into the placement
// policy (kvstore.Options.KeyTemp): hot keys — by total touch frequency,
// reads and writes — steer to low-wear segment clusters, keys the cache
// holds but does not consider hot are cold and soak up worn clusters,
// and unknown keys keep the pure content-similarity placement.
func cacheKeyTemp(c *hotcache.Cache) func(uint64) dap.Temp {
	return func(key uint64) dap.Temp {
		present, hot := c.Hotness(key)
		switch {
		case hot:
			return dap.TempHot
		case present:
			return dap.TempCold
		default:
			return dap.TempNone
		}
	}
}

// cachedKV is the hot-key cache as a wrapper over the serving surface:
// reads try the cache first and fill it on a miss, writes pass through and
// then invalidate.
type cachedKV struct {
	next  kv
	cache *hotcache.Cache
}

func (c cachedKV) Put(key uint64, value []byte) error {
	err := c.next.Put(key, value)
	c.cache.Invalidate(key)
	return err
}

func (c cachedKV) Delete(key uint64) (bool, error) {
	ok, err := c.next.Delete(key)
	c.cache.Invalidate(key)
	return ok, err
}

// GetInto serves key from the cache when possible; a miss reads the store
// under a fill token taken before the store read, so a fill racing a
// concurrent write self-demotes instead of caching a stale value (see the
// hotcache package docs for the full protocol).
func (c cachedKV) GetInto(key uint64, dst []byte) ([]byte, bool, error) {
	if v, ok := c.cache.GetInto(key, dst); ok {
		return v, true, nil
	}
	token := c.cache.BeginFill(key)
	v, ok, err := c.next.GetInto(key, dst)
	if err != nil || !ok {
		return v, ok, err
	}
	c.cache.CompleteFill(key, v, token)
	return v, true, nil
}
