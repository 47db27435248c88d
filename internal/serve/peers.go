package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"

	"repro/internal/obs"
)

// ForwardedHeader marks a request as already forwarded by a peer. A replica
// receiving it always handles the request locally — single-hop loop
// protection: even replicas with disagreeing ring views (a rolling restart,
// a misconfigured member list) can bounce a request at most once, and the
// worst outcome is a redundant synthesis, never a forwarding loop.
const ForwardedHeader = "X-Nocd-Forwarded"

// ringPointsPerMember is the number of virtual nodes each replica projects
// onto the hash ring. 64 keeps the key-space split within a few percent of
// even for small fleets while the ring stays tiny (3 replicas = 192 points).
const ringPointsPerMember = 64

// peerRing is the consistent-hash view of the fleet: every replica builds
// the same ring from the same member URL list, so all replicas agree on
// which one owns any request key. Ownership moves only for keys adjacent to
// a changed member — adding or removing a replica remaps ~1/N of the key
// space instead of reshuffling everything.
type peerRing struct {
	self   string
	points []ringPoint
}

type ringPoint struct {
	hash uint64
	url  string
}

// hash64 is the ring's hash: the first 8 bytes of SHA-256, which every
// replica computes identically with no seed or process state.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// newPeerRing builds the ring over members (base URLs; trailing slashes are
// normalized away, duplicates and empties dropped). self identifies this
// replica's own URL; it does not have to appear in members — a replica
// outside the ring forwards everything — but fleet deployments list every
// replica, self included, identically on every member. Returns nil when the
// member list is empty, which disables sharding.
func newPeerRing(self string, members []string) *peerRing {
	seen := make(map[string]bool, len(members))
	var urls []string
	for _, m := range members {
		m = strings.TrimRight(strings.TrimSpace(m), "/")
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		urls = append(urls, m)
	}
	if len(urls) == 0 {
		return nil
	}
	r := &peerRing{
		self:   strings.TrimRight(strings.TrimSpace(self), "/"),
		points: make([]ringPoint, 0, len(urls)*ringPointsPerMember),
	}
	for _, u := range urls {
		for i := 0; i < ringPointsPerMember; i++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", u, i)), url: u})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].url < r.points[j].url
	})
	return r
}

// owner returns the member URL owning key: the first ring point at or after
// the key's hash, wrapping at the top.
func (r *peerRing) owner(key string) string {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].url
}

// SetPeers (re)configures consistent-hash sharding: self is this replica's
// own base URL, peers the full fleet membership (every replica lists the
// same URLs, self included). An empty peer list disables sharding. Safe to
// call while serving; in-flight requests keep the ring they started with.
func (s *Server) SetPeers(self string, peers []string) {
	s.ring.Store(newPeerRing(self, peers))
}

// forward relays a request for key to the key's owner when that owner is
// another replica: a design POST (body is the request) or a GET
// /v1/design/{key} replay (body is nil), so a design cached anywhere in the
// fleet is fetchable from every replica. ok=false means forwarding does not
// apply (no ring, we own the key) or the owner was unreachable — the caller
// falls back to local handling, so a down replica degrades the fleet to
// extra work, never to unavailability.
func (s *Server) forward(ctx context.Context, method, path, key string, body []byte) (itemResult, bool) {
	ring := s.ring.Load()
	if ring == nil {
		return itemResult{}, false
	}
	owner := ring.owner(key)
	if owner == ring.self {
		return itemResult{}, false
	}
	req, err := http.NewRequestWithContext(ctx, method, owner+path, bytes.NewReader(body))
	if err != nil {
		return itemResult{}, false
	}
	req.Header.Set("Content-Type", "application/json")
	return s.relay(req, ring.self, key)
}

// relay executes a forwarded request and maps the peer's response onto an
// itemResult. Transport failures count on serve.forward_error and report
// ok=false (fall back locally); any HTTP response from the owner —
// including its 4xx/5xx envelopes — is authoritative and relayed. A 200 body
// is compacted here, once, into the form a batch row embeds; one that is not
// JSON is no design and counts as a transport failure.
func (s *Server) relay(req *http.Request, self, key string) (itemResult, bool) {
	req.Header.Set(ForwardedHeader, self)
	resp, err := s.client.Do(req)
	if err != nil {
		if req.Context().Err() != nil {
			obs.Count(s.col, "serve.client_gone", 1)
			return itemResult{status: StatusClientClosedRequest}, true
		}
		obs.Count(s.col, "serve.forward_error", 1)
		return itemResult{}, false
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		obs.Count(s.col, "serve.forward_error", 1)
		return itemResult{}, false
	}
	obs.Count(s.col, "serve.forwarded", 1)
	res := itemResult{
		status: resp.StatusCode,
		key:    resp.Header.Get("X-Nocd-Pattern-Hash"),
		cache:  resp.Header.Get("X-Nocd-Cache"),
		warm:   resp.Header.Get("X-Nocd-Warm"),
	}
	if res.key == "" {
		res.key = key
	}
	if resp.StatusCode == http.StatusOK {
		var row bytes.Buffer
		if err := json.Compact(&row, body); err != nil {
			obs.Count(s.col, "serve.forward_error", 1)
			return itemResult{}, false
		}
		if res.cache == "hit" {
			obs.Count(s.col, "serve.store_peer_hit", 1)
		} else {
			obs.Count(s.col, "serve.store_peer_miss", 1)
		}
		res.body, res.row = body, row.Bytes()
		return res, true
	}
	// Relay the owner's error envelope; a non-envelope body (e.g. a 405
	// from the mux) degrades to a generic peer_error.
	var env ErrorResponse
	if json.Unmarshal(body, &env) == nil && env.Error.Code != "" {
		res.errCode, res.errMsg = env.Error.Code, env.Error.Message
	} else {
		res.errCode, res.errMsg = "peer_error", strings.TrimSpace(string(body))
	}
	return res, true
}
