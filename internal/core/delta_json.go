package core

import (
	"encoding/json"
	"fmt"
	"strings"

	"depscope/internal/strictjson"
)

// The delta wire format. One codec serves every consumer — the depserver's
// POST /v1/delta body, depscope -timeline stream files and checkpoint
// tooling — so a delta authored for one tool replays in all of them:
//
//	{"ops": [
//	  {"op": "swap", "name": "example.com", "service": "dns",
//	   "from": "Dyn", "to": "AWS DNS"},
//	  {"op": "site-dep", "name": "example.com", "service": "cdn",
//	   "dep": {"class": "multi-third", "providers": ["Cloudflare", "Fastly"]}},
//	  {"op": "site-add", "site": {"name": "new.example", "rank": 101,
//	   "deps": {"dns": {"class": "single-third", "providers": ["Dyn"]}}}},
//	  {"op": "site-remove", "name": "old.example"},
//	  {"op": "provider-set", "provider": {"name": "Fastly", "service": "cdn",
//	   "deps": {"dns": {"class": "single-third", "providers": ["Dyn"]}}}},
//	  {"op": "provider-remove", "name": "Fastly"}
//	]}
//
// Decoding rejects unknown fields everywhere — a typoed key fails loudly
// instead of silently dropping half an edit.
//
// An empty list (ops, providers, chains) decodes as nil, the value the
// encoder omits or writes it from, so a decoded delta encodes and decodes
// again to an equal value.

type wireDelta struct {
	Ops []wireOp `json:"ops"`
}

type wireOp struct {
	Op       string        `json:"op"`
	Name     string        `json:"name,omitempty"`
	Site     *wireSite     `json:"site,omitempty"`
	Service  string        `json:"service,omitempty"`
	Dep      *wireDep      `json:"dep,omitempty"`
	From     string        `json:"from,omitempty"`
	To       string        `json:"to,omitempty"`
	Provider *wireProvider `json:"provider,omitempty"`
}

type wireSite struct {
	Name         string              `json:"name"`
	Rank         int                 `json:"rank,omitempty"`
	Deps         map[string]wireDep  `json:"deps,omitempty"`
	PrivateInfra map[string][]string `json:"private_infra,omitempty"`
	Chains       []ChainEdge         `json:"chains,omitempty"`
}

type wireDep struct {
	Class     string   `json:"class"`
	Providers []string `json:"providers,omitempty"`
}

type wireProvider struct {
	Name    string             `json:"name"`
	Service string             `json:"service"`
	Deps    map[string]wireDep `json:"deps,omitempty"`
}

// ParseService maps a lower-case wire service name onto Service.
func ParseService(s string) (Service, error) {
	switch strings.ToLower(s) {
	case "dns":
		return DNS, nil
	case "cdn":
		return CDN, nil
	case "ca":
		return CA, nil
	case "resource":
		return Resource, nil
	}
	return 0, fmt.Errorf("unknown service %q (want dns, cdn, ca or resource)", s)
}

// ParseDepClass maps a wire class name (the DepClass.String values) onto
// DepClass.
func ParseDepClass(s string) (DepClass, error) {
	for _, c := range []DepClass{ClassNone, ClassPrivate, ClassSingleThird,
		ClassMultiThird, ClassPrivatePlusThird, ClassUnknown} {
		if s == c.String() {
			return c, nil
		}
	}
	return 0, fmt.Errorf("unknown dependency class %q", s)
}

// UnmarshalJSON decodes the wire format from the bytes it is handed,
// rejecting unknown fields, keys that match a field only in another case,
// and unknown op/service/class names.
func (d *Delta) UnmarshalJSON(b []byte) error {
	var w wireDelta
	if err := strictjson.Unmarshal(b, &w); err != nil {
		return fmt.Errorf("decode delta: %w", err)
	}
	nd, err := w.toDelta()
	if err != nil {
		return err
	}
	*d = nd
	return nil
}

// MarshalJSON encodes the wire format.
func (d Delta) MarshalJSON() ([]byte, error) {
	w := wireDelta{Ops: make([]wireOp, 0, len(d.Ops))}
	for i := range d.Ops {
		w.Ops = append(w.Ops, toWireOp(&d.Ops[i]))
	}
	return json.Marshal(w)
}

func (w wireDelta) toDelta() (Delta, error) {
	var d Delta
	for i, wo := range w.Ops {
		op, err := wo.toOp()
		if err != nil {
			return Delta{}, fmt.Errorf("delta op %d: %w", i, err)
		}
		d.Ops = append(d.Ops, op)
	}
	return d, nil
}

func (wo wireOp) toOp() (Op, error) {
	var op Op
	switch wo.Op {
	case "site-add":
		op.Kind = OpSiteAdd
		if wo.Site == nil {
			return op, fmt.Errorf("site-add needs a site payload")
		}
		s, err := wo.Site.toSite()
		if err != nil {
			return op, err
		}
		op.Site = s
	case "site-remove":
		op.Kind = OpSiteRemove
		op.Name = wo.Name
	case "site-dep":
		op.Kind = OpSiteDep
		op.Name = wo.Name
		svc, err := ParseService(wo.Service)
		if err != nil {
			return op, err
		}
		op.Service = svc
		if wo.Dep != nil {
			dep, err := wo.Dep.toDep()
			if err != nil {
				return op, err
			}
			op.Dep = dep
		}
	case "swap":
		op.Kind = OpSwap
		op.Name = wo.Name
		svc, err := ParseService(wo.Service)
		if err != nil {
			return op, err
		}
		op.Service = svc
		op.From, op.To = wo.From, wo.To
	case "provider-set":
		op.Kind = OpProviderSet
		if wo.Provider == nil {
			return op, fmt.Errorf("provider-set needs a provider payload")
		}
		p, err := wo.Provider.toProvider()
		if err != nil {
			return op, err
		}
		op.Provider = p
	case "provider-remove":
		op.Kind = OpProviderRemove
		op.Name = wo.Name
	default:
		return op, fmt.Errorf("unknown op %q", wo.Op)
	}
	return op, nil
}

func (ws *wireSite) toSite() (*Site, error) {
	s := &Site{Name: ws.Name, Rank: ws.Rank}
	var err error
	if len(ws.Deps) > 0 {
		if s.Deps, err = byService(ws.Deps, wireDep.toDep); err != nil {
			return nil, err
		}
	}
	if len(ws.PrivateInfra) > 0 {
		same := func(infra []string) ([]string, error) { return infra, nil }
		if s.PrivateInfra, err = byService(ws.PrivateInfra, same); err != nil {
			return nil, err
		}
	}
	for i, e := range ws.Chains {
		if e.Provider == "" || e.Depth < 1 {
			return nil, fmt.Errorf("chain edge %d: needs a provider and depth >= 1", i)
		}
	}
	if len(ws.Chains) > 0 {
		s.Chains = ws.Chains
	}
	return s, nil
}

func (wp *wireProvider) toProvider() (*Provider, error) {
	svc, err := ParseService(wp.Service)
	if err != nil {
		return nil, err
	}
	deps, err := byService(wp.Deps, wireDep.toDep)
	if err != nil {
		return nil, err
	}
	return &Provider{Name: wp.Name, Service: svc, Deps: deps}, nil
}

// byService converts a wire object keyed by service name. Two keys naming
// the same service ("dns" and "DNS") are refused: which one would win
// depends on map iteration order.
func byService[W, V any](m map[string]W, conv func(W) (V, error)) (map[Service]V, error) {
	out := make(map[Service]V, len(m))
	for name, w := range m {
		svc, err := ParseService(name)
		if err != nil {
			return nil, err
		}
		if _, dup := out[svc]; dup {
			return nil, fmt.Errorf("service %s is keyed twice (keys differ only in case)", svc)
		}
		if out[svc], err = conv(w); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (wd wireDep) toDep() (Dep, error) {
	c, err := ParseDepClass(wd.Class)
	if err != nil {
		return Dep{}, err
	}
	dep := Dep{Class: c}
	if len(wd.Providers) > 0 {
		dep.Providers = wd.Providers
	}
	return dep, nil
}

func toWireOp(op *Op) wireOp {
	wo := wireOp{Op: op.Kind.String(), Name: op.Name}
	switch op.Kind {
	case OpSiteAdd:
		wo.Name = ""
		if op.Site != nil {
			wo.Site = toWireSite(op.Site)
		}
	case OpSiteDep:
		wo.Service = strings.ToLower(op.Service.String())
		if op.Dep.Class != ClassNone || len(op.Dep.Providers) > 0 {
			wo.Dep = &wireDep{Class: op.Dep.Class.String(), Providers: op.Dep.Providers}
		}
	case OpSwap:
		wo.Service = strings.ToLower(op.Service.String())
		wo.From, wo.To = op.From, op.To
	case OpProviderSet:
		wo.Name = ""
		if op.Provider != nil {
			wo.Provider = &wireProvider{
				Name:    op.Provider.Name,
				Service: strings.ToLower(op.Provider.Service.String()),
				Deps:    toWireDeps(op.Provider.Deps),
			}
		}
	}
	return wo
}

func toWireSite(s *Site) *wireSite {
	ws := &wireSite{Name: s.Name, Rank: s.Rank, Deps: toWireDeps(s.Deps)}
	if len(s.PrivateInfra) > 0 {
		ws.PrivateInfra = make(map[string][]string, len(s.PrivateInfra))
		for svc, infra := range s.PrivateInfra {
			ws.PrivateInfra[strings.ToLower(svc.String())] = infra
		}
	}
	ws.Chains = s.Chains
	return ws
}

func toWireDeps(deps map[Service]Dep) map[string]wireDep {
	if len(deps) == 0 {
		return nil
	}
	out := make(map[string]wireDep, len(deps))
	for svc, d := range deps {
		out[strings.ToLower(svc.String())] = wireDep{Class: d.Class.String(), Providers: d.Providers}
	}
	return out
}
