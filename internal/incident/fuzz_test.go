package incident

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzParseScenario drives the scenario decoder (depscope -incident files,
// POST /incident bodies) with arbitrary bytes. A document either fails to
// parse, or parses again once re-encoded.
func FuzzParseScenario(f *testing.F) {
	for _, name := range PresetNames() {
		sc, _ := Preset(name)
		b, err := json.Marshal(sc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"name":"a","targets":{"providers":["dynect.net"]}}`))
	f.Add([]byte(`{"name":"a","targets":{"providers":["dynect.net"]}} {"garbage"`))
	f.Add([]byte(`{"name":"x","targets":{"top_k":3,"top_k_service":"dns"},"severity":0.5}`))
	f.Add([]byte(`{"name":"x","tragets":{}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := ParseScenario(bytes.NewReader(data))
		if err != nil {
			return
		}
		b, err := json.Marshal(sc)
		if err != nil {
			t.Fatalf("marshal %+v: %v", sc, err)
		}
		if _, err := ParseScenario(bytes.NewReader(b)); err != nil {
			t.Fatalf("re-encoded scenario %s no longer parses: %v", b, err)
		}
	})
}

// FuzzParseSweep drives the sweep decoder (depscope -sweep files, POST
// /v1/sweep bodies) the same way.
func FuzzParseSweep(f *testing.F) {
	for _, name := range SweepPresetNames() {
		sp, _ := SweepPreset(name)
		b, err := json.Marshal(sp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"name":"x","scenarios":10,"base_prob":0.1}`))
	f.Add([]byte(`{"name":"x","scenarios":10} {"garbage"`))
	f.Add([]byte(`{"name":"x","recovery":{"steps":4,"mean_minutes":30}}`))
	f.Add([]byte(`{"name":"x","scnearios":10}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := ParseSweep(bytes.NewReader(data))
		if err != nil {
			return
		}
		b, err := json.Marshal(sp)
		if err != nil {
			t.Fatalf("marshal %+v: %v", sp, err)
		}
		if _, err := ParseSweep(bytes.NewReader(b)); err != nil {
			t.Fatalf("re-encoded sweep %s no longer parses: %v", b, err)
		}
	})
}
