package loadgen

import "testing"

func TestSynthesizeObjectsValidate(t *testing.T) {
	objs := SynthesizeObjects(25, 9)
	if len(objs) != 25 {
		t.Fatalf("got %d objects", len(objs))
	}
	for i, o := range objs {
		if err := o.Validate(); err != nil {
			t.Fatalf("object %d invalid: %v", i, err)
		}
	}
	again := SynthesizeObjects(25, 9)
	for i := range objs {
		if objs[i].Command != again[i].Command || objs[i].Summaries[0].MeanMiBps != again[i].Summaries[0].MeanMiBps {
			t.Fatalf("object %d not deterministic across runs", i)
		}
	}
}
