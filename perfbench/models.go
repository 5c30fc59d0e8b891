package main

import (
	"bytes"
	"fmt"
	"time"

	"torch2chip/internal/core"
	"torch2chip/internal/data"
	"torch2chip/internal/engine"
	"torch2chip/internal/export"
	"torch2chip/internal/fuse"
	"torch2chip/internal/models"
	"torch2chip/internal/nn"
	"torch2chip/internal/prune"
	"torch2chip/internal/tensor"
)

// imgSize is the side of every served image: samples are [3,32,32].
const imgSize = 32

// sampleShape is the single-sample input shape of every served model.
var sampleShape = []int{3, imgSize, imgSize}

// modelSpec names one servable checkpoint and how its float model is
// built. Weights come from a fixed seed, not the workload seed, so every
// run serves the same programs and only the traffic varies.
type modelSpec struct {
	name     string  // serving name
	arch     string  // resnet20 | mobilenet | vit
	sparsity float64 // one-shot global magnitude pruning target (0 = dense)
	wseed    int64   // weight-initialisation seed
}

var (
	specResNet20 = modelSpec{name: "resnet20", arch: "resnet20", wseed: 9300}
	// specResNet20Mag85 is the engine sparse sweep's 85% magnitude point.
	specResNet20Mag85 = modelSpec{name: "resnet20-mag85", arch: "resnet20", sparsity: 0.85, wseed: 9300}
	// The two mobilenet versions differ in weights, so a reload between
	// them changes the program fingerprint.
	specMobileNetA = modelSpec{name: "mobilenet", arch: "mobilenet", wseed: 9301}
	specMobileNetB = modelSpec{name: "mobilenet", arch: "mobilenet", wseed: 9302}
	specViT        = modelSpec{name: "vit", arch: "vit", wseed: 9303}
)

// calibSet is the calibration data every model is calibrated on: a
// synthetic 10-class image set at the served resolution.
func calibSet() *data.Dataset {
	spec := data.SynthCIFAR10
	spec.Size = imgSize
	train, _ := data.Generate(spec, 20, 0)
	return train
}

// buildFloat constructs the float model of s with realistic BatchNorm
// statistics, pruned to s.sparsity. This is the user's trained model:
// building it happens before the set-up clock starts.
func buildFloat(s modelSpec, calib *data.Dataset) nn.Layer {
	g := tensor.NewRNG(s.wseed)
	var m nn.Layer
	switch s.arch {
	case "resnet20":
		m = models.NewResNet(g, models.ResNet20(calib.NumClasses))
	case "mobilenet":
		m = models.NewMobileNetV1(g, models.MobileNetConfig{WidthMult: 1, NumClasses: calib.NumClasses, Blocks: 4})
	case "vit":
		cfg := models.ViT7(imgSize, calib.NumClasses)
		cfg.Depth = 2
		m = models.NewViT(g, cfg)
	default:
		panic(fmt.Sprintf("perfbench: unknown arch %q", s.arch))
	}
	x, _ := calib.Batch([]int{0, 1, 2, 3, 4, 5, 6, 7})
	m.Forward(x) // training-mode pass sets BatchNorm running statistics
	if s.sparsity > 0 {
		prune.NewMagnitude(prune.PrunableParams(m), s.sparsity).Step(1)
	}
	return m
}

// compiled is one model made servable: the checkpoint bytes uploaded to
// the server, the interpreter oracle, and the per-stage set-up timings.
type compiled struct {
	spec     modelSpec
	ckpt     []byte
	oracle   *fuse.IntModel
	prog     *engine.Program
	compile  time.Duration // Prepare + Calibrate + Compile
	write    time.Duration // WriteJSON
	ckptSize int
}

// compileModel runs the toolkit's compile pipeline on a freshly built
// float model and serializes the checkpoint the server will load.
func compileModel(s modelSpec, m nn.Layer, calib *data.Dataset) (*compiled, error) {
	t0 := time.Now()
	t2c := core.New(m, core.DefaultConfig())
	t2c.Prepare()
	if err := t2c.Calibrate(calib, 10); err != nil {
		return nil, err
	}
	nn.SetTraining(m, false)
	cm, err := t2c.Compile()
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", s.name, err)
	}
	cm.Prog.InShape = append([]int(nil), sampleShape...)
	t1 := time.Now()
	ck := export.NewCheckpoint(cm.Int.IntTensors(), nil)
	ck.Program = cm.Prog.Spec()
	var buf bytes.Buffer
	if err := ck.WriteJSON(&buf); err != nil {
		return nil, fmt.Errorf("write checkpoint %s: %w", s.name, err)
	}
	t2 := time.Now()
	return &compiled{
		spec: s, ckpt: buf.Bytes(), oracle: cm.Int, prog: cm.Prog,
		compile: t1.Sub(t0), write: t2.Sub(t1), ckptSize: buf.Len(),
	}, nil
}
