package experiment

import (
	"fmt"

	"cic/internal/eval"
)

// figures are the KindFigure experiments: the single-shot analytic
// figures of internal/eval that are not sweeps, by config name.
var figures = map[string]func(eval.Config) (eval.Figure, error){
	"heisenberg":   eval.Heisenberg,
	"cancellation": eval.Cancellation,
	"clutter":      eval.PreambleClutter,
	"snr":          eval.SNRDistribution,
	"maps":         eval.DeploymentMaps,
	"spectra":      eval.SpectraDemo,
	"temporal":     eval.TemporalProximity,
}

// Figures runs a KindFigure config: one analytic single-shot figure of
// internal/eval, parameterised from the config's channel, payload length
// and base seed. These are not trial matrices (no journal, no CIs) — they
// exist so every committed figure of the paper regenerates from a config
// file.
func Figures(cfg *Config) ([]eval.Figure, error) {
	if cfg.Kind != KindFigure {
		return nil, fmt.Errorf("experiment: Figures wants a %q config", KindFigure)
	}
	run, ok := figures[cfg.Figure]
	if !ok {
		// Validate guarantees the name; keep the error path total.
		return nil, fmt.Errorf("experiment: unknown figure %q", cfg.Figure)
	}
	fig, err := run(eval.Config{
		Frame:      cfg.FrameConfig(),
		PayloadLen: cfg.PayloadLen,
		Seed:       cfg.Seeds.Base,
	})
	if err != nil {
		return nil, fmt.Errorf("experiment: figure %s: %w", cfg.Figure, err)
	}
	return []eval.Figure{fig}, nil
}
