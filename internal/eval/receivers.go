package eval

import (
	"fmt"

	"cic"
	"cic/internal/baseline/stdlora"
	"cic/internal/frame"
	"cic/internal/obs"
	"cic/internal/rx"
)

// Receiver is one evaluated gateway: a cic.Receiver under its figure name.
type Receiver struct {
	name string
	r    *cic.Receiver
}

// Name identifies the receiver in evaluation output.
func (r Receiver) Name() string { return r.name }

// Receive decodes every packet in the source and returns the records in
// the scoring form.
func (r Receiver) Receive(src rx.SampleSource) ([]rx.Decoded, error) {
	pkts, err := r.r.DecodeSource(src)
	if err != nil {
		return nil, fmt.Errorf("eval: %s: %w", r.name, err)
	}
	out := make([]rx.Decoded, len(pkts))
	for i, p := range pkts {
		out[i] = rx.Decoded{
			Packet:       &rx.Packet{Start: p.Start, CFOHz: p.CFO, SNRdB: p.SNR},
			HeaderOK:     p.OK,
			CRCOK:        p.OK,
			Payload:      p.Payload,
			FECCorrected: p.FECCorrected,
		}
	}
	return out, nil
}

// ReceiverNames lists the paper's four-receiver comparison in its order:
// the default receiver set of a sweep.
func ReceiverNames() []string { return []string{"CIC", "FTrack", "Choir", "LoRa"} }

// receiverOptions maps every ReceiverByName name to its cic options.
var receiverOptions = map[string][]cic.Option{
	"CIC":             nil,
	"CIC-(CFO)":       {cic.WithoutCFOFilter()},
	"CIC-(Power)":     {cic.WithoutPowerFilter()},
	"CIC-(Power,CFO)": {cic.WithoutCFOFilter(), cic.WithoutPowerFilter()},
	"FTrack":          {cic.WithAlgorithm(cic.AlgorithmFTrack)},
	"Choir":           {cic.WithAlgorithm(cic.AlgorithmChoir)},
	"LoRa":            {cic.WithAlgorithm(cic.AlgorithmLoRa)},
	"Strawman-CIC":    {cic.WithAlgorithm(cic.AlgorithmStrawman)},
}

// ReceiverByName builds a single named receiver from the paper's
// comparison set ("CIC", "FTrack", "Choir", "LoRa"), the CIC ablation
// variants of Figs 36–37 ("CIC-(CFO)", "CIC-(Power)", "CIC-(Power,CFO)")
// or the two-sub-symbol ICSS of Fig 13 ("Strawman-CIC"). The experiment
// harness uses this so a config can declare any subset. reg, when
// non-nil, instruments the "CIC" receiver.
func ReceiverByName(cfg frame.Config, workers int, name string, reg *obs.Registry) (Receiver, error) {
	opts, ok := receiverOptions[name]
	if !ok {
		return Receiver{}, fmt.Errorf("eval: unknown receiver %q (want one of CIC, FTrack, Choir, LoRa, Strawman-CIC, or a CIC ablation variant)", name)
	}
	if name == "CIC" && reg != nil {
		opts = []cic.Option{cic.WithMetrics(reg)}
	}
	return newReceiver(cfg, workers, name, opts...)
}

// newReceiver builds a cic.Receiver for a frame configuration.
func newReceiver(fc frame.Config, workers int, name string, opts ...cic.Option) (Receiver, error) {
	cfg := cic.Config{
		SpreadingFactor: fc.Chirp.SF,
		Bandwidth:       fc.Chirp.Bandwidth,
		Oversampling:    fc.Chirp.OSR,
		CodingRate:      int(fc.PHY.CR),
		PayloadCRC:      fc.PHY.HasCRC,
		LowDataRate:     fc.PHY.LowDataRate,
		ImplicitHeader:  fc.PHY.ImplicitHeader,
		ImplicitLength:  fc.PHY.ImplicitLength,
		SyncWord:        fc.SyncWord,
	}
	r, err := cic.NewReceiver(cfg, append([]cic.Option{cic.WithWorkers(workers)}, opts...)...)
	if err != nil {
		return Receiver{}, fmt.Errorf("eval: %s receiver: %w", name, err)
	}
	return Receiver{name: name, r: r}, nil
}

// DetectionScanner is a named preamble-detection strategy: the unit the
// detection figures (Figs 32–35) compare. Scan returns the detected
// packets for a rendered run.
type DetectionScanner struct {
	Name string
	Scan func(src rx.SampleSource) []*rx.Packet
}

// DetectionScanners builds the three detection strategies of Figs 32–35:
// CIC's down-chirp scan, FTrack's multi-peak up-chirp scan, and standard
// LoRa's locked single-packet up-chirp receive. payloadLen fixes the
// packet lengths the LoRa capture filter needs.
func DetectionScanners(cfg frame.Config, payloadLen int) ([]DetectionScanner, error) {
	det, err := rx.NewDetector(cfg, rx.DetectorOptions{})
	if err != nil {
		return nil, fmt.Errorf("eval: detector: %w", err)
	}
	detFT, err := rx.NewDetector(cfg, rx.DetectorOptions{UpchirpTopK: 3})
	if err != nil {
		return nil, fmt.Errorf("eval: FTrack detector: %w", err)
	}
	return []DetectionScanner{
		{Name: "CIC", Scan: det.ScanDownchirp},
		{Name: "FTrack", Scan: detFT.ScanUpchirp},
		{Name: "LoRa", Scan: func(src rx.SampleSource) []*rx.Packet {
			up := clonePackets(det.ScanUpchirp(src))
			setLengths(cfg, payloadLen, up)
			return stdlora.CaptureFilter(cfg, up)
		}},
	}, nil
}
