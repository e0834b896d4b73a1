package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"cic"
	"cic/internal/obs"
	"cic/internal/server"
)

// registryTotals merges the snapshots of several registries: counters
// and labeled counter series summed, histograms with equal bounds
// merged bucket by bucket.
type registryTotals struct {
	c map[string]float64
	h map[string]obs.HistogramSnapshot
}

func totals(regs ...*cic.Metrics) registryTotals {
	t := registryTotals{c: map[string]float64{}, h: map[string]obs.HistogramSnapshot{}}
	for _, reg := range regs {
		s := reg.Snapshot()
		for k, v := range s.Counters {
			t.c[k] += float64(v)
		}
		for k, vec := range s.CounterVecs {
			for _, series := range vec.Series {
				t.c[k] += float64(series.Value)
			}
		}
		for k, h := range s.Histograms {
			m, ok := t.h[k]
			if !ok {
				m = obs.HistogramSnapshot{Bounds: h.Bounds, Buckets: make([]int64, len(h.Buckets))}
			}
			m.Count += h.Count
			m.Sum += h.Sum
			for i := range h.Buckets {
				m.Buckets[i] += h.Buckets[i]
			}
			t.h[k] = m
		}
	}
	return t
}

// minus is t less base, for counts accrued over part of a run.
func (t registryTotals) minus(base registryTotals) registryTotals {
	for k, v := range base.c {
		t.c[k] -= v
	}
	for k, b := range base.h {
		h := t.h[k]
		h.Count -= b.Count
		h.Sum -= b.Sum
		for i := range b.Buckets {
			h.Buckets[i] -= b.Buckets[i]
		}
		t.h[k] = h
	}
	return t
}

// pct reports a percentile for a per-layer metric, noting when it rests
// on fewer than minTail samples beyond it.
func pct(notes *[]string, name string, xs []float64, q float64) float64 {
	v, ok := percentile(xs, q)
	if !ok {
		*notes = append(*notes, fmt.Sprintf("note: %s rests on %d samples (fewer than %d beyond it)", name, len(xs), minTail))
	}
	return v
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// recall is the share of offered emissions with a preamble detection
// within half a symbol of their start.
func recall(in *input, st *station, written int64, detects []int64) (hit, n int) {
	sort.Slice(detects, func(i, j int) bool { return detects[i] < detects[j] })
	offered := st.offered(written)
	for _, e := range offered {
		i := sort.Search(len(detects), func(i int) bool { return detects[i] >= e.start-in.sym/2 })
		if i < len(detects) && detects[i] <= e.start+in.sym/2 {
			hit++
		}
	}
	return hit, len(offered)
}

// traced is the --trace 1 run: a short untraced calibration run, then
// the full traced run with every public hook attached, then the layer
// replay; it derives the per-layer metrics and writes the spans.
func traced(in *input, seconds float64, spansPath string) (*result, error) {
	calib, _, err := execute(in, seconds/3, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("calibration run: %w", err)
	}
	tr := newTracer()
	groups := make([]string, in.w.stations)
	var gwRegs []*cic.Metrics
	// Registry counts from before the timed part (a closed loop's
	// warm-up) are subtracted.
	base := totals()
	var hook func(i int) []cic.Option
	if in.w.open {
		// Backend i's gateways carry tracer group "b<i>".
		hook = func(i int) []cic.Option { return []cic.Option{cic.WithTracer(tr.gatewayHook(fmt.Sprintf("b%d", i)))} }
	} else {
		reg := cic.NewMetrics()
		gwRegs = append(gwRegs, reg)
		tr.onTimed = func() { base = totals(reg) }
		groups[0] = in.stations[0].name
		hook = func(int) []cic.Option {
			return []cic.Option{cic.WithMetrics(reg), cic.WithTracer(tr.gatewayHook(groups[0]))}
		}
	}
	heap := startHeapSampler()
	out, v, err := execute(in, seconds, tr, hook)
	peak := heap.peakMB()
	if err != nil {
		return nil, err
	}
	rep, err := layerReplay(in, tr)
	if err != nil {
		return nil, err
	}

	res := &result{v: v, defs: perLayer, metrics: map[string]float64{}}
	L := res.metrics
	rate := in.cfg.SampleRate()
	air := float64(out.timed) / rate
	var routerTotals registryTotals
	workerSlots := float64(runtime.GOMAXPROCS(0))
	r := out.rig
	if in.w.open {
		for i, id := range out.ids {
			// The tracer group of a station is the backend its session
			// was routed to.
			groups[i] = r.router.BackendFor(id)
		}
		for _, b := range r.backends {
			gwRegs = append(gwRegs, b.reg)
		}
		routerTotals = totals(r.reg)
		// Each routed session runs a server-default decode pool.
		workerSlots = float64(len(out.ids) * server.DefaultWorkers())
	}
	gw := totals(gwRegs...).minus(base)
	detectS := gw.h[obs.MetricStageDetect].Sum
	dispatch := gw.h[obs.MetricStageDispatch]
	demod := gw.h[obs.MetricStageDemod]

	hit, offered := 0, 0
	for i, st := range in.stations {
		h, n := recall(in, st, out.written[i], tr.detects[groups[i]])
		hit, offered = hit+h, offered+n
	}
	L["rx.scan_s_per_air_s"] = detectS / air
	L["rx.candidates_per_air_s"] = gw.c[obs.MetricDetectCandidates] / air
	L["rx.candidate_yield"] = ratio(gw.c[obs.MetricPreamblesDetected], gw.c[obs.MetricDetectCandidates])
	L["rx.preamble_recall"] = ratio(float64(hit), float64(offered))
	L["rx.header_fail_frac"] = ratio(gw.c[obs.MetricHeaderFailures], gw.c[obs.MetricHeadersDecoded]+gw.c[obs.MetricHeaderFailures])

	if !in.w.open {
		// Gateway.Write and Close wall time in the timed part; Close runs
		// the final detect and dispatch pass.
		writeS := 0.0
		for _, d := range append(tr.spanMs("cic.Write"), tr.spanMs("cic.Close")...) {
			writeS += d / 1e3
		}
		L["cic.write_s_per_air_s"] = writeS / air
		L["cic.write_wait_s_per_air_s"] = (writeS - detectS - dispatch.Sum) / air
	}
	L["cic.dispatch_ms_per_packet"] = dispatch.Mean() * 1e3
	L["cic.workers_busy_frac"] = demod.Sum / (workerSlots * out.wall.Seconds())
	d2e := tr.detectToEmitMs()
	L["cic.detect_to_emit_ms_p50"] = pct(&res.notes, "cic.detect_to_emit_ms_p50", d2e, 0.50)
	L["cic.detect_to_emit_ms_p95"] = pct(&res.notes, "cic.detect_to_emit_ms_p95", d2e, 0.95)
	L["cic.reorder_wait_ms_p50"] = gw.h[obs.MetricStageReorder].Quantile(0.5) * 1e3
	L["cic.stage_cpu_coverage"] = (detectS + dispatch.Sum + demod.Sum) / out.cpu.Seconds()

	L["core.demod_ms_per_packet"] = demod.Mean() * 1e3
	L["core.symbol_us"] = median(rep.symbolUs)
	L["core.symbol_us_p95"] = pct(&res.notes, "core.symbol_us_p95", rep.symbolUs, 0.95)
	L["core.icss_subsymbols_per_symbol"] = ratio(gw.c[obs.MetricICSSSubSymbols], gw.c[obs.MetricSymbolsDemodulated])
	accept := gw.c[obs.MetricSEDAccept] + gw.c[obs.MetricCFOAccept] + gw.c[obs.MetricPowerAccept]
	reject := gw.c[obs.MetricSEDReject] + gw.c[obs.MetricCFOReject] + gw.c[obs.MetricPowerReject]
	L["core.gate_reject_frac"] = ratio(reject, accept+reject)

	L["phy.decode_us_per_packet"] = mean(rep.phyUs)
	crcFail, chase := gw.c[obs.MetricCRCFail], gw.c[obs.MetricChaseRecovered]
	L["phy.crc_fail_frac"] = ratio(crcFail, gw.c[obs.MetricCRCPass]+crcFail)
	L["phy.chase_recovered_frac"] = ratio(chase, chase+crcFail)

	L["server.iq_codec_us_per_frame"] = median(rep.codecUs)
	if in.w.open {
		wq := tr.spanMs("server.WriteIQ")
		L["server.writeiq_ms_p50"] = pct(&res.notes, "server.writeiq_ms_p50", wq, 0.50)
		L["server.writeiq_ms_p95"] = pct(&res.notes, "server.writeiq_ms_p95", wq, 0.95)
		L["server.wire_bytes_per_air_s"] = gw.c["server_bytes_ingested"] / air
		published, records := 0, 0
		stamps := map[string]time.Time{}
		for _, b := range r.backends {
			published += b.sink.bytes()
			recs, err := b.sink.records()
			if err != nil {
				return nil, err
			}
			records += len(recs)
			for _, rec := range recs {
				stamps[fmt.Sprintf("%s/%d", rec.Station, rec.Seq)] = rec.at
			}
		}
		L["server.publish_bytes_per_record"] = ratio(float64(published), float64(records))
		// Overload sheds and decode deadlines; handshake rejects are the
		// router's TCP health probes.
		L["server.rejects"] = gw.c["server_overload_rejected"] + gw.c["server_decode_deadlines"]
		var fanin []float64
		for i, recs := range out.recs {
			for _, rec := range recs {
				if at, ok := stamps[fmt.Sprintf("%s/%d", rec.Station, rec.Seq)]; ok {
					fanin = append(fanin, ms(rec.at.Sub(at)))
					tr.add("cluster.fanin", fmt.Sprintf("%s@%d", out.ids[i], rec.Start), tr.root, at, rec.at)
				}
			}
		}
		L["cluster.fanin_ms_p50"] = pct(&res.notes, "cluster.fanin_ms_p50", fanin, 0.50)
		L["cluster.fanin_ms_p95"] = pct(&res.notes, "cluster.fanin_ms_p95", fanin, 0.95)
		L["cluster.failovers"] = routerTotals.c["cluster_failovers_total"]
		L["cluster.dedup_suppressed"] = routerTotals.c["cluster_records_deduped"]
		L["bench.gen_late_p99_ms"] = pct(&res.notes, "bench.gen_late_p99_ms", out.lateMs, 0.99)
		sort.Float64s(out.lateMs)
		L["bench.gen_late_max_ms"] = out.lateMs[len(out.lateMs)-1]
	}

	L["runtime.gc_cycles_per_air_s"] = float64(out.gc) / air
	L["runtime.heap_peak_mb"] = peak
	calibAir := float64(calib.timed) / rate
	L["bench.trace_overhead_frac"] = (out.cpu.Seconds()/air)/(calib.cpu.Seconds()/calibAir) - 1
	L["bench.false_ok"] = float64(v.falseOK)
	L["bench.emit_samples"] = float64(len(emitLatencyMs(in, out)))

	if err := tr.write(spansPath); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	res.notes = append(res.notes, fmt.Sprintf("spans %d written to %s", len(tr.spans), spansPath))
	return res, nil
}
