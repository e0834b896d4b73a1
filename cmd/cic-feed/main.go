// Command cic-feed streams a cf32 IQ capture (a file, cic-gen output,
// or stdin) into a running cic-gatewayd as one ingestion session. It
// exits only after the daemon acknowledges the session drain, so a zero
// exit status means every fully-buffered packet was published.
//
// The session is resumable: cic-feed opens it with the RESUME
// handshake, and on any connection loss it redials with exponential
// backoff and replays only the samples the daemon has not yet
// acknowledged — the published NDJSON stream has no gaps and no
// duplicates. A restarted cic-feed resuming the same station within the
// daemon's park window skips the already-ingested prefix of its input.
//
// Usage:
//
//	cic-feed -addr 127.0.0.1:7733 -in capture.cf32 [-station id] [flags]
//	cic-gen -out /dev/stdout ... | cic-feed -addr ... -in -
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cic"
	"cic/internal/daemon"
	"cic/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cic-feed:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr        = flag.String("addr", "", "cic-gatewayd ingestion address (required)")
		in          = flag.String("in", "", `input .cf32 path, or "-" for stdin (required)`)
		station     = flag.String("station", "cic-feed", "station identifier reported in published records")
		sf          = flag.Int("sf", 8, "spreading factor")
		bw          = flag.Float64("bw", 250e3, "bandwidth Hz")
		osr         = flag.Int("osr", 4, "oversampling ratio of the capture")
		cr          = flag.Int("cr", 1, "coding rate 1..4 (4/5..4/8)")
		chunk       = flag.Int("chunk", 32768, "samples per IQ frame")
		retries     = flag.Int("retries", server.DefaultMaxAttempts, "consecutive reconnect attempts before giving up (-1 = forever)")
		dialTimeout = flag.Duration("dial-timeout", server.DefaultDialTimeout, "TCP connect timeout")
		rate        = flag.Float64("rate", 0, "throttle to this many samples/sec (0 = as fast as possible)")
		quiet       = flag.Bool("quiet", false, "suppress reconnect logging")
		logFormat   = flag.String("log-format", "text", `log encoding: "text" or "json" (structured NDJSON)`)
	)
	flag.Parse()
	if *addr == "" || *in == "" {
		flag.Usage()
		return fmt.Errorf("-addr and -in are required")
	}

	cfg := cic.DefaultConfig()
	cfg.SpreadingFactor = *sf
	cfg.Bandwidth = *bw
	cfg.Oversampling = *osr
	cfg.CodingRate = *cr
	if err := cfg.Validate(); err != nil {
		return err
	}

	var src io.Reader
	if *in == "-" {
		src = os.Stdin
	} else {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}

	logger, err := daemon.Logger("info", *logFormat, *quiet)
	if err != nil {
		return err
	}
	var logf func(format string, args ...any)
	if logger != nil {
		logger = logger.With("station", *station)
		logf = func(format string, args ...any) {
			logger.Info(fmt.Sprintf(format, args...))
		}
	}
	// SIGINT/SIGTERM cancel the reconnect machinery immediately — a feed
	// stuck in a backoff sleep exits on signal, not after the interval.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	c := server.NewReconnectingClient(server.ReconnectOptions{
		Station:     *station,
		Config:      cfg,
		Addr:        *addr,
		Context:     ctx,
		DialTimeout: *dialTimeout,
		MaxAttempts: *retries,
		Logf:        logf,
	})
	off, err := c.Connect()
	if err != nil {
		return err
	}
	if off > 0 {
		// The daemon already holds the first off samples of this station's
		// stream (a previous cic-feed run within the park window); skip
		// the corresponding cf32 prefix — 8 bytes per sample.
		if _, err := io.CopyN(io.Discard, src, off*8); err != nil {
			return fmt.Errorf("skipping %d already-ingested samples: %w", off, err)
		}
		if logger != nil {
			// The message text is load-bearing: scripts/smoke.sh greps it
			// to prove the restarted feed resumed instead of replaying.
			logger.Info(fmt.Sprintf("resuming at sample offset %d", off), "offset", off)
		}
	}

	t0 := time.Now()
	n, err := stream(c, src, *chunk, *rate)
	if err != nil {
		return err
	}
	// Close waits for the daemon's drain acknowledgement.
	if err := c.Close(); err != nil {
		return err
	}
	if logger != nil {
		logger.Info("session drained",
			"samples", n,
			"air_seconds", float64(n)/cfg.SampleRate(),
			"sample_rate_hz", cfg.SampleRate(),
			"elapsed", time.Since(t0).Round(time.Millisecond).String(),
			"reconnects", c.Reconnects())
	} else {
		fmt.Fprintf(os.Stderr, "cic-feed: streamed %d samples, session drained (%d reconnects)\n",
			n, c.Reconnects())
	}
	return nil
}

// stream feeds the cf32 source through the reconnecting client in
// chunkSamples-sized IQ frames, optionally throttled to rate
// samples/sec, returning the sample count sent.
func stream(c *server.ReconnectingClient, src io.Reader, chunkSamples int, rate float64) (int64, error) {
	if chunkSamples <= 0 {
		chunkSamples = server.MaxIQSamples / 4
	}
	cr := cic.NewCF32Reader(src)
	buf := make([]complex128, chunkSamples)
	var total int64
	start := time.Now()
	for {
		n, err := cr.Read(buf)
		if n > 0 {
			if werr := c.WriteIQ(buf[:n]); werr != nil {
				return total, werr
			}
			total += int64(n)
			if rate > 0 {
				target := time.Duration(float64(total) / rate * float64(time.Second))
				if d := target - time.Since(start); d > 0 {
					time.Sleep(d)
				}
			}
		}
		if errors.Is(err, io.EOF) {
			return total, nil
		}
		if err != nil {
			return total, err
		}
	}
}
