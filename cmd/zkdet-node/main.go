// Command zkdet-node runs a ZKDET node daemon: a simulated chain with the
// deployed contract suite, a mempool + block producer, an event/provenance
// indexer, and an HTTP JSON-RPC gateway.
//
//	zkdet-node serve -addr :8545         run the daemon
//	zkdet-node load  -clients 100        boot a daemon and hammer it over HTTP
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "serve":
		err = cmdServe(os.Args[2:])
	case "load":
		err = cmdLoad(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "zkdet-node:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  zkdet-node serve [-addr :8545] [-block-interval 25ms] [-max-block-txs 256] [-data-dir DIR] [-role archive|full] [-checkpoint-every 64]
  zkdet-node load  [-clients 100] [-addr 127.0.0.1:0] [-workload exchange|transfer] [-txs-per-client 5] [-data-dir DIR]`)
}

func nodeFlags(fs *flag.FlagSet, cfg *serverConfig) {
	fs.DurationVar(&cfg.node.BlockInterval, "block-interval", cfg.node.BlockInterval, "seal interval")
	fs.IntVar(&cfg.node.MaxBlockTxs, "max-block-txs", cfg.node.MaxBlockTxs, "max transactions per block")
	fs.IntVar(&cfg.node.MaxPoolTxs, "max-pool-txs", cfg.node.MaxPoolTxs, "mempool capacity")
	fs.StringVar(&cfg.dataDir, "data-dir", cfg.dataDir, "durable mode: persist WAL + snapshots here and recover on restart (empty = in-memory)")
	fs.StringVar(&cfg.role, "role", cfg.role, "durable pruning role: archive (keep all history) or full (drop bodies below checkpoints)")
	fs.Uint64Var(&cfg.checkpointEvery, "checkpoint-every", cfg.checkpointEvery, "durable mode: snapshot cadence in blocks (0 = default 64)")
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8545", "listen address")
	cfg := defaultServerConfig()
	nodeFlags(fs, &cfg)
	if err := fs.Parse(args); err != nil {
		return err
	}

	fmt.Println("setting up proof system and deploying contracts…")
	srv, err := newServer(cfg)
	if err != nil {
		return err
	}
	defer srv.close()
	if rep := srv.recovery; rep != nil {
		fmt.Printf("recovered %s: height %d (snapshot %d + %d WAL blocks, %d blobs",
			cfg.dataDir, rep.Head, rep.SnapshotHeight, rep.BlocksReplayed, rep.BlobsReplayed)
		if rep.TornBytes > 0 {
			fmt.Printf(", %d torn bytes repaired", rep.TornBytes)
		}
		fmt.Println(")")
		for _, s := range rep.SkippedSnapshots {
			fmt.Println("  skipped corrupt snapshot:", s)
		}
	}
	bound, err := srv.listen(*addr)
	if err != nil {
		return err
	}
	fmt.Printf("zkdet-node listening on %s (JSON-RPC 2.0, POST /)\n", bound)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down, sealing final block…")
	return nil
}

func cmdLoad(args []string) error {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:0", "listen address for the in-process daemon")
	clients := fs.Int("clients", 100, "concurrent exchange clients")
	workload := fs.String("workload", "exchange", "client workload: exchange (full lifecycle) or transfer (light, scales to 10k clients)")
	txPerClient := fs.Int("txs-per-client", 5, "transfers per client (transfer workload only)")
	cfg := defaultServerConfig()
	nodeFlags(fs, &cfg)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workload != "exchange" && *workload != "transfer" {
		return fmt.Errorf("unknown workload %q (want exchange or transfer)", *workload)
	}

	fmt.Println("setting up proof system and deploying contracts…")
	srv, err := newServer(cfg)
	if err != nil {
		return err
	}
	defer srv.close()
	bound, err := srv.listen(*addr)
	if err != nil {
		return err
	}

	var report *loadReport
	if *workload == "transfer" {
		fmt.Printf("daemon on %s; launching %d clients × %d plain transfers (light workload)\n",
			bound, *clients, *txPerClient)
		report, err = runTransferLoad("http://"+bound, *clients, *txPerClient)
	} else {
		fmt.Printf("daemon on %s; proving the shared π_k…\n", bound)
		start := time.Now()
		var fx *exchangeFixture
		fx, err = buildFixture(srv.mkt.Sys)
		if err != nil {
			return err
		}
		fmt.Printf("π_k proved in %s; launching %d clients (each runs a full exchange: "+
			"faucet, publish, mint, duplicate, escrow open, settle with on-chain verification, transfer, provenance check)\n",
			time.Since(start).Round(time.Millisecond), *clients)
		report, err = runLoad("http://"+bound, fx, *clients)
	}
	if err != nil {
		return err
	}
	fmt.Println(report)
	if report.Provenance != report.Clients {
		return fmt.Errorf("provenance verification failed for %d clients", report.Clients-report.Provenance)
	}
	if *workload == "exchange" {
		fmt.Println("confidential showcase: mint a hidden-amount note, split it, open it with the auditor key…")
		if err := runConfidentialShowcase("http://" + bound); err != nil {
			return fmt.Errorf("confidential showcase: %w", err)
		}
	}
	var stats map[string]any
	if err := newRPCClient("http://"+bound).call(rpcStats, nil, &stats); err == nil {
		out, _ := json.MarshalIndent(stats, "", "  ")
		fmt.Printf("server stats:\n%s\n", out)
	}
	return nil
}
