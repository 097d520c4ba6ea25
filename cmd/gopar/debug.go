package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"time"

	"repro/internal/flight"
	"repro/internal/span"
)

// runDebug implements `gopar debug`: fetch a flight-recorder dump from
// a live daemon (-addr) or read a dump file written by SIGQUIT/panic
// (-file), and render it human-readably.
//
//	gopar debug -addr 127.0.0.1:7700 -token s3cret          # live table
//	gopar debug -file /tmp/flight-1234-....json             # post-mortem table
//	gopar debug -file dump.json -trace trace.json           # chrome://tracing
//	gopar debug -addr 127.0.0.1:7700 -json > dump.json      # save for later
func runDebug(argv []string) int {
	fs := flag.NewFlagSet("gopar debug", flag.ContinueOnError)
	var (
		addr    = fs.String("addr", "", "fetch the dump from a live daemon's debug listener (host:port)")
		token   = fs.String("token", "", "debug token for -addr (sent as a bearer token)")
		file    = fs.String("file", "", "read a dump file written by SIGQUIT, panic, or a saved -json")
		asJSON  = fs.Bool("json", false, "print the raw dump JSON instead of the timeline table")
		traceTo = fs.String("trace", "", "write a Chrome/Perfetto trace (load in chrome://tracing or ui.perfetto.dev) to this file")
		timeout = fs.Duration("timeout", 10*time.Second, "HTTP timeout for -addr")
	)
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: gopar debug (-addr HOST:PORT [-token T] | -file DUMP.json) [-json] [-trace OUT.json]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if (*addr == "") == (*file == "") {
		fmt.Fprintln(os.Stderr, "gopar debug: exactly one of -addr or -file is required")
		fs.Usage()
		return 2
	}

	var d *flight.Dump
	var err error
	if *file != "" {
		d, err = readDumpFile(*file)
	} else {
		d, err = fetchDump(*addr, *token, *timeout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gopar debug:", err)
		return 2
	}

	if *traceTo != "" {
		if terr := createFile(*traceTo, func(w io.Writer) error { return span.WriteDumpTrace(w, d) }); terr != nil {
			fmt.Fprintln(os.Stderr, "gopar debug:", terr)
			return 2
		}
		fmt.Fprintf(os.Stderr, "gopar debug: trace written to %s (%d records)\n", *traceTo, len(d.Records))
		return 0
	}
	if *asJSON {
		if werr := d.WriteJSON(os.Stdout); werr != nil {
			fmt.Fprintln(os.Stderr, "gopar debug:", werr)
			return 2
		}
		return 0
	}
	if werr := d.WriteTable(os.Stdout); werr != nil {
		fmt.Fprintln(os.Stderr, "gopar debug:", werr)
		return 2
	}
	return 0
}

func readDumpFile(path string) (*flight.Dump, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return flight.ReadDump(f)
}

// fetchDump GETs /debug/flight from a live daemon's debug listener.
func fetchDump(addr, token string, timeout time.Duration) (*flight.Dump, error) {
	u := url.URL{Scheme: "http", Host: addr, Path: "/debug/flight"}
	req, err := http.NewRequest("GET", u.String(), nil)
	if err != nil {
		return nil, err
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	client := &http.Client{Timeout: timeout}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("GET %s: %s: %s", u.String(), resp.Status, string(body))
	}
	return flight.ReadDump(resp.Body)
}
