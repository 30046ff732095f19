// Package smoke boots lan-serve for the two smoke drivers
// (scripts/serve-smoke and scripts/mutate-smoke) and drains it again.
package smoke

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"syscall"
	"time"

	"github.com/lansearch/lan"
)

// Serve saves idx into dir as a snapshot, exactly as lan-train would
// write it, builds ./cmd/lan-serve into dir and starts it on a free
// loopback port with flags added to its -index, -addr and
// -shutdown-grace 5s. Once the server has logged its address and
// /readyz answers 200, Serve runs checks against the server's base URL.
// Then it sends SIGTERM and requires the server to drain and exit
// cleanly within 5 seconds. The server's log is streamed to stderr.
func Serve(dir string, idx *lan.Index, flags []string, checks func(base string) error) error {
	idxPath := filepath.Join(dir, "idx.lansnap")
	if err := idx.SaveSnapshot(idxPath, lan.SnapshotOptions{}); err != nil {
		return err
	}
	bin := filepath.Join(dir, "lan-serve")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/lan-serve").CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/lan-serve: %v\n%s", err, out)
	}
	args := append([]string{"-index", idxPath, "-addr", "127.0.0.1:0", "-shutdown-grace", "5s"}, flags...)
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	defer cmd.Process.Kill() // no-op if the SIGTERM path already reaped it

	// The server logs "listening on 127.0.0.1:<port>" once bound; everything
	// after that is streamed through for the CI log.
	addrRe := regexp.MustCompile(`listening on (\S+:\d+)`)
	addrCh := make(chan string, 1)
	logDone := make(chan struct{})
	// Exits at scanner EOF, when the child process closes its stderr pipe.
	go func() {
		defer close(logDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintf(os.Stderr, "  [lan-serve] %s\n", line)
			if m := addrRe.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
	}()
	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case <-time.After(30 * time.Second):
		return fmt.Errorf("server never reported its listen address")
	}

	if err := awaitReady(base); err != nil {
		return err
	}
	if err := checks(base); err != nil {
		return err
	}

	// Graceful shutdown: SIGTERM must drain and exit cleanly within 5s.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			return fmt.Errorf("server exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(5 * time.Second):
		cmd.Process.Kill()
		return fmt.Errorf("server did not exit within 5s of SIGTERM")
	}
	<-logDone
	return nil
}

// awaitReady polls /readyz until it answers 200, for up to 10 seconds.
func awaitReady(base string) error {
	client := &http.Client{Timeout: 10 * time.Second}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := client.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("/readyz never turned 200: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
