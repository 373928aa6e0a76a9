//go:build !linux

package main

import (
	"errors"
	"os/exec"
	"runtime"
	"syscall"
	"time"
)

const (
	procMetrics = false
	canPin      = false
)

var errNoProc = errors.New("no /proc on this platform")

// isolate is a no-op without process groups the benchmark can rely on;
// children are still killed one by one on exit.
func isolate(cmd *exec.Cmd) {}

func pinSelf(cpus []int) error { return nil }

func startOn(cmd *exec.Cmd, cpus, back []int) error { return cmd.Start() }

// signalGroup can only reach the child itself here, and only to kill it.
func signalGroup(cmd *exec.Cmd, _ syscall.Signal) { _ = cmd.Process.Kill() }

func procCPU(pid int) (cpuTime, error)     { return cpuTime{}, errNoProc }
func procPeakRSS(pid int) (float64, error) { return 0, errNoProc }
func selfCPU() time.Duration               { return 0 }
func kernelVersion() string                { return runtime.GOOS }
