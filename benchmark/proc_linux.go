package main

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// canPin reports whether this platform can restrict processes to CPUs.
const canPin = true

// procMetrics reports whether this platform can read a child's CPU time
// and peak memory; without it server_cpu_us_per_req, rss_mb and
// irsd.cpu_user_share are absent from the output.
const procMetrics = true

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// fields. It is 100 on every Linux architecture Go runs on.
const clockTick = 10 * time.Millisecond

// isolate puts the child in its own process group, so one signal reaches
// anything it spawns, and has the kernel kill it if the benchmark dies
// without running its own cleanup (SIGKILL, OOM).
func isolate(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
}

// setAffinity restricts thread tid (0: the calling thread) to cpus.
func setAffinity(tid int, cpus []int) error {
	var mask [16]uint64 // 1024 CPUs
	for _, c := range cpus {
		mask[c/64] |= 1 << (c % 64)
	}
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return fmt.Errorf("sched_setaffinity(%d, %v): %w", tid, cpus, errno)
	}
	return nil
}

// pinSelf restricts every thread this process has, and so every thread
// it will start, to cpus.
func pinSelf(cpus []int) error {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if err := setAffinity(tid, cpus); err != nil {
			return err
		}
	}
	return nil
}

// startOn starts cmd restricted to cpus (nil: unrestricted). A child
// inherits the affinity of the thread that forks it, so the calling thread
// — which the caller must be locked to — takes the child's set for the
// fork and its own back after.
func startOn(cmd *exec.Cmd, cpus, back []int) error {
	if cpus == nil {
		return cmd.Start()
	}
	if err := setAffinity(0, cpus); err != nil {
		return err
	}
	err := cmd.Start()
	if rerr := setAffinity(0, back); err == nil {
		err = rerr
	}
	return err
}

// signalGroup sends sig to the child's whole process group.
func signalGroup(cmd *exec.Cmd, sig syscall.Signal) {
	_ = syscall.Kill(-cmd.Process.Pid, sig) // the group is gone when this fails
}

// procCPU returns the CPU time pid has consumed. user and sys come from
// /proc/<pid>/stat in 10 ms ticks; run is the scheduler's own on-CPU time
// in nanoseconds where the kernel keeps it (CONFIG_SCHED_INFO) — fine
// enough to difference over one-second slices — and user+sys otherwise.
func procCPU(pid int) (c cpuTime, err error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return c, err
	}
	// The command name (field 2) may hold spaces; fields count from the
	// closing parenthesis. utime and stime are fields 14 and 15.
	i := strings.LastIndexByte(string(b), ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return c, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return c, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	c.user, c.sys = time.Duration(ut)*clockTick, time.Duration(st)*clockTick
	c.run = c.user + c.sys
	if run, ok := schedRun(pid); ok {
		c.run = run
	}
	return c, nil
}

// schedRun sums the scheduler's on-CPU nanoseconds over pid's threads
// (schedstat is per thread, and a Go daemon's work is not on its first).
func schedRun(pid int) (time.Duration, bool) {
	dir := "/proc/" + strconv.Itoa(pid) + "/task"
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, false
	}
	var total int64
	for _, t := range tasks {
		b, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, false
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, false
		}
		total += ns
	}
	return time.Duration(total), total > 0
}

// procPeakRSS returns pid's peak resident set size (VmHWM) in MiB.
func procPeakRSS(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// kernelVersion returns the running kernel's release string.
func kernelVersion() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}
