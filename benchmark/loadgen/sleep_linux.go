package loadgen

import (
	"os"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// PreciseSleep reports whether preciseSleep wakes on a kernel
// high-resolution timer instead of the Go timer heap.
const PreciseSleep = true

// preciseSleep parks the calling goroutine until a timerfd fires. The fd
// sits in the runtime's poller like a socket, so the wake-up is an epoll
// event: it arrives on time (an idle Go runtime rounds sub-millisecond
// time.Sleep up to a millisecond), costs no spinning, and — unlike a
// thread blocked in nanosleep(2) — leaves the generator's single P free
// for the client's reader goroutines while the pacer waits.
func preciseSleep(d time.Duration) {
	t := timers.Get().(*os.File)
	defer timers.Put(t)
	spec := struct{ interval, value syscall.Timespec }{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, t.Fd(), 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		time.Sleep(d)
		return
	}
	var expirations [8]byte
	if _, err := t.Read(expirations[:]); err != nil {
		time.Sleep(d)
	}
}

const (
	clockMonotonic = 1
	tfdNonblock    = 0x800
	tfdCloexec     = 0x80000
)

// timers pools timerfds, one per concurrently sleeping goroutine.
var timers = sync.Pool{New: func() any {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		panic("loadgen: timerfd_create: " + errno.Error())
	}
	return os.NewFile(fd, "timerfd")
}}
