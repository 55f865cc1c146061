package main

import (
	"syscall"
	"time"
	"unsafe"
)

// Linux's CLOCK_PROCESS_CPUTIME_ID and CLOCK_THREAD_CPUTIME_ID.
const (
	clockProcessCPUTimeID = 2
	clockThreadCPUTimeID  = 3
)

// cpuNow reads the process CPU clock: the time all of the process's threads
// have spent running. Unlike the wall clock it does not advance while the
// process waits for a CPU, and a guest kernel with paravirtual steal
// accounting (CONFIG_PARAVIRT_TIME_ACCOUNTING) leaves out the time the
// hypervisor ran another guest on the CPU.
func cpuNow() time.Duration { return clockNow(clockProcessCPUTimeID) }

// threadCPUNow reads the calling thread's CPU clock.
func threadCPUNow() time.Duration { return clockNow(clockThreadCPUTimeID) }

func clockNow(id uintptr) time.Duration {
	var ts syscall.Timespec
	// clock_gettime cannot block, so the raw call skips the scheduler's
	// syscall bookkeeping.
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
