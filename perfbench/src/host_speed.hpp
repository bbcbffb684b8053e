// Contention correction for the end-to-end host timings.
//
// The benchmark host is a virtual machine that shares physical cores with
// other tenants. Their load slows the same simulation by up to 2x for
// minutes at a time, while process CPU time still equals wall time, so no
// clock tells the two apart. A fixed reference kernel (a stand-in for one
// engine tick over eight threads: share split, load tracking, placement
// and power accumulation) is timed just before and just after each
// measured interval. The interval is scaled by kReferenceQuietNs over the
// kernel's mean time, so a run under contention reports about what a
// quiet host would. The kernel's code never changes with the library, so
// the correction is the same for a parent and a child commit.
#pragma once

namespace perfbench {

/// About the reference kernel's time on an uncontended core of the
/// development host (a 2.1 GHz Xeon), so corrected seconds read close to
/// host seconds there.
inline constexpr double kReferenceQuietNs = 1.0e6;

/// Mean host ns of one pass of the reference kernel, run on `threads`
/// threads at once.
double reference_kernel_ns(int threads);

/// Runs `fn` between two passes of the reference kernel and returns the
/// factor that turns host time measured during `fn` into quiet-host time.
/// `threads` is how many threads `fn` keeps busy, so the kernel samples
/// the contention on as many cores as the measured work does.
template <class Fn>
double quiet_factor(int threads, Fn&& fn) {
  const double before = reference_kernel_ns(threads);
  fn();
  const double after = reference_kernel_ns(threads);
  return 2.0 * kReferenceQuietNs / (before + after);
}

}  // namespace perfbench
