/* Nanosecond clocks for the benchmark: process CPU time (what the
   decides-per-CPU-second lane divides by) and a monotonic wall clock (for
   per-call replay spans).  Both return tagged OCaml ints and allocate
   nothing, so a read costs no minor-heap words. */

#include <time.h>
#include <caml/mlvalues.h>

static long clock_ns(clockid_t id)
{
  struct timespec ts;
  clock_gettime(id, &ts);
  return (long)ts.tv_sec * 1000000000L + (long)ts.tv_nsec;
}

value dacsbench_cpu_ns(value unit)
{
  (void)unit;
  return Val_long(clock_ns(CLOCK_PROCESS_CPUTIME_ID));
}

value dacsbench_mono_ns(value unit)
{
  (void)unit;
  return Val_long(clock_ns(CLOCK_MONOTONIC));
}
