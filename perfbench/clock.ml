(* Allocation-free clocks (see clock_stubs.c) and the allocation counter
   the alloc_words metrics divide. *)

external cpu_ns : unit -> int = "dacsbench_cpu_ns" [@@noalloc]
external mono_ns : unit -> int = "dacsbench_mono_ns" [@@noalloc]

(* Words allocated so far on the minor heap; reading it allocates nothing.
   Direct major-heap allocations (blocks over 256 words) are left out:
   they are about 0.04% of the simulator's allocation, and the only way
   to count them, major minus promoted words from Gc.counters, does not
   repeat: the promoted count moves by hundreds of words between processes
   of one seed with the collector's timing, and the difference does not
   always cancel it. *)
let words () = Gc.minor_words ()
