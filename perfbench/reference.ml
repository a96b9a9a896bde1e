(* A fixed piece of benchmark-owned work timed next to every CPU-clock
   measurement.  The host's speed moves by up to 2x within seconds (other
   tenants); code that allocates and hashes short-lived values, as the
   simulator does, slows with it, so run.py scales each process's CPU
   times by how long this kernel took there.

   Everything it allocates dies young, so it adds no major-heap work of
   its own.  Its time still depends in part on the program's heap: its
   132k words fill about half the minor heap, so about every other run
   holds a minor collection, and with it a major-GC slice of the work the
   program's own allocation left owing; run.py therefore reports the raw
   CPU figures beside the corrected ones.  A kernel that allocates nothing
   would avoid this.  It was tried while alloc_words_per_decide still
   counted major minus promoted words, which vary between processes of one
   seed (see Clock.words), and it made that variation frequent; with the
   minor-heap count now used it has not been measured again. *)

let kernel () =
  let acc = ref 0 in
  for i = 0 to 12_000 do
    let s = string_of_int i in
    let l = [ i; i + 1; String.length s ] in
    acc := !acc + Hashtbl.hash s + List.length l
  done;
  ignore (Sys.opaque_identity !acc)

(* CPU ns of one kernel run. *)
let time () =
  let c0 = Clock.cpu_ns () in
  kernel ();
  Clock.cpu_ns () - c0
