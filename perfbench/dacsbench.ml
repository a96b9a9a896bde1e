(* The benchmark process.  One invocation runs one workload in a fresh
   process and prints one JSON line for run.py:

     dacsbench.exe run     --workload W --seed S
     dacsbench.exe trace   --workload W --seed S
     dacsbench.exe history --workload W --seed S

   [run] is the untraced measurement.  [trace] runs the same schedule
   while keeping spans, then replays the generated contexts through each
   layer's public functions (see Replay) and writes every span to
   .bench_out/spans-W.jsonl.  [history] runs churn_pull first and then W
   in the same process, to show whether W's virtual metrics depend on
   what ran before.

   All modes take the same arguments: the allocation count of the timed
   segment moves by a few hundredths of a percent with the heap's state
   when it starts, and the arguments are on the heap. *)

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* Exact nearest-rank quantile of a sorted sample. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let mean a =
  if Array.length a = 0 then 0.0 else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

(* Counter-based layer metrics over the timed segment.  They repeat
   exactly for a seed. *)
let layer_counters (r : Sim.result) =
  let c = r.Sim.window in
  let per x = ratio x r.Sim.offered in
  let queries = Array.fold_left ( + ) 0 c.Sim.queries in
  let skew =
    let n = Array.length c.Sim.queries in
    if queries = 0 then 0.0
    else
      float_of_int (Array.fold_left max 0 c.Sim.queries)
      /. (float_of_int queries /. float_of_int n)
  in
  let dropped = Array.fold_left (fun a p -> a + p.Sim.dropped) 0 r.Sim.publishes in
  let resident = Array.fold_left (fun a p -> a + p.Sim.resident) 0 r.Sim.publishes in
  [
    ("pep.l1_hit_ratio", per c.Sim.l1_hits);
    ("pep.stale_answer_ratio", ratio r.Sim.stale (Bytes.length r.Sim.codes));
    ("pep.coalesced_per_decide", per c.Sim.coalesced);
    ("pep.shed_ratio", per c.Sim.shed);
    ("decision_cache.region_drop_ratio", ratio dropped resident);
    ("decision_cache.key_bytes_per_entry", ratio r.Sim.key_bytes r.Sim.key_entries);
    ("pdp_tier.parts_per_frame", ratio c.Sim.dispatched c.Sim.frames);
    ("pdp_tier.shard_load_skew", skew);
    ("pdp_service.queries_per_decide", per queries);
    ("cache_hierarchy.attr_hit_ratio", ratio c.Sim.attr_hits (c.Sim.attr_hits + c.Sim.attr_misses));
    ("pip.frames_per_decide", per c.Sim.pip_frames);
    ("net.bytes_per_frame", ratio c.Sim.bytes c.Sim.msgs);
  ]

(* The figures that must repeat exactly for a seed: virtual-clock
   metrics, counter-based layer metrics, allocation, and a digest of
   every request's decision and exact latency. *)
let deterministic (r : Sim.result) =
  let l = r.Sim.latencies in
  let ms q = 1000.0 *. quantile l q in
  [
    ("virt_n", Json.int (Array.length l));
    ("virt_p50_ms", Json.num (ms 0.50));
    ("virt_p99_ms", Json.num (ms 0.99));
    ("virt_p999_ms", Json.num (ms 0.999));
    ("virt_mean_ms", Json.num (1000.0 *. mean l));
    ("msgs_per_decide", Json.num (ratio r.Sim.window.Sim.msgs r.Sim.offered));
    ("wire_bytes_per_decide", Json.num (ratio r.Sim.window.Sim.bytes r.Sim.offered));
    ("alloc_words_per_decide", Json.num (r.Sim.timed_words /. float_of_int (max 1 r.Sim.answered)));
    ("stale", Json.int r.Sim.stale);
    ("digest", Json.str r.Sim.digest);
  ]
  @ List.map (fun (k, v) -> (k, Json.num v)) (layer_counters r)

let summary (w : Spec.t) ~seed (r : Sim.result) =
  let cpu_s = float_of_int r.Sim.timed_cpu_ns /. 1e9 in
  let publish_ns p = p.Sim.delta_ns + p.Sim.install_ns + p.Sim.invalidate_ns in
  [
    ("workload", Json.str w.Spec.name);
    ("seed", Json.int seed);
    ("correct", Json.bool (r.Sim.mismatches = 0 && r.Sim.conserved && r.Sim.stale <= Spec.max_stale));
    ("mismatches", Json.int r.Sim.mismatches);
    ("stale", Json.int r.Sim.stale);
    ("conserved", Json.bool r.Sim.conserved);
    ("offered", Json.int r.Sim.offered);
    ("answered", Json.int r.Sim.answered);
    ("failed", Json.int r.Sim.failed);
    ("timed_cpu_s", Json.num cpu_s);
    ("decides_per_cpu_s", Json.num (float_of_int r.Sim.answered /. cpu_s));
    ( "reference_ns",
      let ns a = Json.arr (Array.to_list (Array.map Json.int a)) in
      Json.obj
        [
          ("setup", ns r.Sim.setup_reference_ns);
          ("timed", ns r.Sim.timed_reference_ns);
          ("publish", ns r.Sim.publish_reference_ns);
        ] );
    ("setup_s", Json.num (float_of_int r.Sim.setup_ns /. 1e9));
    ("peak_heap_mb", Json.num (float_of_int (r.Sim.peak_heap_words * (Sys.word_size / 8)) /. 1e6));
    ("publish_us", Json.arr (Array.to_list (Array.map (fun p -> Json.num (float_of_int (publish_ns p) /. 1e3)) r.Sim.publishes)));
    ("det", Json.obj (deterministic r));
  ]

let () =
  let mode = ref "" and workload = ref "" and seed = ref 1 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
    ]
    (fun m -> mode := m)
    "dacsbench.exe (run|trace|history) --workload NAME --seed N";
  let w =
    match Spec.find !workload with
    | Some w -> w
    | None ->
      prerr_endline ("dacsbench: unknown workload " ^ !workload);
      exit 2
  in
  let seed = !seed in
  match !mode with
  | "run" ->
    let r = Sim.run w (Gen.make w ~seed) ~seed in
    print_endline (Json.obj (summary w ~seed r))
  | "history" ->
    let first = Spec.churn_pull in
    let inp_first = Gen.make first ~seed in
    let inp = Gen.make w ~seed in
    ignore (Sim.run first inp_first ~seed);
    let r = Sim.run w inp ~seed in
    print_endline (Json.obj (summary w ~seed r))
  | "trace" ->
    let inp = Gen.make w ~seed in
    let r = Sim.run ~traced:true w inp ~seed in
    if not (Sys.file_exists ".bench_out") then Sys.mkdir ".bench_out" 0o755;
    let spans = Filename.concat ".bench_out" ("spans-" ^ w.Spec.name ^ ".jsonl") in
    let replay = Replay.run w inp r ~spans in
    print_endline (Json.obj (summary w ~seed r @ [ ("replay", replay) ]))
  | m ->
    prerr_endline ("dacsbench: unknown mode " ^ m);
    exit 2
