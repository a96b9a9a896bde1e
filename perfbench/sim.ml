(* One workload run: stand the VO up through public constructors, drive
   Pep.decide with the generated schedule on the simnet virtual clock,
   and record every request's exact virtual latency and decision. *)

open Dacs_core
module Net = Dacs_net.Net
module Engine = Dacs_net.Engine
module Service = Dacs_ws.Service
module Metrics = Dacs_telemetry.Metrics
module Policy = Dacs_policy.Policy
module Decision = Dacs_policy.Decision
module Delta = Dacs_policy.Delta
module Value = Dacs_policy.Value
module Workload = Dacs_workload.Workload

type vo = {
  net : Net.t;
  metrics : Metrics.t;
  shards : Pdp_service.t array;
  tiers : Pdp_tier.t array;
  caches : Decision_cache.t array;  (** one per PEP; empty when L1 is off *)
  peps : Pep.t array;
}

let policy gen =
  Policy.Inline_policy (Workload.churned_policy ~resources:Spec.peps ~gen)

let stand_up (w : Spec.t) ~seed =
  let net = Net.create ~seed:(Int64.of_int seed) () in
  Net.set_bytes_per_second net (Some Spec.bandwidth);
  let services = Service.create (Dacs_net.Rpc.create net) in
  let metrics = Service.metrics services in
  let pips =
    if w.Spec.attr_ttl = None then []
    else begin
      let node = "pip.0" in
      Net.add_node net node;
      let pip = Pip.create services ~node ~name:node in
      for u = 0 to w.Spec.users - 1 do
        Pip.set_subject_attribute pip ~subject:(Gen.user_name u) ~id:"role"
          [ Value.String (Gen.role_of u) ]
      done;
      [ node ]
    end
  in
  let root = policy 0 in
  let shards =
    Array.init Spec.shards (fun i ->
        let node = "pdp." ^ string_of_int i in
        Net.add_node net node;
        Pdp_service.create services ~node ~name:node ~root ~pips ?attr_cache_ttl:w.Spec.attr_ttl
          ~service_time:w.Spec.service_time ?max_inflight:Spec.shard_max_inflight ~compiled:true
          ())
  in
  let shard_nodes = Array.to_list (Array.map Pdp_service.node shards) in
  let tiers =
    Array.init Spec.peps (fun i ->
        let node = Printf.sprintf "dom%d.pep%d" (i mod Spec.domains) i in
        Net.add_node net node;
        Pdp_tier.create services ~node ~shards:shard_nodes ~batch:Spec.batch ())
  in
  let caches =
    match w.Spec.l1 with
    | None -> [||]
    | Some (ttl, max_entries) ->
      Array.map
        (fun tier ->
          Decision_cache.create ~metrics ~owner:(Pdp_tier.node tier) ~max_entries ~ttl ())
        tiers
  in
  let peps =
    Array.mapi
      (fun i tier ->
        let cache = if Array.length caches = 0 then None else Some caches.(i) in
        let pep =
          Pep.create services ~node:(Pdp_tier.node tier)
            ~domain:(Printf.sprintf "dom%d" (i mod Spec.domains))
            ~resource:(Gen.resource_name i) (Pep.Sharded { tier; cache })
        in
        Pep.set_admission pep Spec.admission;
        pep)
      tiers
  in
  { net; metrics; shards; tiers; caches; peps }

(* --- counters read through public stats / Metrics ---------------------- *)

type counts = {
  msgs : int;
  bytes : int;
  l1_hits : int;
  coalesced : int;
  shed : int;
  queries : int array;  (** per shard *)
  dispatched : int;
  frames : int;
  attr_hits : int;
  attr_misses : int;
  pip_frames : int;
  counter_incs : int;  (** sum over every counter in the registry *)
  observations : int;  (** sum over every histogram in the registry *)
}

let counts vo =
  let sent = Net.total_sent vo.net in
  let incs, obs =
    List.fold_left
      (fun (c, h) s ->
        match s.Metrics.value with
        | Metrics.Counter v -> (c + v, h)
        | Metrics.Histogram { count; _ } -> (c, h + count)
        | Metrics.Gauge _ -> (c, h))
      (0, 0) (Metrics.snapshot vo.metrics)
  in
  let tier_sum f = Array.fold_left (fun acc t -> acc + f (Pdp_tier.stats t)) 0 vo.tiers in
  {
    msgs = sent.Net.count;
    bytes = sent.Net.bytes;
    l1_hits = Metrics.sum_counter vo.metrics "pep_cache_hits_total";
    coalesced = Metrics.sum_counter vo.metrics "coalesced_total";
    shed = Metrics.sum_counter vo.metrics "pep_shed_total";
    queries = Array.map (fun s -> (Pdp_service.stats s).Pdp_service.queries) vo.shards;
    dispatched = tier_sum (fun s -> s.Pdp_tier.dispatched);
    frames = tier_sum (fun s -> s.Pdp_tier.batches);
    attr_hits = Metrics.sum_counter vo.metrics "pdp_attr_cache_hits_total";
    attr_misses = Metrics.sum_counter vo.metrics "pdp_attr_cache_misses_total";
    pip_frames = Metrics.sum_counter vo.metrics "pdp_pip_fetches_total";
    counter_incs = incs;
    observations = obs;
  }

let diff a b =
  {
    msgs = b.msgs - a.msgs;
    bytes = b.bytes - a.bytes;
    l1_hits = b.l1_hits - a.l1_hits;
    coalesced = b.coalesced - a.coalesced;
    shed = b.shed - a.shed;
    queries = Array.map2 ( - ) b.queries a.queries;
    dispatched = b.dispatched - a.dispatched;
    frames = b.frames - a.frames;
    attr_hits = b.attr_hits - a.attr_hits;
    attr_misses = b.attr_misses - a.attr_misses;
    pip_frames = b.pip_frames - a.pip_frames;
    counter_incs = b.counter_incs - a.counter_incs;
    observations = b.observations - a.observations;
  }

(* --- decisions ----------------------------------------------------------- *)

(* Per-request outcome codes.  0 = never answered. *)
let permit = 1
let deny = 2
let not_applicable = 3
let shed = 4
let indeterminate = 5

let code_of (r : Decision.result) =
  match r.Decision.decision with
  | Decision.Permit -> permit
  | Decision.Deny -> deny
  | Decision.Not_applicable -> not_applicable
  | Decision.Indeterminate m when m = Pep.shed_reason -> shed
  | Decision.Indeterminate _ -> indeterminate

(* One publish: CPU ns of its three phases, and the L1 entries its
   region dropped out of those resident. *)
type publish = {
  at : float;
  cpu_start : int;
  delta_ns : int;
  install_ns : int;
  invalidate_ns : int;
  dropped : int;
  resident : int;
}

type result = {
  setup_ns : int;
  timed_cpu_ns : int;
  setup_reference_ns : int array;  (** CPU ns of the reference kernel run after each stand-up *)
  timed_reference_ns : int array;  (** ... after each timed slice *)
  publish_reference_ns : int array;  (** ... among the measured publishes *)
  timed_words : float;
  peak_heap_words : int;
  offered : int;  (** requests due in the timed segment *)
  answered : int;  (** Permit, Deny or NotApplicable among them *)
  failed : int;  (** shed, fail-closed or other Indeterminate among them *)
  mismatches : int;  (** answers that differ from the reference, whole schedule *)
  stale : int;  (** answers carrying the just-replaced generation's decision (see [run]) *)
  conserved : bool;  (** every request answered exactly once *)
  latencies : float array;  (** sorted virtual seconds of the timed answers *)
  window : counts;  (** counter deltas over the timed segment *)
  publishes : publish array;  (** the publishes the publish metrics are taken from *)
  key_bytes : int;
  key_entries : int;
  codes : Bytes.t;
  done_at : float array;
  stamps : int array;
      (** traced runs only (zeros otherwise): monotonic ns at issue and at
          answer of request [i], at [2i] and [2i + 1] *)
  digest : string;  (** over every request's outcome code and exact latency *)
}

let reference (inp : Gen.t) =
  let policies = Hashtbl.create 16 and memo = Hashtbl.create 4096 in
  fun ci gen ->
    match Hashtbl.find_opt memo (ci, gen) with
    | Some c -> c
    | None ->
      let p =
        match Hashtbl.find_opt policies gen with
        | Some p -> p
        | None ->
          let p = Workload.churned_policy ~resources:Spec.peps ~gen in
          Hashtbl.add policies gen p;
          p
      in
      let c = code_of (Policy.evaluate inp.Gen.full.(ci) p) in
      Hashtbl.add memo (ci, gen) c;
      c

(* Set-up is timed [Spec.setups] times, each followed by a reference
   kernel run, and the median is reported.  Each VO is dropped before the
   next is stood up; the last one carries the traffic, so no stand-up is
   timed, and no peak heap taken, with earlier VOs live.  The dead VOs
   (0.5-1.2M words each, a few percent of what the timed segment
   allocates) are left to the program's own collector: a Gc.full_major
   here is credited by the OCaml 5 major GC against later slices, and it
   took a major cycle or two out of the timed segment and raised the peak
   heap by up to 30%. *)
let timed_stand_up w ~seed =
  let times = Array.make Spec.setups 0 and refs = Array.make Spec.setups 0 in
  let last = ref None in
  for k = 0 to Spec.setups - 1 do
    let c0 = Clock.cpu_ns () in
    let vo = stand_up w ~seed in
    times.(k) <- Clock.cpu_ns () - c0;
    if k = Spec.setups - 1 then last := Some vo;
    refs.(k) <- Reference.time ()
  done;
  Array.sort compare times;
  (times.(Spec.setups / 2), refs, Option.get !last)

let run ?(traced = false) (w : Spec.t) (inp : Gen.t) ~seed =
  let setup_ns, setup_refs, vo = timed_stand_up w ~seed in
  let engine = Net.engine vo.net in
  let n = inp.Gen.n in
  let codes = Bytes.make n '\000' in
  let done_at = Array.make n Float.nan in
  let gen_issued = Array.make n 0 and gen_done = Array.make n 0 in
  let stages = Array.make n Provenance.Shed and epochs = Array.make n 0 in
  let coalesced = Array.make n false in
  let answers = ref 0 in
  (* Allocated in untraced runs too, so both runs see the same heap and
     allocate the same words. *)
  let stamps = Array.make (2 * n) 0 in
  let gen = ref 0 and current = ref (policy 0) in
  let publishes = ref [] in
  let publish () =
    let next = policy (!gen + 1) in
    let t0 = Clock.cpu_ns () in
    let region = Delta.between (Some !current) (Some next) in
    let t1 = Clock.cpu_ns () in
    Array.iter (fun s -> Pdp_service.install_policy s next) vo.shards;
    let t2 = Clock.cpu_ns () in
    let resident = Array.fold_left (fun acc c -> acc + Decision_cache.size c) 0 vo.caches in
    let dropped = Array.fold_left (fun acc p -> acc + Pep.invalidate_region p region) 0 vo.peps in
    let t3 = Clock.cpu_ns () in
    incr gen;
    current := next;
    publishes :=
      {
        at = Net.now vo.net;
        cpu_start = t0;
        delta_ns = t1 - t0;
        install_ns = t2 - t1;
        invalidate_ns = t3 - t2;
        dropped;
        resident;
      }
      :: !publishes
  in
  let horizon = if n = 0 then 0.0 else inp.Gen.due.(n - 1) in
  (match w.Spec.churn_period with
  | None -> ()
  | Some period ->
    let rec tick at =
      if at <= horizon then
        Engine.schedule_at engine ~at (fun () ->
            publish ();
            tick (at +. period))
    in
    tick period);
  let issue i =
    gen_issued.(i) <- !gen;
    if traced then stamps.(2 * i) <- Clock.mono_ns ();
    Pep.decide_explained
      vo.peps.(inp.Gen.pep.(i))
      inp.Gen.ctxs.(inp.Gen.ctx.(i))
      (fun r prov ->
        incr answers;
        if traced then stamps.((2 * i) + 1) <- Clock.mono_ns ();
        if Bytes.get codes i = '\000' then begin
          Bytes.set codes i (Char.chr (code_of r));
          done_at.(i) <- Net.now vo.net;
          gen_done.(i) <- !gen;
          stages.(i) <- prov.Provenance.stage;
          epochs.(i) <- prov.Provenance.epoch;
          coalesced.(i) <- prov.Provenance.coalesced
        end
        else Bytes.set codes i '\255')
  in
  let rec arrive i =
    if i < n then
      Engine.schedule_at engine ~at:inp.Gen.due.(i) (fun () ->
          issue i;
          arrive (i + 1))
  in
  arrive 0;
  Net.run ~until:w.Spec.warmup vo.net;
  let before = counts vo in
  (* The timed segment runs in [Spec.slices] equal slices of virtual time,
     each followed by an untimed reference kernel run; the last slice
     drains the schedule. *)
  let timed_cpu_ns = ref 0 and timed_words = ref 0.0 in
  let timed_refs = Array.make Spec.slices 0 in
  let span = (horizon -. w.Spec.warmup) /. float_of_int Spec.slices in
  for k = 1 to Spec.slices do
    let w0 = Clock.words () in
    let c0 = Clock.cpu_ns () in
    if k = Spec.slices then Net.run vo.net
    else Net.run ~until:(w.Spec.warmup +. (float_of_int k *. span)) vo.net;
    timed_words := !timed_words +. (Clock.words () -. w0);
    timed_cpu_ns := !timed_cpu_ns + (Clock.cpu_ns () - c0);
    timed_refs.(k - 1) <- Reference.time ()
  done;
  let timed_cpu_ns = !timed_cpu_ns and timed_words = !timed_words in
  let window = diff before (counts vo) in
  let timed_publishes = List.filter (fun p -> p.at >= w.Spec.warmup) !publishes in
  let key_bytes = Array.fold_left (fun acc c -> acc + Decision_cache.key_bytes c) 0 vo.caches in
  let key_entries = Array.fold_left (fun acc c -> acc + Decision_cache.size c) 0 vo.caches in
  (* Without a churn schedule the publish cost is probed after the traffic,
     against the caches the traffic left behind, with a reference kernel
     run after every [every]-th publish: the host's speed while the
     publishes run, not during the traffic, is what corrects them. *)
  let schedule = Array.of_list (List.rev_map (fun p -> p.at) !publishes) in
  let measured, publish_refs =
    if w.Spec.churn_period <> None then (timed_publishes, timed_refs)
    else begin
      publishes := [];
      let every = max 1 (w.Spec.probe_publishes / Spec.slices) and refs = ref [] in
      for j = 1 to w.Spec.probe_publishes do
        publish ();
        if j mod every = 0 then refs := Reference.time () :: !refs
      done;
      (!publishes, Array.of_list !refs)
    end
  in
  let peak_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  (* Correctness: every answer against Policy.evaluate on the full
     context, under the generation in force at issue or at completion; a
     live answer must also equal the reference under the generation its
     deciding shard had compiled (its provenance epoch; epoch 1 is
     generation 0).  Two answers that carry the decision of the generation
     just replaced are counted apart as [stale] instead of failing, and
     only when the query that produced them was in flight across that
     publish: a live query issued before publish g and answered after it
     under generation g-1 ("crossing");
     - a coalesced waiter issued after publish g that joined a crossing
       query, and is answered with it;
     - an L1 hit issued in generation g, after a crossing query for the
       same context landed at that PEP: the query's answer was put into
       the L1 after publish g had purged it.
     Anything else is a mismatch, and more than [Spec.max_stale] stale answers
     fail the gate too. *)
  let expected = reference inp in
  let gen_of i = epochs.(i) - 1 in
  let crossing = Hashtbl.create 64 in
  for i = 0 to n - 1 do
    let g = gen_done.(i) in
    if stages.(i) = Provenance.Live && (not coalesced.(i)) && g > 0 && gen_of i = g - 1
       && inp.Gen.due.(i) < schedule.(g - 1)
    then Hashtbl.replace crossing (inp.Gen.ctx.(i), g) done_at.(i)
  done;
  let stale_ok i ci c =
    let g = gen_issued.(i) in
    g > 0 && gen_done.(i) = g
    && c = expected ci (g - 1)
    &&
    match Hashtbl.find_opt crossing (ci, g), stages.(i) with
    | Some landed, Provenance.Live -> coalesced.(i) && gen_of i = g - 1 && landed = done_at.(i)
    | Some landed, Provenance.L1 -> landed <= inp.Gen.due.(i)
    | _ -> false
  in
  let mismatches = ref 0 and stale = ref 0 and conserved = ref (!answers = n) in
  let offered = n - inp.Gen.first_timed in
  let answered = ref 0 and failed = ref 0 in
  let lat = Array.make offered 0.0 and nlat = ref 0 in
  let bits = Bytes.create (8 * n) in
  for i = 0 to n - 1 do
    let c = Char.code (Bytes.get codes i) in
    if c = 0 || c = 255 then conserved := false
    else if c = permit || c = deny || c = not_applicable then begin
      let ci = inp.Gen.ctx.(i) in
      if stages.(i) = Provenance.Live && c <> expected ci (gen_of i) then incr mismatches
      else if c <> expected ci gen_issued.(i) && c <> expected ci gen_done.(i) then
        if stale_ok i ci c then incr stale else incr mismatches
    end;
    let latency = done_at.(i) -. inp.Gen.due.(i) in
    Bytes.set_int64_le bits (8 * i) (Int64.bits_of_float latency);
    if i >= inp.Gen.first_timed then begin
      if c = permit || c = deny || c = not_applicable then begin
        incr answered;
        lat.(!nlat) <- latency;
        incr nlat
      end
      else incr failed
    end
  done;
  let latencies = Array.sub lat 0 !nlat in
  Array.sort Float.compare latencies;
  {
    setup_ns;
    timed_cpu_ns;
    setup_reference_ns = setup_refs;
    timed_reference_ns = timed_refs;
    publish_reference_ns = publish_refs;
    timed_words;
    peak_heap_words;
    offered;
    answered = !answered;
    failed = !failed;
    mismatches = !mismatches;
    stale = !stale;
    conserved = !conserved && !answered + !failed = offered;
    latencies;
    window;
    publishes = Array.of_list (List.rev measured);
    key_bytes;
    key_entries;
    codes;
    done_at;
    stamps;
    digest = Digest.to_hex (Digest.bytes (Bytes.cat codes bits));
  }
