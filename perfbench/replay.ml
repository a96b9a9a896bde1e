(* The traced run's per-layer table: replay the generated contexts of the
   timed segment through each layer's public functions, recording a span
   per call (monotonic ns, parented to the request it replays) and the
   minor-heap words the call allocated.  Calls per decide come from the
   simulation's own counters, so a layer's share of a decide is its cost
   per call times how often a decide makes it. *)

open Dacs_core
module Context = Dacs_policy.Context
module Decision = Dacs_policy.Decision
module Compiled = Dacs_policy.Compiled
module Delta = Dacs_policy.Delta
module Metrics = Dacs_telemetry.Metrics
module Loghist = Dacs_telemetry.Loghist
module Net = Dacs_net.Net
module Rpc = Dacs_net.Rpc
module Soap = Dacs_ws.Soap
module Xml = Dacs_xml.Xml

(* Requests replayed per layer, and publishes replayed per publish op. *)
let requests = 4000
let publishes = 20

(* Replayed operations.  [child] ones run inside another op (Xml.of_string
   inside Soap.parse) and stay out of the layer sum. *)
type op = { name : string; unit_us : bool; child : bool }

let ops =
  [|
    { name = "intern.request_key"; unit_us = false; child = false };
    { name = "decision_cache.lookup"; unit_us = false; child = false };
    { name = "wire.authz_query"; unit_us = false; child = false };
    { name = "soap.to_string"; unit_us = false; child = false };
    { name = "rpc.encode_batch"; unit_us = false; child = false };
    { name = "net.send_deliver"; unit_us = false; child = false };
    { name = "rpc.decode"; unit_us = false; child = false };
    { name = "soap.parse"; unit_us = false; child = false };
    { name = "xml.of_string"; unit_us = false; child = true };
    { name = "wire.parse_authz_query"; unit_us = false; child = false };
    { name = "pdp_tier.shard_for"; unit_us = false; child = false };
    { name = "compiled.evaluate"; unit_us = false; child = false };
    { name = "wire.authz_response"; unit_us = false; child = false };
    { name = "wire.parse_authz_response"; unit_us = false; child = false };
    { name = "cache_hierarchy.attr_find"; unit_us = false; child = false };
    { name = "telemetry.counter_inc"; unit_us = false; child = false };
    { name = "telemetry.histogram_observe"; unit_us = false; child = false };
    { name = "telemetry.loghist_observe"; unit_us = false; child = false };
    { name = "delta.between"; unit_us = true; child = false };
    { name = "compiled.recompile"; unit_us = true; child = false };
    { name = "decision_cache.invalidate_region"; unit_us = true; child = false };
  |]

let index name =
  let rec go i = if ops.(i).name = name then i else go (i + 1) in
  go 0

(* Calls per offered request of the timed segment, from the counters of
   the simulation that ran the same schedule. *)
let calls_per_decide (w : Spec.t) (r : Sim.result) =
  let c = r.Sim.window in
  let per x = float_of_int x /. float_of_int (max 1 r.Sim.offered) in
  let queries = Array.fold_left ( + ) 0 c.Sim.queries in
  let admitted = r.Sim.offered - c.Sim.shed in
  let envelopes = 2 * (c.Sim.dispatched + c.Sim.pip_frames) in
  let timed_publishes =
    if w.Spec.churn_period = None then 0 else Array.length r.Sim.publishes
  in
  function
  | "intern.request_key" -> per admitted
  | "decision_cache.lookup" ->
    if w.Spec.l1 = None then 0.0 else per (admitted - c.Sim.coalesced)
  | "wire.authz_query" | "wire.parse_authz_query" | "wire.parse_authz_response"
  | "pdp_tier.shard_for" ->
    per c.Sim.dispatched
  | "soap.to_string" | "soap.parse" | "xml.of_string" -> per envelopes
  | "rpc.encode_batch" -> per c.Sim.frames
  | "net.send_deliver" | "rpc.decode" -> per c.Sim.msgs
  | "compiled.evaluate" -> per (queries + c.Sim.pip_frames)
  | "wire.authz_response" -> per queries
  | "cache_hierarchy.attr_find" -> per (c.Sim.attr_hits + c.Sim.attr_misses)
  | "telemetry.counter_inc" -> per c.Sim.counter_incs
  | "telemetry.histogram_observe" -> per c.Sim.observations
  | "delta.between" -> per timed_publishes
  | "compiled.recompile" -> per (timed_publishes * Spec.shards)
  | "decision_cache.invalidate_region" ->
    if w.Spec.l1 = None then 0.0 else per (timed_publishes * Spec.peps)
  | "telemetry.loghist_observe" -> 0.0 (* not on the decide path *)
  | name -> invalid_arg ("Replay.calls_per_decide: " ^ name)

(* In-memory span store: one preallocated slot per replayed call. *)
type store = {
  op : int array;
  parent : int array;  (** request index; -1 for publish spans *)
  start : int array;
  dur : int array;
  mutable len : int;
}

let run (w : Spec.t) (inp : Gen.t) (r : Sim.result) ~spans:path =
  let m = min requests (inp.Gen.n - inp.Gen.first_timed) in
  let req k = inp.Gen.first_timed + k in
  let ctx k = inp.Gen.ctxs.(inp.Gen.ctx.(req k)) in
  let full k = inp.Gen.full.(inp.Gen.ctx.(req k)) in
  let nops = Array.length ops in
  let capacity = (2 * nops * m) + (3 * publishes) + 1024 in
  let st =
    {
      op = Array.make capacity 0;
      parent = Array.make capacity 0;
      start = Array.make capacity 0;
      dur = Array.make capacity 0;
      len = 0;
    }
  in
  let words = Array.make nops 0.0 and calls = Array.make nops 0 in
  (* Cost of the measurement itself (two clock reads, two word reads and
     an indirect call), subtracted from every op. *)
  let overhead =
    let d = Array.make 20_001 0 in
    let f = Sys.opaque_identity (fun () -> ()) in
    for i = 0 to Array.length d - 1 do
      let t0 = Clock.mono_ns () in
      let _ = Gc.minor_words () in
      f ();
      let _ = Gc.minor_words () in
      d.(i) <- Clock.mono_ns () - t0
    done;
    Array.sort compare d;
    float_of_int d.(Array.length d / 2)
  in
  let timed op parent f =
    let w0 = Gc.minor_words () in
    let t0 = Clock.mono_ns () in
    let v = f () in
    let t1 = Clock.mono_ns () in
    let w1 = Gc.minor_words () in
    let i = st.len in
    st.op.(i) <- op;
    st.parent.(i) <- parent;
    st.start.(i) <- t0;
    st.dur.(i) <- t1 - t0;
    st.len <- i + 1;
    words.(op) <- words.(op) +. (w1 -. w0);
    calls.(op) <- calls.(op) + 1;
    v
  in
  let op = index in
  let root = Sim.policy 0 in
  let compiled = Compiled.compile root in
  let entries = match w.Spec.l1 with Some (_, entries) -> entries | None -> 0 in
  let cache = Decision_cache.create ~max_entries:(max m entries) ~ttl:1e9 () in
  let services = Dacs_ws.Service.create (Rpc.create (Net.create ())) in
  let tier =
    Pdp_tier.create services ~node:"pep"
      ~shards:(List.init Spec.shards (fun i -> "pdp." ^ string_of_int i))
      ()
  in
  let net = Net.create () in
  Net.add_node net "pep";
  Net.add_node net "pdp";
  Net.set_handler net "pdp" (fun _ -> ());
  let attrs = Cache_hierarchy.Attr_cache.create (Metrics.create ()) ~node:"replay" ~ttl:1e9 () in
  let role_pair = Cache_hierarchy.Attr_cache.pair_sym Context.Subject "role" in
  let registry = Metrics.create () in
  let counter = Metrics.counter registry "replay_total" in
  let hist = Metrics.histogram registry "replay_seconds" in
  let loghist = Loghist.create () in
  (* One frame per group of queries the size the tier's batches averaged. *)
  let group =
    let c = r.Sim.window in
    if c.Sim.frames = 0 then 1
    else
      max 1 (int_of_float (Float.round (float_of_int c.Sim.dispatched /. float_of_int c.Sim.frames)))
  in
  let parts = ref [] and frame_id = ref 0 in
  let flush_frame i =
    let p = List.rev !parts in
    parts := [];
    incr frame_id;
    let frame = timed (op "rpc.encode_batch") i (fun () -> Rpc.encode_batch_request !frame_id "authz-query" p) in
    timed (op "net.send_deliver") i (fun () ->
        Net.send net ~src:"pep" ~dst:"pdp" ~category:"authz-query" frame;
        Net.run net);
    ignore (timed (op "rpc.decode") i (fun () -> Rpc.decode frame))
  in
  let body = function Ok e -> e.Soap.body | Error e -> failwith ("replay: " ^ e) in
  let keys = Array.make m "" and results = Array.make m Decision.not_applicable in
  let candidates = ref 0 in
  (* Request-major order: each request's calls run back to back, as they
     do on the decide path, so every layer sees the same host speed. *)
  for k = 0 to m - 1 do
    let i = req k and c = ctx k in
    let role = Context.bag (full k) Context.Subject "role" in
    let resolve category id =
      if category = Context.Subject && id = "role" then Some role else None
    in
    let subject_sym =
      Cache_hierarchy.Attr_cache.subject_sym (Gen.user_name inp.Gen.user.(inp.Gen.ctx.(i)))
    in
    let latency = r.Sim.done_at.(i) -. inp.Gen.due.(i) in
    (* PEP *)
    let key = timed (op "intern.request_key") i (fun () -> Decision_cache.request_key c) in
    keys.(k) <- key;
    let found =
      timed (op "decision_cache.lookup") i (fun () ->
          Decision_cache.lookup cache ~now:0.0 ~max_stale:0.0 ~key)
    in
    ignore (timed (op "pdp_tier.shard_for") i (fun () -> Pdp_tier.shard_for tier key));
    (* query out *)
    let q = timed (op "wire.authz_query") i (fun () -> Wire.authz_query c) in
    let envelope = { Soap.headers = []; body = q } in
    let q_text = timed (op "soap.to_string") i (fun () -> Soap.to_string envelope) in
    parts := q_text :: !parts;
    if List.length !parts = group || k = m - 1 then flush_frame i;
    ignore (timed (op "xml.of_string") i (fun () -> Xml.of_string q_text));
    let q_body = body (timed (op "soap.parse") i (fun () -> Soap.parse q_text)) in
    ignore (timed (op "wire.parse_authz_query") i (fun () -> Wire.parse_authz_query q_body));
    (* shard *)
    ignore
      (timed (op "cache_hierarchy.attr_find") i (fun () ->
           Cache_hierarchy.Attr_cache.find_sym attrs ~now:0.0 ~pair:role_pair ~subject_sym));
    Cache_hierarchy.Attr_cache.store_sym attrs ~now:0.0 ~pair:role_pair ~subject_sym role;
    let result = timed (op "compiled.evaluate") i (fun () -> Compiled.evaluate ~resolve c compiled) in
    results.(k) <- result;
    candidates := !candidates + Compiled.candidate_count compiled (full k);
    (* answer back *)
    let a = timed (op "wire.authz_response") i (fun () -> Wire.authz_response ~epoch:1 result) in
    let envelope = { Soap.headers = []; body = a } in
    let a_text = timed (op "soap.to_string") i (fun () -> Soap.to_string envelope) in
    ignore (timed (op "xml.of_string") i (fun () -> Xml.of_string a_text));
    let a_body = body (timed (op "soap.parse") i (fun () -> Soap.parse a_text)) in
    ignore (timed (op "wire.parse_authz_response") i (fun () -> Wire.parse_authz_response a_body));
    if found = Decision_cache.Absent then Decision_cache.put cache ~now:0.0 ~key result;
    (* telemetry on the decide path *)
    timed (op "telemetry.counter_inc") i (fun () -> Metrics.inc counter);
    timed (op "telemetry.histogram_observe") i (fun () ->
        Metrics.observe_exemplar hist latency ~trace:"" ~at:0.0);
    timed (op "telemetry.loghist_observe") i (fun () -> Loghist.observe loghist latency)
  done;
  (* Publish path: change-impact region, incremental recompile, and a
     region purge of an L1 holding as many entries as a PEP held, on
     average, when the simulation published. *)
  let resident =
    let total = Array.fold_left (fun a p -> a + p.Sim.resident) 0 r.Sim.publishes in
    let n = Array.length r.Sim.publishes * Spec.peps in
    if n = 0 then 0 else min m (total / n)
  in
  let previous = ref root and current = ref compiled in
  for g = 1 to publishes do
    let next = Sim.policy g in
    Decision_cache.invalidate_all cache;
    for k = 0 to resident - 1 do
      Decision_cache.put cache ~now:0.0 ~key:keys.(k) results.(k)
    done;
    let region = timed (op "delta.between") (-1) (fun () -> Delta.between (Some !previous) (Some next)) in
    current := timed (op "compiled.recompile") (-1) (fun () -> Compiled.recompile !current next);
    ignore
      (timed (op "decision_cache.invalidate_region") (-1) (fun () ->
           Decision_cache.invalidate_region cache region));
    previous := next
  done;
  (* The table.  A call's cost is the median of its replayed durations
     less the measurement overhead, so collector pauses that happen to land
     in one call stay in the unattributed share. *)
  let median_ns op =
    let d = ref [] in
    for s = st.len - 1 downto 0 do
      if st.op.(s) = op then d := st.dur.(s) :: !d
    done;
    let a = Array.of_list !d in
    Array.sort compare a;
    if Array.length a = 0 then 0.0 else float_of_int a.(Array.length a / 2)
  in
  let calls_of = calls_per_decide w r in
  let layer_sum = ref 0.0 in
  let rows =
    Array.to_list
      (Array.mapi
         (fun i o ->
           let n = float_of_int (max 1 calls.(i)) in
           let per_call = Float.max 0.0 (median_ns i -. overhead) in
           let per_decide = calls_of o.name in
           if not o.child then layer_sum := !layer_sum +. (per_call *. per_decide);
           if o.unit_us then [ (o.name ^ "_us", per_call /. 1e3) ]
           else
             [
               (o.name ^ "_ns", per_call);
               (o.name ^ "_words", words.(i) /. n);
               (o.name ^ "_per_decide", per_decide);
             ])
         ops)
  in
  let metrics =
    List.concat rows
    @ [
        ("compiled.candidates_per_eval", float_of_int !candidates /. float_of_int (max 1 m));
        ("layer_sum_ns_per_decide", !layer_sum);
      ]
  in
  (* Spans go out once, after every measurement. *)
  let oc = open_out path in
  (* One JSON array per span:
     [id, parent, trace, name, clock, start, duration, mono_start, mono_duration]
     where the last two are present on decide spans of traced runs. *)
  let line ?(extra = "") id parent trace name clock start dur =
    Printf.fprintf oc "[%d,%s,%d,%S,%S,%s,%s%s]\n" id
      (if parent < 0 then "null" else string_of_int parent)
      trace name clock start dur extra
  in
  for i = 0 to inp.Gen.n - 1 do
    let extra =
      if r.Sim.stamps.((2 * i) + 1) = 0 then ""
      else
        Printf.sprintf ",%d,%d" r.Sim.stamps.(2 * i)
          (r.Sim.stamps.((2 * i) + 1) - r.Sim.stamps.(2 * i))
    in
    line ~extra i (-1) i "decide" "virtual_s" (Json.num inp.Gen.due.(i))
      (Json.num (r.Sim.done_at.(i) -. inp.Gen.due.(i)))
  done;
  let id = ref inp.Gen.n in
  Array.iter
    (fun (p : Sim.publish) ->
      let parent = !id in
      line parent (-1) parent "publish" "cpu_ns" (Json.int p.Sim.cpu_start)
        (Json.int (p.Sim.delta_ns + p.Sim.install_ns + p.Sim.invalidate_ns));
      let t = ref p.Sim.cpu_start in
      List.iteri
        (fun k (name, d) ->
          line (parent + 1 + k) parent parent name "cpu_ns" (Json.int !t) (Json.int d);
          t := !t + d)
        [
          ("publish.delta", p.Sim.delta_ns);
          ("publish.install", p.Sim.install_ns);
          ("publish.invalidate", p.Sim.invalidate_ns);
        ];
      id := !id + 4)
    r.Sim.publishes;
  for s = 0 to st.len - 1 do
    let parent = st.parent.(s) in
    let trace = if parent < 0 then !id + s else parent in
    line (!id + s) parent trace ops.(st.op.(s)).name "mono_ns" (Json.int st.start.(s))
      (Json.int st.dur.(s))
  done;
  close_out oc;
  Json.obj (List.map (fun (k, v) -> (k, Json.num v)) metrics)
