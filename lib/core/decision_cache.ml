module Metrics = Dacs_telemetry.Metrics

type entry = { result : Dacs_policy.Decision.result; expires : float; stamp : int }

type stats = { hits : int; misses : int; expiries : int; evictions : int; stale_hits : int }

type t = {
  ttl : float;
  max_entries : int;
  table : (string, entry) Hashtbl.t;
  (* Insertion order as (key, stamp) pairs; re-inserting a key leaves its
     older pairs behind as tombstones, skipped at eviction time. *)
  order : (string * int) Queue.t;
  mutable next_stamp : int;
  (* The one tally of each statistic: a series in the caller's registry
     (labelled by owner) or in a private one. *)
  c_hits : Metrics.counter;
  c_misses : Metrics.counter;
  c_expiries : Metrics.counter;
  c_evictions : Metrics.counter;
  c_stale_hits : Metrics.counter;
}

let create ?metrics ?(owner = "default") ?(max_entries = 1024) ~ttl () =
  if ttl < 0.0 then invalid_arg "Decision_cache.create: negative ttl";
  let registry = match metrics with Some m -> m | None -> Metrics.create () in
  let c ?help n = Metrics.counter registry ?help ~labels:[ ("cache", owner) ] n in
  {
    ttl;
    max_entries;
    (* Pre-size from capacity so a cache filled to max_entries never
       rehashes; capped so absurd limits don't allocate absurd tables. *)
    table = Hashtbl.create (max 64 (min max_entries (1 lsl 18)));
    order = Queue.create ();
    next_stamp = 0;
    c_hits = c "decision_cache_hits_total" ~help:"Fresh cache hits";
    c_misses = c "decision_cache_misses_total" ~help:"Cache misses";
    c_expiries = c "decision_cache_expiries_total" ~help:"Entries dropped past staleness";
    c_evictions = c "decision_cache_evictions_total" ~help:"Capacity evictions";
    c_stale_hits = c "decision_cache_stale_hits_total" ~help:"Lookups answered stale";
  }

let ttl t = t.ttl

type lookup =
  | Fresh of Dacs_policy.Decision.result
  | Stale of { result : Dacs_policy.Decision.result; age : float }
  | Absent

let lookup t ~now ~max_stale ~key =
  match Hashtbl.find_opt t.table key with
  | None ->
    Metrics.inc t.c_misses;
    Absent
  | Some e ->
    if now < e.expires then begin
      Metrics.inc t.c_hits;
      Fresh e.result
    end
    else begin
      let age = now -. e.expires in
      if age <= max_stale then begin
        (* Kept for possible degraded serving; still a miss for the
           caller's fresh-path accounting. *)
        Metrics.inc t.c_misses;
        Metrics.inc t.c_stale_hits;
        Stale { result = e.result; age }
      end
      else begin
        Hashtbl.remove t.table key;
        Metrics.inc t.c_expiries;
        Metrics.inc t.c_misses;
        Absent
      end
    end

let get t ~now ~key =
  match lookup t ~now ~max_stale:0.0 ~key with
  | Fresh result -> Some result
  | Stale _ | Absent -> None

let evict_one t =
  (* Pop queue pairs until one still names the live insertion of its key:
     a (key, stamp) whose stamp is outdated means the key was re-inserted
     later and must not be evicted on the strength of its old position. *)
  let rec go () =
    match Queue.take_opt t.order with
    | None -> ()
    | Some (key, stamp) -> (
      match Hashtbl.find_opt t.table key with
      | Some e when e.stamp = stamp ->
        Hashtbl.remove t.table key;
        Metrics.inc t.c_evictions
      | Some _ | None -> go ())
  in
  go ()

let put t ~now ~key result =
  match result.Dacs_policy.Decision.decision with
  | Dacs_policy.Decision.Indeterminate _ ->
    (* Never cache errors: an Indeterminate is a statement about the
       authorisation machinery at one instant, not about the policy, and
       caching one would keep failing requests after the fault clears. *)
    ()
  | Dacs_policy.Decision.Permit | Dacs_policy.Decision.Deny | Dacs_policy.Decision.Not_applicable ->
    (* Negative caching: Deny and NotApplicable are cached under the same
       TTL as Permit — a hot mistaken request is as worth absorbing as a
       hot granted one, and invalidation rounds purge all three alike. *)
    if not (Hashtbl.mem t.table key) && Hashtbl.length t.table >= t.max_entries then evict_one t;
    let stamp = t.next_stamp in
    t.next_stamp <- t.next_stamp + 1;
    Hashtbl.replace t.table key { result; expires = now +. t.ttl; stamp };
    Queue.add (key, stamp) t.order

let invalidate t ~key = Hashtbl.remove t.table key

let invalidate_all t =
  Hashtbl.reset t.table;
  Queue.clear t.order

(* A key is droppable for a region when the context it decodes to lies
   inside it.  Undecodable keys (put by a caller from outside the packed
   scheme, or vocabulary from another process) drop too: the region test
   needs the key's atoms, and a key we cannot read might belong to an
   affected request.  The
   decoded context carries no Environment bags, so environment-guarded
   pins can never exclude a key — also conservative. *)
let key_in_region region key =
  match Intern.decode_key key with
  | None -> true
  | Some ctx -> Dacs_policy.Delta.covers region ctx

let invalidate_region t region =
  match region with
  | Dacs_policy.Delta.Empty -> 0
  | Dacs_policy.Delta.Unbounded ->
    let n = Hashtbl.length t.table in
    invalidate_all t;
    n
  | Dacs_policy.Delta.Zones _ ->
    let doomed =
      Hashtbl.fold (fun key _ acc -> if key_in_region region key then key :: acc else acc) t.table []
    in
    List.iter (fun key -> Hashtbl.remove t.table key) doomed;
    List.length doomed

let size t = Hashtbl.length t.table

let key_bytes t = Hashtbl.fold (fun key _ acc -> acc + String.length key) t.table 0

let stats t =
  let v = Metrics.counter_value in
  {
    hits = v t.c_hits;
    misses = v t.c_misses;
    expiries = v t.c_expiries;
    evictions = v t.c_evictions;
    stale_hits = v t.c_stale_hits;
  }

let request_key ctx = Intern.request_key ctx
