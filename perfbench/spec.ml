(* The three benchmark workloads.  Why each exists, and which layer
   metric should move which end-to-end metric on it, is recorded in
   README.md next to this file; the names are cited by later changes and
   must not be reused for different traffic. *)

type t = {
  name : string;
  users : int;
  user_skew : float;  (** Zipf exponent of the user mix *)
  rate : float;  (** open-loop Poisson arrivals per virtual second *)
  warmup_rate : float;  (** arrival rate during the warm-up segment *)
  warmup : float;  (** virtual seconds run before the timed segment *)
  timed_requests : int;  (** expected arrivals in the timed segment *)
  l1 : (float * int) option;
      (** PEP decision cache: TTL and entries per PEP; [None] = off *)
  service_time : float;  (** per-query shard occupancy, virtual seconds *)
  attr_ttl : float option;
      (** [Some ttl]: requests carry only subject-id and shards resolve role
          from the PIP through an attribute cache with this TTL *)
  churn_period : float option;  (** policy publish period, virtual seconds *)
  probe_publishes : int;
      (** without a churn schedule: publishes timed after the traffic, so
          every workload reports the cost of one publish against its own
          cache state *)
}

(* Cross-domain links: 5 ms one way (the simnet default) plus a
   100 Mbit/s serialisation delay, so frame size shows on the virtual
   clock as well as in the byte counts. *)
let bandwidth = 12.5e6

(* Slices of the timed segment; a reference kernel run follows each. *)
let slices = 40

(* Stale answers (see Sim.run) a process may count before the
   correctness gate fails; 0 to 9 per process over seeds 1-32 of
   churn_pull. *)
let max_stale = 16

(* Stand-ups per process; the median is reported as setup_s. *)
let setups = 9

(* The VO every workload stands up: 16 PEPs (one guarded resource each)
   over 4 domains, each dispatching through its own tier to the same 8
   compiled shards; tier batches of up to 8 queries; admission bounds on
   every PEP and shard, sized so that no workload sheds. *)
let peps = 16
let domains = 4
let shards = 8
let batch = 8
let admission = Some { Dacs_core.Pep.max_inflight = 64; max_queue = 256 }
let shard_max_inflight = Some 256

(* Zipf exponent of the PEP/resource mix. *)
let resource_skew = 0.8

let cold_wire =
  {
    name = "cold_wire";
    users = 50_000;
    user_skew = 0.8;
    (* 8 shards x 1/2 ms = 4000 queries per virtual second.  1700 req/s is
       about 42% of that; the ring puts about 1.6x the mean load on the
       busiest shard, which then runs near 70%. *)
    rate = 1700.0;
    warmup_rate = 1700.0;
    warmup = 1.0;
    timed_requests = 60_000;
    l1 = None;
    service_time = 0.002;
    attr_ttl = None;
    churn_period = None;
    probe_publishes = 1000;
  }

let warm_l1 =
  {
    name = "warm_l1";
    users = 2_000;
    user_skew = 1.5;
    rate = 20_000.0;
    (* The L1s fill at a rate the shards absorb; the timed segment then
       offers its misses enough load to queue. *)
    warmup_rate = 2_000.0;
    warmup = 20.0;
    timed_requests = 300_000;
    l1 = Some (100_000.0, 1024);
    service_time = 0.003;
    attr_ttl = None;
    churn_period = None;
    probe_publishes = 120;
  }

let churn_pull =
  {
    name = "churn_pull";
    users = 20_000;
    user_skew = 1.0;
    rate = 4_000.0;
    warmup_rate = 4_000.0;
    warmup = 1.0;
    timed_requests = 30_000;
    l1 = Some (10.0, 8192);
    service_time = 0.001;
    attr_ttl = Some 5.0;
    churn_period = Some 0.1;
    probe_publishes = 0;
  }

let all = [ cold_wire; warm_l1; churn_pull ]

let find name = List.find_opt (fun w -> w.name = name) all
