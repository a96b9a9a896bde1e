module Metrics = Dacs_telemetry.Metrics
module Trace = Dacs_telemetry.Trace

type error =
  | Timeout
  | No_such_service of string
  | Circuit_open of Net.node_id

let error_to_string = function
  | Timeout -> "timeout"
  | No_such_service s -> Printf.sprintf "no such service: %s" s
  | Circuit_open n -> Printf.sprintf "circuit open towards %s" n

(* --- resilience configuration ------------------------------------------- *)

type retry_policy = {
  attempts : int;
  base_delay : float;
  multiplier : float;
  max_delay : float;
  jitter : float;
}

let no_retry = { attempts = 1; base_delay = 0.0; multiplier = 1.0; max_delay = 0.0; jitter = 0.0 }

let default_retry =
  { attempts = 3; base_delay = 0.05; multiplier = 2.0; max_delay = 2.0; jitter = 0.2 }

type breaker_config = { failure_threshold : int; cooldown : float }

let default_breaker = { failure_threshold = 5; cooldown = 2.0 }

type breaker_state = Closed | Open | Half_open

let breaker_state_to_string = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half-open"

type breaker = {
  mutable b_state : breaker_state;
  mutable consecutive_failures : int;
  mutable opened_at : float;
  mutable probe_in_flight : bool;
}

type resilience_event =
  | Attempt_failed of { target : Net.node_id; attempt : int; error : error }
  | Retrying of { target : Net.node_id; attempt : int; delay : float }
  | Breaker_opened of Net.node_id
  | Breaker_half_opened of Net.node_id
  | Breaker_closed of Net.node_id
  | Breaker_rejected of Net.node_id

type resilience_stats = { retries : int; breaker_trips : int; breaker_rejections : int }

type pending = { k : (string, error) result -> unit }

type t = {
  net : Net.t;
  services : (Net.node_id * string, caller:Net.node_id -> string -> (string -> unit) -> unit) Hashtbl.t;
  pending : (int, pending) Hashtbl.t;
  mutable next_id : int;
  mutable breaker_config : breaker_config option;
  breakers : (Net.node_id, breaker) Hashtbl.t;
  metrics : Metrics.t;
  tracer : Trace.t;
}

(* Resilience counters are labelled by the calling node, so a component
   resetting "its" series (e.g. Pep.reset_stats) and the bus-wide
   resilience_stats sum stay consistent: there is only one cell. *)
let retries_counter t src =
  Metrics.counter t.metrics ~help:"Resilient-call retry attempts issued."
    ~labels:[ ("src", src) ]
    "rpc_retries_total"

let trips_counter t src =
  Metrics.counter t.metrics ~help:"Circuit-breaker opens observed."
    ~labels:[ ("src", src) ]
    "rpc_breaker_trips_total"

let rejections_counter t src =
  Metrics.counter t.metrics ~help:"Calls shed by an open breaker."
    ~labels:[ ("src", src) ]
    "rpc_breaker_rejections_total"

let calls_counter t service =
  Metrics.counter t.metrics ~help:"RPC calls issued."
    ~labels:[ ("service", service) ]
    "rpc_calls_total"

let errors_counter t service =
  Metrics.counter t.metrics ~help:"RPC calls that failed (timeout, missing service, shed)."
    ~labels:[ ("service", service) ]
    "rpc_errors_total"

let served_counter t service =
  Metrics.counter t.metrics ~help:"RPC requests dispatched to a handler."
    ~labels:[ ("service", service) ]
    "rpc_requests_served_total"

let latency_histogram t service =
  Metrics.histogram t.metrics ~help:"Round-trip latency of RPC calls (virtual seconds)."
    ~labels:[ ("service", service) ]
    "rpc_call_latency_seconds"

let inflight_gauge t =
  Metrics.gauge t.metrics ~help:"RPC calls awaiting a reply." "rpc_calls_in_flight"

let batches_counter t service =
  Metrics.counter t.metrics ~help:"Batched RPC round-trips issued."
    ~labels:[ ("service", service) ]
    "rpc_batches_total"

let batch_parts_counter t service =
  Metrics.counter t.metrics ~help:"Individual queries carried inside batched round-trips."
    ~labels:[ ("service", service) ]
    "rpc_batch_parts_total"

let batch_size_buckets = [ 1.0; 2.0; 4.0; 8.0; 16.0; 32.0; 64.0 ]

let batch_size_histogram t service =
  Metrics.histogram t.metrics ~help:"Queries coalesced per batched round-trip."
    ~labels:[ ("service", service) ]
    ~buckets:batch_size_buckets "rpc_batch_size"

(* Wire format: kind '|' id '|' service '|' body.  The few header bytes
   model transport framing; the body carries the real (XML) payload whose
   size dominates.  The body is the unframed remainder and may contain
   anything; the service name is percent-escaped so that '|' (and '%')
   in a service name cannot break the framing. *)

let escape_service s =
  if String.contains s '|' || String.contains s '%' then begin
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (function
        | '|' -> Buffer.add_string buf "%7C"
        | '%' -> Buffer.add_string buf "%25"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end
  else s

let unescape_service s =
  if not (String.contains s '%') then s
  else begin
    let n = String.length s in
    let buf = Buffer.create n in
    let i = ref 0 in
    while !i < n do
      if s.[!i] = '%' && !i + 2 < n && s.[!i + 1] = '7' && s.[!i + 2] = 'C' then begin
        Buffer.add_char buf '|';
        i := !i + 3
      end
      else if s.[!i] = '%' && !i + 2 < n && s.[!i + 1] = '2' && s.[!i + 2] = '5' then begin
        Buffer.add_char buf '%';
        i := !i + 3
      end
      else begin
        Buffer.add_char buf s.[!i];
        incr i
      end
    done;
    Buffer.contents buf
  end

(* Frames are built in one buffer sized to the frame, with lengths and
   ids written as decimal digits in place. *)

let rec decimal_width n =
  if n < 0 then String.length (string_of_int n) else if n < 10 then 1 else 1 + decimal_width (n / 10)

let rec add_decimal buf n =
  if n < 0 then Buffer.add_string buf (string_of_int n)
  else begin
    if n >= 10 then add_decimal buf (n / 10);
    Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))
  end

(* Batch bodies: length-prefixed parts ("<len>:<bytes>..."), so parts may
   contain anything — including '|' and further frames. *)

let parts_length parts =
  List.fold_left (fun n p -> n + decimal_width (String.length p) + 1 + String.length p) 0 parts

let add_parts buf parts =
  List.iter
    (fun p ->
      add_decimal buf (String.length p);
      Buffer.add_char buf ':';
      Buffer.add_string buf p)
    parts

let encode_parts parts =
  let buf = Buffer.create (parts_length parts) in
  add_parts buf parts;
  Buffer.contents buf

(* A length prefix is decimal digits only, which is all [encode_parts]
   writes; a prefix longer than the input is rejected as soon as it is. *)
let decode_parts s =
  let n = String.length s in
  let rec part acc i =
    if i = n then Some (List.rev acc) else prefix acc i i 0
  and prefix acc start j len =
    if j = n then None
    else
      match String.unsafe_get s j with
      | '0' .. '9' as c ->
        let len = (len * 10) + (Char.code c - 48) in
        if len > n then None else prefix acc start (j + 1) len
      | ':' when j > start ->
        if j + 1 + len > n then None else part (String.sub s (j + 1) len :: acc) (j + 1 + len)
      | _ -> None
  in
  part [] 0

type body = Raw of string | Parts of string list

(* kind '|' id '|' (segment '|')* body *)
let encode_frame kind id segments body =
  let body_length = match body with Raw b -> String.length b | Parts p -> parts_length p in
  let buf =
    Buffer.create
      (String.length kind + decimal_width id + 2
      + List.fold_left (fun n s -> n + String.length s + 1) 0 segments
      + body_length)
  in
  Buffer.add_string buf kind;
  Buffer.add_char buf '|';
  add_decimal buf id;
  Buffer.add_char buf '|';
  List.iter
    (fun s ->
      Buffer.add_string buf s;
      Buffer.add_char buf '|')
    segments;
  (match body with Raw b -> Buffer.add_string buf b | Parts p -> add_parts buf p);
  Buffer.contents buf

let encode_request id service body = encode_frame "Q" id [ escape_service service ] (Raw body)

(* The trace context travels as one extra escaped header segment; replies
   need none (the pending table already knows which span awaits them). *)
let encode_traced_request id service ~trace body =
  encode_frame "T" id [ escape_service service; escape_service trace ] (Raw body)

let encode_reply id body = encode_frame "A" id [ "" ] (Raw body)
let encode_error id msg = encode_frame "E" id [ "" ] (Raw msg)
let encode_batch_request id service parts = encode_frame "B" id [ escape_service service ] (Parts parts)

let encode_traced_batch_request id service ~trace parts =
  encode_frame "BT" id [ escape_service service; escape_service trace ] (Parts parts)

type frame =
  | Request of int * string * string
  | Traced_request of { id : int; service : string; trace : string; body : string }
  | Batch_request of int * string * string list
  | Traced_batch_request of { id : int; service : string; trace : string; parts : string list }
  | Reply of int * string
  | Error_frame of int * string

let decode payload =
  match String.index_opt payload '|' with
  | None -> None
  | Some first -> (
    let kind = String.sub payload 0 first in
    match String.index_from_opt payload (first + 1) '|' with
    | None -> None
    | Some second -> (
      let id = int_of_string_opt (String.sub payload (first + 1) (second - first - 1)) in
      match (id, String.index_from_opt payload (second + 1) '|') with
      | Some id, Some third ->
        let service = unescape_service (String.sub payload (second + 1) (third - second - 1)) in
        let body = String.sub payload (third + 1) (String.length payload - third - 1) in
        let traced k =
          match String.index_from_opt payload (third + 1) '|' with
          | None -> None
          | Some fourth ->
            let trace = unescape_service (String.sub payload (third + 1) (fourth - third - 1)) in
            let body = String.sub payload (fourth + 1) (String.length payload - fourth - 1) in
            k trace body
        in
        (match kind with
        | "Q" -> Some (Request (id, service, body))
        | "T" -> traced (fun trace body -> Some (Traced_request { id; service; trace; body }))
        | "B" ->
          Option.map (fun parts -> Batch_request (id, service, parts)) (decode_parts body)
        | "BT" ->
          traced (fun trace body ->
              Option.map
                (fun parts -> Traced_batch_request { id; service; trace; parts })
                (decode_parts body))
        | "A" -> Some (Reply (id, body))
        | "E" -> Some (Error_frame (id, body))
        | _ -> None)
      | _ -> None))
  [@@warning "-4"]

(* A single request is a batch of one.  Each part goes to the ordinary
   per-request handler, and the reply leaves once the last part's
   (possibly asynchronous) reply has arrived — one round-trip, one fault
   envelope for the whole frame.  Only the reply encoding differs: a
   single request's reply is the bare body. *)
let dispatch t (msg : Net.message) id service trace ~batched parts =
  match Hashtbl.find_opt t.services (msg.Net.dst, service) with
  | None ->
    Net.send t.net ~src:msg.Net.dst ~dst:msg.Net.src ~category:"rpc-error"
      (encode_error id ("no-such-service:" ^ service))
  | Some handler ->
    let n = List.length parts in
    Metrics.inc ~by:n (served_counter t service);
    let span =
      if Trace.enabled t.tracer then begin
        let name = (if batched then "serve-batch:" else "serve:") ^ service in
        let s = Trace.start_span t.tracer ?parent:trace name in
        Trace.annotate s "node" msg.Net.dst;
        Trace.annotate s "caller" msg.Net.src;
        if batched then Trace.annotate s "batch" (string_of_int n);
        Some s
      end
      else None
    in
    let replies = Array.make n "" in
    let outstanding = ref n in
    let reply_part i body =
      replies.(i) <- body;
      decr outstanding;
      if !outstanding = 0 then begin
        (* The server span closes when the handler replies — possibly much
           later than the handler returned, after its own nested calls. *)
        Option.iter (fun s -> Trace.finish t.tracer s) span;
        Net.send t.net ~src:msg.Net.dst ~dst:msg.Net.src ~category:(msg.Net.category ^ "-reply")
          (encode_reply id (if batched then encode_parts (Array.to_list replies) else body))
      end
    in
    let saved = Trace.current t.tracer in
    Option.iter (fun s -> Trace.set_current t.tracer (Some (Trace.context s))) span;
    List.iteri (fun i part -> handler ~caller:msg.Net.src part (reply_part i)) parts;
    Trace.set_current t.tracer saved

let handle_message t (msg : Net.message) =
  match decode msg.Net.payload with
  | None -> ()
  | Some (Request (id, service, body)) -> dispatch t msg id service None ~batched:false [ body ]
  | Some (Traced_request { id; service; trace; body }) ->
    dispatch t msg id service (Trace.context_of_string trace) ~batched:false [ body ]
  | Some (Batch_request (id, service, parts)) -> dispatch t msg id service None ~batched:true parts
  | Some (Traced_batch_request { id; service; trace; parts }) ->
    dispatch t msg id service (Trace.context_of_string trace) ~batched:true parts
  | Some (Reply (id, body)) -> (
    match Hashtbl.find_opt t.pending id with
    | None -> () (* reply after timeout: drop *)
    | Some p ->
      Hashtbl.remove t.pending id;
      p.k (Ok body))
  | Some (Error_frame (id, msg_body)) -> (
    match Hashtbl.find_opt t.pending id with
    | None -> ()
    | Some p ->
      Hashtbl.remove t.pending id;
      let err =
        match String.index_opt msg_body ':' with
        | Some i when String.sub msg_body 0 i = "no-such-service" ->
          No_such_service (String.sub msg_body (i + 1) (String.length msg_body - i - 1))
        | _ -> Timeout
      in
      p.k (Error err))

let create net =
  let now () = Net.now net in
  let next_id () = Dacs_crypto.Rng.next_int64 (Engine.rng (Net.engine net)) in
  {
    net;
    services = Hashtbl.create 64;
    pending = Hashtbl.create 64;
    next_id = 0;
    breaker_config = None;
    breakers = Hashtbl.create 16;
    metrics = Metrics.create ~now ();
    tracer = Trace.create ~now ~next_id ();
  }

let net t = t.net
let metrics t = t.metrics
let tracer t = t.tracer
let set_tracing t on = Trace.set_enabled t.tracer on

let ensure_dispatch t node =
  Net.add_node t.net node;
  Net.set_handler t.net node (handle_message t)

let serve t ~node ~service handler =
  ensure_dispatch t node;
  Hashtbl.replace t.services (node, service) handler

(* Shared correlation machinery of single and batched calls: id
   allocation, one client span per attempt, the pending-table entry and
   its timeout timer.  [payload] builds the request frame, given the id
   and the optional trace context to carry. *)
let issue t ~src ~dst ~service ?(timeout = 1.0) ~span_label ~annotate_span ~payload k =
  ensure_dispatch t src;
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  let started = Net.now t.net in
  (* One client span per call attempt, parented on the ambient context —
     the span under which the caller's code is currently running.  Its
     context rides inside the request frame, and the continuation runs
     with the ambient context restored to the caller's, so nested calls
     made from continuations still stitch into the same tree. *)
  let initiating = Trace.current t.tracer in
  let span =
    if Trace.enabled t.tracer then begin
      let s = Trace.start_span t.tracer (span_label ^ service) in
      Trace.annotate s "src" src;
      Trace.annotate s "dst" dst;
      annotate_span s;
      Some s
    end
    else None
  in
  let finish result =
    Metrics.observe (latency_histogram t service) (Net.now t.net -. started);
    (match result with
    | Ok _ -> ()
    | Error e ->
      Metrics.inc (errors_counter t service);
      Option.iter (fun s -> Trace.set_status s (Trace.Span_error (error_to_string e))) span);
    Option.iter (fun s -> Trace.finish t.tracer s) span;
    Metrics.set_gauge (inflight_gauge t) (float_of_int (Hashtbl.length t.pending));
    let saved = Trace.current t.tracer in
    Trace.set_current t.tracer initiating;
    k result;
    Trace.set_current t.tracer saved
  in
  Hashtbl.replace t.pending id { k = finish };
  Metrics.set_gauge (inflight_gauge t) (float_of_int (Hashtbl.length t.pending));
  let trace = Option.map (fun s -> Trace.context_to_string (Trace.context s)) span in
  Net.send t.net ~src ~dst ~category:service (payload id trace);
  Engine.schedule (Net.engine t.net) ~delay:timeout (fun () ->
      match Hashtbl.find_opt t.pending id with
      | None -> ()
      | Some p ->
        Hashtbl.remove t.pending id;
        p.k (Error Timeout))

let call t ~src ~dst ~service ?timeout body k =
  Metrics.inc (calls_counter t service);
  issue t ~src ~dst ~service ?timeout ~span_label:"rpc:" ~annotate_span:ignore
    ~payload:(fun id trace ->
      match trace with
      | Some trace -> encode_traced_request id service ~trace body
      | None -> encode_request id service body)
    k

let call_batch t ~src ~dst ~service ?timeout bodies k =
  let n = List.length bodies in
  if n = 0 then invalid_arg "Rpc.call_batch: empty batch";
  Metrics.inc (calls_counter t service);
  Metrics.inc (batches_counter t service);
  Metrics.inc ~by:n (batch_parts_counter t service);
  Metrics.observe (batch_size_histogram t service) (float_of_int n);
  issue t ~src ~dst ~service ?timeout ~span_label:"rpc-batch:"
    ~annotate_span:(fun s -> Trace.annotate s "batch" (string_of_int n))
    ~payload:(fun id trace ->
      match trace with
      | Some trace -> encode_traced_batch_request id service ~trace bodies
      | None -> encode_batch_request id service bodies)
    (fun result ->
      match result with
      | Error e -> k (Error e)
      | Ok reply -> (
        match decode_parts reply with
        | Some parts when List.length parts = n -> k (Ok parts)
        | Some _ | None ->
          (* A peer that answers with the wrong arity is indistinguishable
             from a lost reply to the caller: fail the whole envelope. *)
          k (Error Timeout)))

let calls_in_flight t = Hashtbl.length t.pending

(* --- circuit breaker ------------------------------------------------------ *)

let set_breaker t config = t.breaker_config <- config

let breaker_for t dst =
  match Hashtbl.find_opt t.breakers dst with
  | Some b -> b
  | None ->
    let b =
      { b_state = Closed; consecutive_failures = 0; opened_at = neg_infinity; probe_in_flight = false }
    in
    Hashtbl.add t.breakers dst b;
    b

let breaker_state t dst =
  match (t.breaker_config, Hashtbl.find_opt t.breakers dst) with
  | None, _ | _, None -> Closed
  | Some cfg, Some b ->
    (* An open breaker past its cooldown admits a probe on the next call;
       report it as half-open so observers see the recoverable state. *)
    (match b.b_state with
    | Open when Net.now t.net >= b.opened_at +. cfg.cooldown -> Half_open
    | s -> s)

(* [true] when the attempt may be sent. *)
let breaker_admit t ~src ~notify dst =
  match t.breaker_config with
  | None -> true
  | Some cfg -> (
    let b = breaker_for t dst in
    let reject () =
      Metrics.inc (rejections_counter t src);
      Trace.record t.tracer ("breaker-rejected " ^ dst);
      notify (Breaker_rejected dst);
      false
    in
    match b.b_state with
    | Closed -> true
    | Open ->
      if Net.now t.net >= b.opened_at +. cfg.cooldown then begin
        b.b_state <- Half_open;
        b.probe_in_flight <- true;
        Trace.record t.tracer ("breaker-half-open " ^ dst);
        notify (Breaker_half_opened dst);
        true
      end
      else reject ()
    | Half_open ->
      if b.probe_in_flight then reject ()
      else begin
        b.probe_in_flight <- true;
        true
      end)

let breaker_success t ~notify dst =
  match t.breaker_config with
  | None -> ()
  | Some _ -> (
    let b = breaker_for t dst in
    match b.b_state with
    | Half_open ->
      b.b_state <- Closed;
      b.probe_in_flight <- false;
      b.consecutive_failures <- 0;
      Trace.record t.tracer ("breaker-closed " ^ dst);
      notify (Breaker_closed dst)
    | Closed -> b.consecutive_failures <- 0
    | Open -> () (* a straggler reply from before the trip; stay open until probed *))

let breaker_failure t ~src ~notify dst =
  match t.breaker_config with
  | None -> ()
  | Some cfg -> (
    let b = breaker_for t dst in
    let trip () =
      b.b_state <- Open;
      b.probe_in_flight <- false;
      b.opened_at <- Net.now t.net;
      Metrics.inc (trips_counter t src);
      Trace.record t.tracer ("breaker-opened " ^ dst);
      notify (Breaker_opened dst)
    in
    match b.b_state with
    | Half_open -> trip ()
    | Closed ->
      b.consecutive_failures <- b.consecutive_failures + 1;
      if b.consecutive_failures >= cfg.failure_threshold then trip ()
    | Open -> ())

(* --- resilient calls ---------------------------------------------------------- *)

let resilience_stats t =
  {
    retries = Metrics.sum_counter t.metrics "rpc_retries_total";
    breaker_trips = Metrics.sum_counter t.metrics "rpc_breaker_trips_total";
    breaker_rejections = Metrics.sum_counter t.metrics "rpc_breaker_rejections_total";
  }

let backoff_delay t retry failures =
  let d = ref retry.base_delay in
  for _ = 2 to failures do
    d := !d *. retry.multiplier
  done;
  let d = Float.min retry.max_delay !d in
  if retry.jitter <= 0.0 then d
  else begin
    (* Deterministic jitter: drawn from the engine's seeded RNG, so a
       rerun with the same seed backs off at exactly the same instants. *)
    let u = Dacs_crypto.Rng.float (Engine.rng (Net.engine t.net)) 1.0 in
    Float.max 0.0 (d *. (1.0 +. (retry.jitter *. ((2.0 *. u) -. 1.0))))
  end

(* The shared retry/breaker envelope: [issue] performs one attempt and
   hands its result to the continuation it is given.  Batched calls reuse
   the exact same envelope, which is what makes a batch one fault unit —
   the whole frame succeeds or the whole frame fails. *)
let resilient_loop (type a) t ~src ~dst ~retry ~notify ~(issue : ((a, error) result -> unit) -> unit)
    (k : (a, error) result -> unit) =
  if retry.attempts < 1 then invalid_arg "Rpc.call_resilient: attempts must be >= 1";
  let engine = Net.engine t.net in
  (* Backoff waits run as fresh engine callbacks with no ambient trace
     context; re-instate the initiator's so every attempt's span lands
     under the same parent. *)
  let initiating = Trace.current t.tracer in
  let rec attempt n =
    let saved = Trace.current t.tracer in
    Trace.set_current t.tracer initiating;
    (if not (breaker_admit t ~src ~notify dst) then after_failure n (Circuit_open dst)
     else
       issue (fun result ->
           match result with
           | Ok reply ->
             breaker_success t ~notify dst;
             k (Ok reply)
           | Error Timeout ->
             breaker_failure t ~src ~notify dst;
             after_failure n Timeout
           | Error (No_such_service _ as e) ->
             (* The target answered: not a health failure, and retrying the
                same missing service cannot succeed. *)
             k (Error e)
           | Error (Circuit_open _ as e) -> after_failure n e));
    Trace.set_current t.tracer saved
  and after_failure n err =
    notify (Attempt_failed { target = dst; attempt = n; error = err });
    if n >= retry.attempts then k (Error err)
    else begin
      let delay = backoff_delay t retry n in
      Metrics.inc (retries_counter t src);
      Trace.record t.tracer
        (Printf.sprintf "retry %d -> %s after %s" (n + 1) dst (error_to_string err));
      notify (Retrying { target = dst; attempt = n + 1; delay });
      Engine.schedule engine ~delay (fun () -> attempt (n + 1))
    end
  in
  attempt 1

let call_resilient t ~src ~dst ~service ?timeout ?(retry = no_retry) ?(notify = ignore)
    body k =
  resilient_loop t ~src ~dst ~retry ~notify
    ~issue:(fun k -> call t ~src ~dst ~service ?timeout body k)
    k

let call_batch_resilient t ~src ~dst ~service ?timeout bodies k =
  resilient_loop t ~src ~dst ~retry:no_retry ~notify:ignore
    ~issue:(fun k -> call_batch t ~src ~dst ~service ?timeout bodies k)
    k
