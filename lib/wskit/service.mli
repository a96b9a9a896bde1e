(** SOAP services over the simulated network.

    Registers named endpoints on nodes; handlers receive the request body
    element and reply with a body element (or a fault).  All access-control
    components — PEP, PDP, PAP, PIP, capability service — are exposed this
    way, matching the paper's SOA deployment model. *)

type t

val create : Dacs_net.Rpc.t -> t
val rpc : t -> Dacs_net.Rpc.t
val net : t -> Dacs_net.Net.t

val metrics : t -> Dacs_telemetry.Metrics.t
(** The underlying bus's shared metrics registry (see {!Dacs_net.Rpc.metrics}). *)

val tracer : t -> Dacs_telemetry.Trace.t
(** The underlying bus's tracer. *)

type handler =
  caller:Dacs_net.Net.node_id ->
  headers:Dacs_xml.Xml.t list ->
  Dacs_xml.Xml.t ->
  (Dacs_xml.Xml.t -> unit) ->
  unit
(** [handler ~caller ~headers body reply]: call [reply] exactly once with
    the response body element. *)

val serve : t -> node:Dacs_net.Net.node_id -> service:string -> handler -> unit
(** Malformed request envelopes are answered with a SOAP fault without
    invoking the handler. *)

type error =
  | Transport of Dacs_net.Rpc.error
  | Fault of Soap.fault
  | Malformed of string

val error_to_string : error -> string

val call :
  t ->
  src:Dacs_net.Net.node_id ->
  dst:Dacs_net.Net.node_id ->
  service:string ->
  ?timeout:float ->
  ?headers:Dacs_xml.Xml.t list ->
  Dacs_xml.Xml.t ->
  ((Dacs_xml.Xml.t, error) result -> unit) ->
  unit
(** Send a body element, receive the response body element.  Faults and
    transport failures surface as [Error]. *)

val call_resilient :
  t ->
  src:Dacs_net.Net.node_id ->
  dst:Dacs_net.Net.node_id ->
  service:string ->
  ?timeout:float ->
  ?retry:Dacs_net.Rpc.retry_policy ->
  ?headers:Dacs_xml.Xml.t list ->
  Dacs_xml.Xml.t ->
  ((Dacs_xml.Xml.t, error) result -> unit) ->
  unit
(** Like {!call}, but transport failures go through the RPC resilience
    layer: retried per [retry] (default single attempt) and subject to
    the bus's circuit breaker when one is enabled.  SOAP faults are
    application answers, never retried. *)

val call_batch_resilient :
  t ->
  src:Dacs_net.Net.node_id ->
  dst:Dacs_net.Net.node_id ->
  service:string ->
  ?timeout:float ->
  Dacs_xml.Xml.t list ->
  (((Dacs_xml.Xml.t, error) result list, error) result -> unit) ->
  unit
(** Several request bodies coalesced into one {!Dacs_net.Rpc.call_batch}
    round-trip with a single breaker envelope and one attempt.  On transport
    success the continuation receives one decoded result per request (a
    part may individually be a [Fault] or [Malformed]); on transport
    failure the whole batch fails with [Error (Transport _)] — there are
    no partial deliveries.  Parts carry no SOAP headers. *)
