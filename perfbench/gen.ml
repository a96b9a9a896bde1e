(* The benchmark's own seeded input generator: a Zipf user and resource
   mix with open-loop Poisson arrivals.  It draws from the OCaml standard
   library's generator, not from the simulator's, so a change to the
   program cannot change the inputs it is measured on.  Every request
   context is built here, before any timer starts; distinct
   (user, resource, action) triples share one context value. *)

module Context = Dacs_policy.Context
module Value = Dacs_policy.Value

type t = {
  n : int;  (** requests in the schedule *)
  first_timed : int;  (** index of the first request due after warm-up *)
  due : float array;  (** virtual issue time, ascending *)
  pep : int array;  (** enforcement point (= resource) of each request *)
  ctx : int array;  (** index into [ctxs] / [full] *)
  user : int array;  (** user of each distinct context *)
  ctxs : Context.t array;  (** the context as issued to the PEP *)
  full : Context.t array;  (** the context with every attribute the policy reads *)
}

let roles = [| "doctor"; "nurse"; "admin" |]
let actions = [| "read"; "write" |]
let role_of u = roles.(u mod Array.length roles)
let user_name u = "user" ^ string_of_int u
let resource_name p = "res" ^ string_of_int p

(* Inverse-CDF Zipf sampler over [0, n): weight 1 / (i + 1)^skew. *)
let zipf st ~n ~skew =
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (1.0 /. (float_of_int (i + 1) ** skew));
    cdf.(i) <- !acc
  done;
  let total = !acc in
  fun () ->
    let u = Random.State.float st total in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo

let make (w : Spec.t) ~seed =
  let st = Random.State.make [| seed; Hashtbl.hash w.Spec.name |] in
  let sample_user = zipf st ~n:w.Spec.users ~skew:w.Spec.user_skew in
  let sample_pep = zipf st ~n:Spec.peps ~skew:Spec.resource_skew in
  let horizon = w.Spec.warmup +. (float_of_int w.Spec.timed_requests /. w.Spec.rate) in
  (* Arrival gaps are drawn at the rate in force when the previous
     request was due; the process is memoryless, so switching rates at
     the end of the warm-up needs nothing more. *)
  let due = ref [] and pep = ref [] and ctx = ref [] in
  let memo = Hashtbl.create 4096 in
  let users = ref [] and ctxs = ref [] and full = ref [] and distinct = ref 0 in
  let context_of u p a =
    let key = (u, p, a) in
    match Hashtbl.find_opt memo key with
    | Some i -> i
    | None ->
      let subject_id = ("subject-id", Value.String (user_name u)) in
      let role = ("role", Value.String (role_of u)) in
      let resource = [ ("resource-id", Value.String (resource_name p)) ] in
      let action = [ ("action-id", Value.String actions.(a)) ] in
      let with_role = Context.make ~subject:[ subject_id; role ] ~resource ~action () in
      let issued =
        if w.Spec.attr_ttl <> None then Context.make ~subject:[ subject_id ] ~resource ~action ()
        else with_role
      in
      let i = !distinct in
      incr distinct;
      Hashtbl.add memo key i;
      users := u :: !users;
      ctxs := issued :: !ctxs;
      full := with_role :: !full;
      i
  in
  let rec arrivals t =
    let rate = if t < w.Spec.warmup then w.Spec.warmup_rate else w.Spec.rate in
    let t = t -. (log (1.0 -. Random.State.float st 1.0) /. rate) in
    if t <= horizon then begin
      let u = sample_user () in
      let p = sample_pep () in
      let a = Random.State.int st (Array.length actions) in
      due := t :: !due;
      pep := p :: !pep;
      ctx := context_of u p a :: !ctx;
      arrivals t
    end
  in
  arrivals 0.0;
  let of_rev l = Array.of_list (List.rev l) in
  let due = of_rev !due in
  let n = Array.length due in
  let first_timed =
    let i = ref 0 in
    while !i < n && due.(!i) < w.Spec.warmup do
      incr i
    done;
    !i
  in
  {
    n;
    first_timed;
    due;
    pep = of_rev !pep;
    ctx = of_rev !ctx;
    user = of_rev !users;
    ctxs = of_rev !ctxs;
    full = of_rev !full;
  }
