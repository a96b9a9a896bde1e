module Policy = Dacs_policy.Policy
module Rule = Dacs_policy.Rule
module Target = Dacs_policy.Target
module Value = Dacs_policy.Value
module Context = Dacs_policy.Context
module Combine = Dacs_policy.Combine
module Decision = Dacs_policy.Decision

type rule_ref = {
  policy_id : string;
  policy_issuer : string;
  rule_id : string;
  effect : Rule.effect;
}

type conflict = {
  permit : rule_ref;
  deny : rule_ref;
  permit_first : bool;
  cross_policy : bool;
  cross_authority : bool;
  witness : string;
}

(* A clause's constraint on one section: (category, attribute, required
   value) bindings.  Only an equality on its own type binds a value;
   under the single-valued-attribute assumption a clause demanding two
   values at one position is unsatisfiable. *)
type clause_constraint = (Context.category * string * string) list option
(* None = unsatisfiable clause; Some bindings otherwise *)

let rec bound category attr = function
  | [] -> None
  | (c, a, v) :: rest ->
    if c = category && String.equal a attr then Some v else bound category attr rest

let clause_constraint clause : clause_constraint =
  let rec go acc = function
    | [] -> Some acc
    | m :: rest -> (
      match (m.Target.fn, m.Target.value) with
      | "string-equal", Value.String v | "anyURI-equal", Value.Uri v -> (
        match bound m.Target.category m.Target.attribute_id acc with
        | Some v' when not (String.equal v' v) -> None
        | Some _ -> go acc rest
        | None -> go ((m.Target.category, m.Target.attribute_id, v) :: acc) rest)
      (* Every other match (patterns, ranges, other types) is
         conservatively treated as satisfiable alongside anything. *)
      | _ -> go acc rest)
  in
  go [] clause

(* Two clause constraints are compatible when they do not demand
   different values for the same position. *)
let compatible a b =
  List.for_all
    (fun (category, attr, v) ->
      match bound category attr b with Some v' -> String.equal v v' | None -> true)
    a

(* A target's four sections as lists of clause constraints, derived once
   per (policy, rule) rather than once per rule pair. *)
let target_constraints t =
  List.map (List.map clause_constraint)
    [ t.Target.subjects; t.Target.resources; t.Target.actions; t.Target.environments ]

(* Section overlap: empty section = matches anything. *)
let sections_overlap sa sb =
  match (sa, sb) with
  | [], [] -> true
  | [], s | s, [] -> List.exists Option.is_some s
  | _ ->
    List.exists
      (function
        | None -> false
        | Some ba -> List.exists (function None -> false | Some bb -> compatible ba bb) sb)
      sa

(* Effective target of a rule inside a policy: both targets constrain the
   request, so overlap must hold for the pair (policy ∧ rule) on each
   side.  We approximate the conjunction by checking both.  Each side is
   the {!target_constraints} of a policy and of one of its rules. *)
let targets_overlap (pa, ra) (pb, rb) =
  let overlap ta tb = List.for_all2 sections_overlap ta tb in
  (* Overlap of the combined constraints: every one of the four targets
     involved must pairwise overlap on each section. *)
  overlap ra rb && overlap pa pb && overlap pa rb && overlap pb ra

let witness_for (p, r) =
  let describe t =
    let part name section =
      match section with
      | [] -> []
      | clause :: _ ->
        List.filter_map
          (fun m ->
            match clause_constraint [ m ] with
            | Some [ (_, attr, v) ] -> Some (Printf.sprintf "%s %s=%s" name attr v)
            | _ -> None)
          clause
    in
    part "subject" t.Target.subjects
    @ part "resource" t.Target.resources
    @ part "action" t.Target.actions
  in
  let all = describe p.Policy.target @ describe r.Rule.target in
  if all = [] then "any request" else String.concat ", " all

(* Gather (policy, rule, document position, constraints) entries from a
   set; a policy's constraints are derived once for all its rules. *)
let rec rules_of_set pos set =
  List.concat_map
    (fun child ->
      match child with
      | Policy.Inline_policy p -> rules_of_policy pos p
      | Policy.Inline_set s -> rules_of_set pos s
      | Policy.Policy_ref _ -> [])
    set.Policy.children

and rules_of_policy pos (p : Policy.t) =
  let policy_constraints = target_constraints p.Policy.target in
  (* Explicit fold: document positions must follow rule order. *)
  List.rev
    (List.fold_left
       (fun acc r ->
         incr pos;
         (p, r, !pos, (policy_constraints, target_constraints r.Rule.target)) :: acc)
       [] p.Policy.rules)

let make_ref (p : Policy.t) (r : Rule.t) =
  { policy_id = p.Policy.id; policy_issuer = p.Policy.issuer; rule_id = r.Rule.id; effect = r.Rule.effect }

let conflicts_among triples =
  let rec pairs acc = function
    | [] -> List.rev acc
    | (pa, ra, posa, ca) :: rest ->
      let found =
        List.filter_map
          (fun (pb, rb, posb, cb) ->
            if ra.Rule.effect = rb.Rule.effect then None
            else if not (targets_overlap ca cb) then None
            else begin
              let (pp, pr, ppos), (dp, dr, dpos) =
                if ra.Rule.effect = Rule.Permit then ((pa, ra, posa), (pb, rb, posb))
                else ((pb, rb, posb), (pa, ra, posa))
              in
              Some
                {
                  permit = make_ref pp pr;
                  deny = make_ref dp dr;
                  permit_first = ppos < dpos;
                  cross_policy = pp.Policy.id <> dp.Policy.id;
                  cross_authority = pp.Policy.issuer <> dp.Policy.issuer;
                  witness = witness_for (pp, pr);
                }
            end)
          rest
      in
      pairs (List.rev_append found acc) rest
  in
  pairs [] triples

let find_in_set set = conflicts_among (rules_of_set (ref 0) set)

let find_between a b =
  let pos = ref 0 in
  let from_a = rules_of_policy pos a in
  let from_b = rules_of_policy pos b in
  conflicts_among (from_a @ from_b)

(* --- change-impact region overlap ---------------------------------------- *)

module Delta = Dacs_policy.Delta

(* Two pins can constrain one and the same request only when they bind
   different positions, or the same position to intersecting value sets
   — the same single-valued-attribute reading as clause_constraint. *)
let pins_compatible (a : Delta.pin) (b : Delta.pin) =
  a.Delta.pin_category <> b.Delta.pin_category
  || a.Delta.pin_attribute <> b.Delta.pin_attribute
  || List.exists (fun v -> List.mem v b.Delta.pin_values) a.Delta.pin_values

let zones_overlap (za : Delta.zone) (zb : Delta.zone) =
  List.for_all (fun pa -> List.for_all (fun pb -> pins_compatible pa pb) zb) za

let regions_overlap (a : Delta.t) (b : Delta.t) =
  match (a, b) with
  | Delta.Empty, _ | _, Delta.Empty -> false
  | Delta.Unbounded, _ | _, Delta.Unbounded -> true
  | Delta.Zones za, Delta.Zones zb ->
    List.exists (fun x -> List.exists (fun y -> zones_overlap x y) zb) za

let resolution algorithm c =
  match algorithm with
  | Combine.Deny_overrides | Combine.Ordered_deny_overrides -> Decision.Deny
  | Combine.Permit_overrides | Combine.Ordered_permit_overrides -> Decision.Permit
  | Combine.First_applicable -> if c.permit_first then Decision.Permit else Decision.Deny
  | Combine.Only_one_applicable -> Decision.Indeterminate "more than one applicable policy"
