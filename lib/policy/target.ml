type match_ = {
  fn : string;
  value : Value.t;
  category : Context.category;
  attribute_id : string;
}

type clause = match_ list

type section = clause list

type t = {
  subjects : section;
  resources : section;
  actions : section;
  environments : section;
}

let any = { subjects = []; resources = []; actions = []; environments = [] }

let make ?(subjects = []) ?(resources = []) ?(actions = []) ?(environments = []) () =
  { subjects; resources; actions; environments }

let match_string category attribute_id s =
  { fn = "string-equal"; value = Value.String s; category; attribute_id }

let subject_is attr v t =
  { t with subjects = t.subjects @ [ [ match_string Context.Subject attr v ] ] }

let resource_is attr v t =
  { t with resources = t.resources @ [ [ match_string Context.Resource attr v ] ] }

let action_is attr v t =
  { t with actions = t.actions @ [ [ match_string Context.Action attr v ] ] }

let for_action name = action_is "action-id" name any
let for_resource name = resource_is "resource-id" name any
let for_subject_role role = subject_is "role" role any

type outcome = Match | No_match | Indeterminate_match of string

(* One match element: true when the function accepts (literal, v) for at
   least one v in the attribute's bag. *)
let eval_match ?resolve ctx m =
  match Expr.match_function m.fn with
  | None -> Indeterminate_match (Printf.sprintf "unknown match function %s" m.fn)
  | Some f -> (
    let bag = Context.bag ctx m.category m.attribute_id in
    let bag =
      if bag = [] then
        match resolve with
        | Some r -> Option.value (r m.category m.attribute_id) ~default:[]
        | None -> []
      else bag
    in
    let rec go errors = function
      | [] -> (
        match errors with
        | [] -> No_match
        | e :: _ -> Indeterminate_match e)
      | v :: rest -> (
        match f m.value v with
        | Ok true -> Match
        | Ok false -> go errors rest
        | Error e -> go (Expr.error_to_string e :: errors) rest)
    in
    go [] bag)

let eval_clause ?resolve ctx clause =
  (* XACML AllOf semantics: any No-match makes the clause No-match, even
     when another member errors; only error-without-mismatch is
     indeterminate. *)
  let rec go saw_error = function
    | [] -> (match saw_error with Some e -> Indeterminate_match e | None -> Match)
    | m :: rest -> (
      match eval_match ?resolve ctx m with
      | Match -> go saw_error rest
      | No_match -> No_match
      | Indeterminate_match e -> go (Some (Option.value saw_error ~default:e)) rest)
  in
  go None clause

let eval_section ?resolve ctx section =
  match section with
  | [] -> Match
  | clauses ->
    let rec go saw_error = function
      | [] -> (match saw_error with Some e -> Indeterminate_match e | None -> No_match)
      | c :: rest -> (
        match eval_clause ?resolve ctx c with
        | Match -> Match
        | No_match -> go saw_error rest
        | Indeterminate_match e -> go (Some e) rest)
    in
    go None clauses

let evaluate ?resolve ctx t =
  let sections = [ t.subjects; t.resources; t.actions; t.environments ] in
  let rec go = function
    | [] -> Match
    | s :: rest -> (
      match eval_section ?resolve ctx s with
      | Match -> go rest
      | No_match -> No_match
      | Indeterminate_match e -> Indeterminate_match e)
  in
  go sections

(* --- static reading: what a target provably excludes ------------------- *)

type pin = {
  pin_category : Context.category;
  pin_attribute : string;
  pin_values : string list;
  pin_guards : (Context.category * string) list;
}

(* Section categories in evaluation order. *)
let categories = Context.[ Subject; Resource; Action; Environment ]

let section_of t = function
  | Context.Subject -> t.subjects
  | Context.Resource -> t.resources
  | Context.Action -> t.actions
  | Context.Environment -> t.environments

(* String equality between string operands answers true or false on any
   all-string bag: the one match shape that can neither error nor be
   satisfied by a value other than its literal. *)
let guardable m =
  m.fn = "string-equal" && match m.value with Value.String _ -> true | _ -> false

(* The values a clause pins at (category, attr): its guardable matches
   on that attribute that also read that category's bag. *)
let clause_values category attr clause =
  List.filter_map
    (fun m ->
      match m.value with
      | Value.String s
        when m.category = category && m.attribute_id = attr && m.fn = "string-equal" ->
        Some s
      | _ -> None)
    clause

(* A section pins a position only when every clause does; an empty
   section matches everything and pins nothing. *)
let section_values category attr = function
  | [] -> None
  | clauses ->
    let rec go acc = function
      | [] -> Some (List.sort_uniq compare acc)
      | c :: rest -> (
        match clause_values category attr c with [] -> None | vs -> go (vs @ acc) rest)
    in
    go [] clauses

(* The positions a section reads, when every match is guardable. *)
let section_guards section =
  if List.for_all (List.for_all guardable) section then
    Some (List.concat_map (List.map (fun m -> (m.category, m.attribute_id))) section)
  else None

(* Guards of the sections evaluated before [category]'s, or None when one
   of them could short-circuit the target to Indeterminate. *)
let earlier_guards t category =
  let rec go acc = function
    | c :: rest when c <> category -> (
      match section_guards (section_of t c) with None -> None | Some g -> go (acc @ g) rest)
    | _ -> Some acc
  in
  go [] categories

(* The section test comes first: the guards are computed only for a
   position that pins, so indexing a rule that pins nothing costs one
   scan of one section. *)
let pin t category attr =
  match section_values category attr (section_of t category) with
  | None -> None
  | Some values -> (
    match earlier_guards t category with
    | None -> None
    | Some guards ->
      Some
        { pin_category = category; pin_attribute = attr; pin_values = values; pin_guards = guards })

let pins t =
  List.concat_map
    (fun category ->
      match section_of t category with
      | [] -> []
      | first :: _ ->
        let attrs =
          List.sort_uniq compare
            (List.filter_map
               (fun m -> if m.category = category && guardable m then Some m.attribute_id else None)
               first)
        in
        List.filter_map (pin t category) attrs)
    categories

let clean_ids ctx category attr =
  match Context.bag ctx category attr with
  | [] -> None
  | bag ->
    let rec strings acc = function
      | [] -> Some (List.rev acc)
      | Value.String s :: rest -> strings (s :: acc) rest
      | _ -> None
    in
    strings [] bag

let guards_clean ctx guards =
  List.for_all
    (fun (category, attr) ->
      match Context.bag ctx category attr with
      | [] -> false
      | bag -> List.for_all (function Value.String _ -> true | _ -> false) bag)
    guards

let excludes ctx pin =
  guards_clean ctx pin.pin_guards
  &&
  match clean_ids ctx pin.pin_category pin.pin_attribute with
  | None -> false
  | Some ids -> List.for_all (fun v -> not (List.mem v pin.pin_values)) ids

let pp_match fmt m =
  Format.fprintf fmt "%s(%a, %s/%s)" m.fn Value.pp m.value
    (Context.category_name m.category)
    m.attribute_id

let pp_section name fmt = function
  | [] -> ignore name
  | clauses ->
    Format.fprintf fmt "%s: %a@ " name
      (Format.pp_print_list
         ~pp_sep:(fun f () -> Format.pp_print_string f " | ")
         (fun f clause ->
           Format.pp_print_list
             ~pp_sep:(fun f () -> Format.pp_print_string f " & ")
             pp_match f clause))
      clauses

let pp fmt t =
  if t = any then Format.pp_print_string fmt "<any>"
  else begin
    pp_section "subjects" fmt t.subjects;
    pp_section "resources" fmt t.resources;
    pp_section "actions" fmt t.actions;
    pp_section "environments" fmt t.environments
  end
