(** Policy targets: the applicability test of rules, policies and
    policy sets.

    A target has four sections (subjects, resources, actions,
    environments).  Each section is a disjunction of clauses; each clause
    is a conjunction of matches; an empty section matches anything — the
    XACML 2.0 structure. *)

type match_ = {
  fn : string;  (** a binary boolean function from the expression registry *)
  value : Value.t;  (** the literal, passed as the function's first argument *)
  category : Context.category;
  attribute_id : string;
}

type clause = match_ list
(** Conjunction. *)

type section = clause list
(** Disjunction; [[]] matches everything. *)

type t = {
  subjects : section;
  resources : section;
  actions : section;
  environments : section;
}

val any : t
(** Matches every request. *)

val make :
  ?subjects:section -> ?resources:section -> ?actions:section -> ?environments:section -> unit -> t

(** {1 Simple builders} *)

val match_string : Context.category -> string -> string -> match_
(** [match_string cat attr v] — string-equal on one attribute. *)

val subject_is : string -> string -> t -> t
(** [subject_is attr v t] adds a one-clause subject requirement. *)

val resource_is : string -> string -> t -> t
val action_is : string -> string -> t -> t

val for_action : string -> t
(** Target matching requests whose ["action-id"] equals the given name. *)

val for_resource : string -> t
val for_subject_role : string -> t

type outcome = Match | No_match | Indeterminate_match of string

val evaluate : ?resolve:Expr.resolver -> Context.t -> t -> outcome
(** XACML semantics: a match function error makes the section
    indeterminate rather than a mismatch. *)

(** {1 Static reading: what a target provably excludes}

    The one place that decides when a request can be shown, without
    evaluating anything, to fail a target.  {!Compiled} indexes rules by
    it and {!Delta} bounds change regions by it, so both prune under the
    same conditions the evaluator above would answer [No_match].

    A section {e pins} a position [(category, attribute)] when every one
    of its clauses holds a [string-equal] match on a string literal for
    that attribute {e and} that category — a match filed under one
    section but reading another category's bag pins nothing.  A request
    whose bag at the position is non-empty, all-string and disjoint from
    the pinned values makes every clause, hence the section, [No_match].
    That decides the target only when the sections evaluated before it
    (subjects, resources, actions, environments, in that order) resolve
    to Match or No_match: so every match in them must also be a
    [string-equal] on a string literal, and the request must carry clean
    bags at the positions they read — the pin's guards. *)

type pin = {
  pin_category : Context.category;
  pin_attribute : string;
  pin_values : string list;  (** sorted, deduplicated *)
  pin_guards : (Context.category * string) list;
      (** positions that must carry clean bags before this pin may
          exclude (the attributes of the target sections evaluated
          before the pinned one) *)
}

val pin : t -> Context.category -> string -> pin option
(** The pin of one position, read from the section of that category;
    [None] when some clause leaves the position free, the section is
    empty, or an earlier section holds a match that could error. *)

val pins : t -> pin list
(** Every pin of a target, section by section in evaluation order and
    by attribute within a section. *)

val clean_ids : Context.t -> Context.category -> string -> string list option
(** The request's bag at one position when excluding on it is sound: a
    non-empty bag of strings and nothing else.  An empty bag may be
    filled by a resolver later; a non-string value makes [string-equal]
    error instead of mismatch. *)

val guards_clean : Context.t -> (Context.category * string) list -> bool
(** Every guard position carries a non-empty all-string bag, so the
    guarded sections evaluate to Match or No_match — never
    Indeterminate. *)

val excludes : Context.t -> pin -> bool
(** The pin's guards are clean and the request's clean bag at the pinned
    position is disjoint from the pinned values: the originating target
    is provably [No_match] for this request, with or without a
    resolver. *)

val pp : Format.formatter -> t -> unit
